#include "sandbox/protocol.hpp"

#include "common/checkpoint.hpp"

namespace hm::sandbox {

std::string encode_request(const EvalRequest& request) {
  std::vector<std::string> fields;
  fields.reserve(4 + request.config.size());
  fields.emplace_back("ev");
  fields.push_back(hm::common::encode_u64(request.nonce));
  fields.push_back(hm::common::encode_u64(request.trace_id));
  fields.push_back(hm::common::encode_u64(request.config.size()));
  for (const double value : request.config) {
    fields.push_back(hm::common::encode_double(value));
  }
  return hm::common::encode_fields(fields);
}

std::optional<EvalRequest> decode_request(std::string_view payload) {
  const auto fields = hm::common::decode_fields(payload);
  if (!fields || fields->size() < 4 || (*fields)[0] != "ev") {
    return std::nullopt;
  }
  const auto nonce = hm::common::decode_u64((*fields)[1]);
  const auto trace_id = hm::common::decode_u64((*fields)[2]);
  const auto count = hm::common::decode_u64((*fields)[3]);
  if (!nonce || !trace_id || !count || fields->size() != 4 + *count) {
    return std::nullopt;
  }
  EvalRequest request;
  request.nonce = *nonce;
  request.trace_id = *trace_id;
  request.config.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    const auto value = hm::common::decode_double((*fields)[4 + i]);
    if (!value) return std::nullopt;
    request.config.push_back(*value);
  }
  return request;
}

std::string encode_response(const EvalResponse& response) {
  std::vector<std::string> fields;
  if (response.ok) {
    fields.reserve(2 + response.objectives.size() +
                   2 * response.counter_deltas.size() + 2);
    fields.emplace_back("ok");
    fields.push_back(hm::common::encode_u64(response.objectives.size()));
    for (const double value : response.objectives) {
      fields.push_back(hm::common::encode_double(value));
    }
    fields.push_back(hm::common::encode_u64(response.counter_deltas.size()));
    for (const auto& [name, delta] : response.counter_deltas) {
      fields.push_back(name);
      fields.push_back(hm::common::encode_u64(delta));
    }
    fields.push_back(response.span_bundle);
  } else {
    fields.emplace_back("err");
    fields.emplace_back(response.transient ? "1" : "0");
    fields.push_back(response.message);
    fields.push_back(response.span_bundle);
  }
  return hm::common::encode_fields(fields);
}

std::optional<EvalResponse> decode_response(std::string_view payload) {
  const auto fields = hm::common::decode_fields(payload);
  if (!fields || fields->empty()) return std::nullopt;
  EvalResponse response;
  if ((*fields)[0] == "err") {
    if (fields->size() != 4) return std::nullopt;
    if ((*fields)[1] == "1") {
      response.transient = true;
    } else if ((*fields)[1] != "0") {
      return std::nullopt;
    }
    response.message = (*fields)[2];
    response.span_bundle = (*fields)[3];
    response.ok = false;
    return response;
  }
  if ((*fields)[0] != "ok" || fields->size() < 2) return std::nullopt;
  const auto objective_count = hm::common::decode_u64((*fields)[1]);
  if (!objective_count || fields->size() < 2 + *objective_count + 1) {
    return std::nullopt;
  }
  response.objectives.reserve(*objective_count);
  for (std::size_t i = 0; i < *objective_count; ++i) {
    const auto value = hm::common::decode_double((*fields)[2 + i]);
    if (!value) return std::nullopt;
    response.objectives.push_back(*value);
  }
  const std::size_t deltas_at = 2 + *objective_count;
  const auto delta_count = hm::common::decode_u64((*fields)[deltas_at]);
  if (!delta_count ||
      fields->size() != deltas_at + 1 + 2 * *delta_count + 1) {
    return std::nullopt;
  }
  response.counter_deltas.reserve(*delta_count);
  for (std::size_t i = 0; i < *delta_count; ++i) {
    const std::string& name = (*fields)[deltas_at + 1 + 2 * i];
    const auto delta = hm::common::decode_u64((*fields)[deltas_at + 2 + 2 * i]);
    if (!delta) return std::nullopt;
    response.counter_deltas.emplace_back(name, *delta);
  }
  response.span_bundle = fields->back();
  response.ok = true;
  return response;
}

}  // namespace hm::sandbox
