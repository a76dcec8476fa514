#include "serve/protocol.hpp"

#include <iterator>

#include "common/checkpoint.hpp"

namespace hm::serve {

std::string encode_serve_frame(const ServeFrame& frame) {
  std::vector<std::string> fields;
  fields.reserve(5 + frame.fields.size());
  fields.emplace_back("sv");
  fields.push_back(frame.kind);
  fields.push_back(hm::common::encode_u64(frame.trace_id));
  fields.push_back(hm::common::encode_u64(frame.span_id));
  fields.push_back(hm::common::encode_u64(frame.fields.size()));
  for (const std::string& field : frame.fields) fields.push_back(field);
  return hm::common::encode_fields(fields);
}

std::optional<ServeFrame> decode_serve_frame(std::string_view payload) {
  auto fields = hm::common::decode_fields(payload);
  if (!fields || fields->size() < 5 || (*fields)[0] != "sv") {
    return std::nullopt;
  }
  const auto trace_id = hm::common::decode_u64((*fields)[2]);
  const auto span_id = hm::common::decode_u64((*fields)[3]);
  const auto count = hm::common::decode_u64((*fields)[4]);
  if (!trace_id || !span_id || !count || fields->size() != 5 + *count) {
    return std::nullopt;
  }
  ServeFrame frame;
  frame.kind = std::move((*fields)[1]);
  frame.trace_id = *trace_id;
  frame.span_id = *span_id;
  frame.fields.assign(std::make_move_iterator(fields->begin() + 5),
                      std::make_move_iterator(fields->end()));
  return frame;
}

}  // namespace hm::serve
