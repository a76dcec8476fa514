// Wire protocol between the evaluation supervisor and its forked workers:
// the request and response payloads carried in common/frame.hpp frames over
// a pair of pipes. The payload codecs reuse the journal's bit-exact field
// encoding (checkpoint.hpp), so an objective vector crosses the process
// boundary with the identical IEEE-754 bits it would have in-process — the
// determinism guarantee the optimizer's byte-identical resume depends on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hm::sandbox {

/// One evaluation request: the configuration vector plus the deterministic
/// retry nonce (0 means a first attempt — `Evaluator::evaluate`; non-zero
/// routes to `evaluate_retry`). A nonzero `trace_id` asks the worker to
/// record trace spans for this evaluation under that id and ship them back
/// in the response, so one request's timeline spans the fork boundary.
struct EvalRequest {
  std::vector<double> config;
  std::uint64_t nonce = 0;
  std::uint64_t trace_id = 0;
};

/// One evaluation response. On success the objective vector is bit-exact
/// and `counter_deltas` carries the worker's metric increments (kernel op
/// counts, evaluator counters) for the supervisor to fold into its own
/// registry. On failure the transient flag preserves the evaluator's
/// transient-vs-permanent classification across the process boundary.
/// `span_bundle`, when non-empty, is an `encode_span_bundle` payload
/// (common/trace.hpp) holding the worker's spans for the request's trace
/// id; the supervisor ingests it into its merged timeline.
struct EvalResponse {
  bool ok = false;
  std::vector<double> objectives;
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  bool transient = false;
  std::string message;
  std::string span_bundle;
};

[[nodiscard]] std::string encode_request(const EvalRequest& request);
[[nodiscard]] std::optional<EvalRequest> decode_request(
    std::string_view payload);

[[nodiscard]] std::string encode_response(const EvalResponse& response);
[[nodiscard]] std::optional<EvalResponse> decode_response(
    std::string_view payload);

}  // namespace hm::sandbox
