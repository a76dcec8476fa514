// The hm_serve control-plane messages. The daemon and its clients exchange
// common/frame.hpp frames over a stream socket (UNIX or TCP); read_frame/
// write_frame are transport-agnostic — poll-based, EINTR-retrying,
// short-transfer-safe — so a socket needs no I/O code of its own, only
// these payload types. A serve frame is a tagged message: a short kind
// string plus positional string fields, joined with the journal's field
// codec (common/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hm::serve {

// Frame kinds, client -> server:
//   hello   [client_name, protocol_version]
//   submit  [scenario_json]         open a new campaign
//   resume  [campaign_id]           reattach a parked or recovered campaign
//   ping    [seq]                   liveness probe
//   bye     []                      orderly detach (campaign keeps running)
//
// Kinds, server -> client:
//   welcome  [server_name, protocol_version, max_campaigns]
//   accepted [campaign_id]          admission granted, campaign running
//   busy     [reason]               typed overload shed — never a silent drop
//   error    [message]              malformed scenario / unknown campaign / ...
//   progress [campaign_id, iteration, samples, front_size]
//   report   [campaign_id, interrupted, report_bytes]  final rendered report
//   parked   [campaign_id, reason]  campaign parked (drain, dead client)
//   pong     [seq]
//   spans    [campaign_id, bundle]  merged span bundle for the campaign's
//                                   trace id (encode_span_bundle payload);
//                                   sent just before `report` when the
//                                   submit carried a nonzero trace id
//
// Every serve frame also carries a (trace_id, span_id) pair: trace_id is
// the request-scoped correlation id (0 = untraced) that the daemon
// propagates into campaign evaluations and sandbox workers; span_id
// identifies the sender's current span so either side can attribute a
// frame to the span that produced it.
struct ServeFrame {
  std::string kind;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::vector<std::string> fields;
};

/// Current serve protocol version; `hello`/`welcome` carry it so a client
/// from a different build fails the handshake explicitly. v2: the serve
/// frame header grew the (trace_id, span_id) pair and EvalRequest/
/// EvalResponse gained trace_id/span_bundle — a v1 peer must be rejected
/// at the handshake, not fail mid-stream with opaque decode errors.
inline constexpr std::uint64_t kServeProtocolVersion = 2;

[[nodiscard]] std::string encode_serve_frame(const ServeFrame& frame);
[[nodiscard]] std::optional<ServeFrame> decode_serve_frame(
    std::string_view payload);

}  // namespace hm::serve
