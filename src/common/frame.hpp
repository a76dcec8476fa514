// Length-framed, crc-checked messages over any stream descriptor: the one
// framing layer under the sandbox's supervisor<->worker pipes and the
// hm_serve daemon's sockets. Payloads are opaque here; each transport owns
// its payload codecs (sandbox/protocol.hpp, serve/protocol.hpp).
//
// Frame layout (all integers little-endian):
//   [u32 payload length][u32 crc32(payload)][payload bytes]
//
// A frame is only ever acted on after its checksum verifies; anything else
// — a short read, an oversized length, a crc mismatch — classifies the
// stream as corrupt, and the reader drops the peer (the sandbox supervisor
// kills and replaces the worker, the daemon closes the connection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hm::common {

/// Upper bound on a frame payload. A length field above this is corruption
/// (or a hostile peer), not a real message; reject before allocating.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;

/// Result of one framed read.
enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kEof,      ///< Orderly EOF at a frame boundary (peer closed / died idle).
  kTimeout,  ///< The deadline expired before a complete frame arrived.
  kCorrupt,  ///< Bad length, bad checksum, or EOF inside a frame.
  kError,    ///< A non-retryable read/poll error (errno describes it).
};

/// Writes one complete frame, retrying EINTR and short writes. Returns
/// false on any hard error (typically EPIPE: the peer is gone).
[[nodiscard]] bool write_frame(int fd, std::string_view payload);

/// Reads one complete frame. `deadline_seconds` bounds the whole frame
/// (header + payload) in wall-clock time; <= 0 blocks indefinitely. EINTR
/// never aborts the read — the remaining budget is recomputed and the wait
/// resumes, so signal-heavy supervisors cannot mis-classify a live peer.
[[nodiscard]] FrameStatus read_frame(int fd, std::string* payload,
                                     double deadline_seconds);

}  // namespace hm::common
