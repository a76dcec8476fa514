#include "common/frame.hpp"

#include <cerrno>
#include <cmath>

#include <poll.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"
#include "common/timer.hpp"

namespace hm::common {

namespace {

constexpr std::size_t kHeaderBytes = 8;

void put_u32le(char* out, std::uint32_t value) {
  out[0] = static_cast<char>(value & 0xFFu);
  out[1] = static_cast<char>((value >> 8) & 0xFFu);
  out[2] = static_cast<char>((value >> 16) & 0xFFu);
  out[3] = static_cast<char>((value >> 24) & 0xFFu);
}

[[nodiscard]] std::uint32_t get_u32le(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24);
}

enum class ExactStatus : std::uint8_t { kOk, kEof, kTimeout, kError };

/// Reads exactly `count` bytes. The deadline is shared across the whole
/// frame via `timer`; EINTR recomputes the remaining budget and resumes.
/// `*bytes_read` reports progress so the caller can tell a clean EOF at a
/// frame boundary from one that tears a frame in half.
[[nodiscard]] ExactStatus read_exact(int fd, char* out, std::size_t count,
                                     const Timer& timer,
                                     double deadline_seconds,
                                     std::size_t* bytes_read) {
  *bytes_read = 0;
  while (*bytes_read < count) {
    int timeout_ms = -1;
    if (deadline_seconds > 0.0) {
      const double remaining = deadline_seconds - timer.seconds();
      if (remaining <= 0.0) return ExactStatus::kTimeout;
      timeout_ms = static_cast<int>(std::ceil(remaining * 1e3));
      if (timeout_ms < 1) timeout_ms = 1;
    }
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ExactStatus::kError;
    }
    if (ready == 0) return ExactStatus::kTimeout;
    // POLLHUP without POLLIN still requires a read(): the pipe may hold
    // buffered bytes the dead writer flushed before exiting.
    const ssize_t got = ::read(fd, out + *bytes_read, count - *bytes_read);
    if (got < 0) {
      if (errno == EINTR) continue;
      return ExactStatus::kError;
    }
    if (got == 0) return ExactStatus::kEof;
    *bytes_read += static_cast<std::size_t>(got);
  }
  return ExactStatus::kOk;
}

}  // namespace

// Socket-use audit (hm_serve shares these entry points with the pipe
// transport): write_fd_all retries EINTR and short writes, and surfaces
// EPIPE/ECONNRESET as a clean `false` — callers must have SIGPIPE ignored
// (the sandbox supervisor and the serve event loop both do). read_exact
// below retries EINTR with the remaining deadline recomputed from a shared
// Timer, treats POLLHUP as "drain the buffered bytes first", and reports
// partial progress so a half-closed peer mid-frame classifies kCorrupt,
// not kEof. Nothing here assumes pipe semantics.
bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return false;
  std::string frame(kHeaderBytes, '\0');
  put_u32le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame.data() + 4, crc32(payload));
  frame.append(payload);
  // One buffered write keeps the frame contiguous in the pipe; pipes only
  // guarantee atomicity up to PIPE_BUF, so the reader still reassembles.
  return write_fd_all(fd, frame);
}

FrameStatus read_frame(int fd, std::string* payload, double deadline_seconds) {
  const Timer timer;
  char header[kHeaderBytes];
  std::size_t got = 0;
  switch (read_exact(fd, header, kHeaderBytes, timer, deadline_seconds, &got)) {
    case ExactStatus::kOk: break;
    case ExactStatus::kEof:
      // EOF before any byte is an orderly close; inside the header it is a
      // torn frame.
      return got == 0 ? FrameStatus::kEof : FrameStatus::kCorrupt;
    case ExactStatus::kTimeout: return FrameStatus::kTimeout;
    case ExactStatus::kError: return FrameStatus::kError;
  }
  const std::uint32_t length = get_u32le(header);
  const std::uint32_t expected_crc = get_u32le(header + 4);
  if (length > kMaxFramePayload) return FrameStatus::kCorrupt;
  payload->assign(length, '\0');
  if (length > 0) {
    switch (read_exact(fd, payload->data(), length, timer, deadline_seconds,
                       &got)) {
      case ExactStatus::kOk: break;
      case ExactStatus::kEof: return FrameStatus::kCorrupt;
      case ExactStatus::kTimeout: return FrameStatus::kTimeout;
      case ExactStatus::kError: return FrameStatus::kError;
    }
  }
  if (crc32(*payload) != expected_crc) return FrameStatus::kCorrupt;
  return FrameStatus::kOk;
}

}  // namespace hm::common
