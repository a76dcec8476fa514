// Socket shim for the hm_serve daemon: the single serve-layer file allowed
// to touch raw descriptors (enforced by hm_lint's no-unguarded-syscall
// allowlist). Everything here is EINTR-hardened the same way
// common/atomic_file hardens file I/O:
//
//   - accept_retry / poll_retry restart on EINTR (poll with the remaining
//     timeout recomputed from a monotonic timer, so a signal storm cannot
//     stretch a tick);
//   - connect_with_retry handles the transient refusals of a daemon that
//     is still binding its socket (serve.sh races client against daemon);
//   - SIGPIPE is ignored process-wide by the daemon and client so a peer
//     that vanished surfaces as EPIPE from write_fd_all, not a kill.
//
// Both UNIX-domain and loopback TCP listeners are supported; a connected
// socket is just an fd, and the frame codec (common/frame.hpp) reads and
// writes it with the same code that drives the sandbox pipes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <poll.h>

namespace hm::serve {

/// Binds and listens on a UNIX-domain socket at `path` (an existing socket
/// file is unlinked first — the daemon owns its rendezvous path). Returns
/// the listening fd or -1 with `error` set.
[[nodiscard]] int listen_unix(const std::string& path, int backlog,
                              std::string* error);

/// Binds and listens on loopback TCP `port` (0 picks an ephemeral port,
/// reported via `bound_port`). Returns the listening fd or -1.
[[nodiscard]] int listen_tcp(std::uint16_t port, int backlog,
                             std::uint16_t* bound_port, std::string* error);

/// Connects to a UNIX-domain socket, retrying ECONNREFUSED/ENOENT for up
/// to `wait_seconds` (a client racing the daemon's bind). Returns the
/// connected fd or -1.
[[nodiscard]] int connect_unix(const std::string& path, double wait_seconds,
                               std::string* error);

/// Connects to loopback TCP `port` with the same retry policy.
[[nodiscard]] int connect_tcp(std::uint16_t port, double wait_seconds,
                              std::string* error);

/// accept() restarted on EINTR. Returns the connection fd, or -1 with
/// errno preserved for the caller (EAGAIN when the listener was spurious).
[[nodiscard]] int accept_retry(int listen_fd);

/// poll() restarted on EINTR with the remaining timeout recomputed, so the
/// daemon's tick length is signal-independent. `timeout_ms < 0` blocks.
/// Returns poll's result (0 on timeout, -1 only on a non-EINTR error).
[[nodiscard]] int poll_retry(struct pollfd* fds, unsigned long count,
                             int timeout_ms);

/// Bounds blocking send() time on a connected socket so one stalled reader
/// cannot wedge the daemon's event loop mid-reply. Returns false on error.
[[nodiscard]] bool set_send_timeout(int fd, double seconds);

/// Marks the fd non-blocking (the HTTP scrape sockets: the event loop must
/// never block on a slow or hostile scraper). Returns false on error.
[[nodiscard]] bool set_nonblocking(int fd);

/// One read(), EINTR-restarted. Returns bytes read (> 0), 0 on EOF, -1 on
/// a hard error, or kWouldBlock when a non-blocking fd has nothing yet.
inline constexpr long kWouldBlock = -2;
[[nodiscard]] long read_some(int fd, char* out, std::size_t capacity);

/// One write(), EINTR-restarted, same return convention as read_some (0 is
/// never returned for len > 0; a gone peer is a hard error via EPIPE).
[[nodiscard]] long write_some(int fd, const char* data, std::size_t len);

/// Ignores SIGPIPE process-wide (idempotent). Call before any socket write.
void ignore_sigpipe();

/// Closes a socket fd (EINTR-safe, idempotent on -1).
void close_socket(int fd);

/// Creates the event loop's self-wake pipe (pool threads nudge the poll
/// loop by writing one byte). Returns false on failure.
[[nodiscard]] bool make_wake_pipe(int fds[2]);

/// Writes one wake byte (best-effort; a full pipe already wakes the loop).
void wake(int write_fd);

/// Drains all pending wake bytes (called by the loop after POLLIN).
void drain_wake(int read_fd);

}  // namespace hm::serve
