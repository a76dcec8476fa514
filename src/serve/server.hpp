// The hm_serve daemon core: one poll()-driven event loop hosting many
// concurrent campaigns, with the evaluations fanned out on a ThreadPool and
// funneled back through a self-pipe-woken completion queue — so every
// Campaign/Optimizer call happens on the loop thread and the only shared
// state is the queue itself.
//
// Robustness contract (ISSUE/DESIGN.md §11):
//   - admission control: more than `max_campaigns` active campaigns (or
//     `max_connections` sockets) answers with a *typed* `busy` frame —
//     overload is shed loudly, never by dropping bytes;
//   - liveness: a client that stops talking for `client_idle_seconds`
//     (heartbeats count) has its campaign parked, not leaked; a stalled
//     writer mid-frame hits the per-frame read deadline and is treated the
//     same way;
//   - drain: SIGTERM/SIGINT closes the listener, parks or finishes every
//     in-flight campaign, then exits 130 (the repo-wide cooperative
//     shutdown code);
//   - recovery: on start the journal directory is scanned and every
//     campaign with a scenario sidecar but no completed run is re-openable;
//     a client `resume` (or --auto-resume) continues it from the journal to
//     a byte-identical report.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "serve/protocol.hpp"
#include "serve/campaign.hpp"

namespace hm::serve {

struct ServerConfig {
  /// UNIX-domain rendezvous path; empty selects loopback TCP.
  std::string socket_path;
  /// Loopback TCP port when socket_path is empty (0 = ephemeral).
  std::uint16_t tcp_port = 0;
  /// Directory for campaign journals + scenario sidecars.
  std::string journal_dir = ".";
  /// Admission limits: active (running/parking) campaigns and open sockets.
  std::size_t max_campaigns = 4;
  std::size_t max_connections = 32;
  /// Liveness: park an attached campaign when its client has been silent
  /// this long (any frame, including ping, resets the clock). 0 disables.
  double client_idle_seconds = 30.0;
  /// Per-frame read deadline once poll() reports the socket readable; a
  /// writer that stalls mid-frame is treated as dead.
  double frame_read_seconds = 5.0;
  /// SO_SNDTIMEO on every connection (stalled readers).
  double send_timeout_seconds = 5.0;
  /// Event-loop tick; bounds signal/deadline reaction latency.
  double tick_seconds = 0.05;
  /// ThreadPool workers for evaluation fan-out (0 = hardware).
  std::size_t pool_threads = 0;
  /// Re-open every unfinished recovered campaign at start and run it to
  /// completion without waiting for a client `resume`.
  bool auto_resume = false;
  /// Observability endpoint: a second loopback-TCP listener answering
  /// HTTP/1.0 `GET /metrics` (Prometheus text with per-campaign labels),
  /// `GET /status` (JSON campaign table) and `GET /events` (flight-recorder
  /// dump). Negative disables it; 0 binds an ephemeral port reported via
  /// http_port().
  int http_port = -1;
  /// Per-scrape-connection lifetime cap: a scraper that has neither
  /// finished its request nor drained its response by then is closed
  /// (slow-loris / stalled-reader bound).
  double http_deadline_seconds = 5.0;
  /// When non-empty, the flight recorder is dumped here (JSON, atomic
  /// rename) at the end of every drain.
  std::string flight_dump_path;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, scans the journal directory for recoverable
  /// campaigns, and (with auto_resume) re-opens them. Returns false with
  /// `error` set on failure.
  [[nodiscard]] bool start(std::string* error);

  /// Runs the event loop until a shutdown signal or stop(). Returns the
  /// process exit code: 130 after a signal-initiated drain, 0 after stop().
  [[nodiscard]] int run();

  /// Requests an orderly drain from another thread (tests).
  void stop();

  /// The bound TCP port (valid after start() when socket_path is empty).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// The bound observability port (valid after start() when
  /// config.http_port >= 0).
  [[nodiscard]] std::uint16_t http_port() const noexcept {
    return http_bound_port_;
  }

  /// Counters for tests and the drain log line.
  [[nodiscard]] std::size_t shed_count() const noexcept { return sheds_; }
  [[nodiscard]] std::size_t parked_count() const noexcept { return parks_; }
  [[nodiscard]] std::size_t done_count() const noexcept { return dones_; }

 private:
  struct Connection {
    int fd = -1;
    std::shared_ptr<Campaign> campaign;  ///< At most one per connection.
    double last_activity = 0.0;          ///< Server-clock stamp.
    bool greeted = false;
  };

  struct Completion {
    std::shared_ptr<Campaign> campaign;
    std::size_t slot = 0;
    hm::hypermapper::EvaluationOutcome outcome;
  };

  /// One HTTP/1.0 scrape in flight. The socket is non-blocking; the loop
  /// reads the request until the blank line, then drains the buffered
  /// response under POLLOUT — a slow or half-closed scraper can only cost
  /// its own connection (closed at http_deadline_seconds), never block the
  /// frame path.
  struct HttpConnection {
    int fd = -1;
    std::string request;    ///< Bytes received so far (capped).
    std::string response;   ///< Rendered reply, filled once.
    std::size_t sent = 0;   ///< Response bytes already written.
    bool responding = false;
    double opened = 0.0;    ///< Server-clock stamp (deadline base).
  };

  [[nodiscard]] std::size_t active_campaigns() const;
  void accept_new_connection();
  /// Handles one readable connection; returns false when it must close.
  [[nodiscard]] bool service_connection(Connection& conn);
  [[nodiscard]] bool handle_frame(Connection& conn,
                                  const ServeFrame& frame);
  [[nodiscard]] bool handle_submit(Connection& conn,
                                   const std::string& scenario_json,
                                   std::uint64_t trace_id);
  [[nodiscard]] bool handle_resume(Connection& conn, const std::string& id,
                                   std::uint64_t trace_id);
  /// Attaches a freshly opened/recovered campaign and starts its batches.
  [[nodiscard]] bool attach_and_pump(Connection& conn,
                                     std::shared_ptr<Campaign> campaign);
  /// Dispatches a campaign's next pending evaluations onto the pool.
  void pump_campaign(const std::shared_ptr<Campaign>& campaign);
  /// Applies queued completions; reports progress/report/parked frames to
  /// the attached client, if any.
  void drain_completions();
  void on_campaign_settled(const std::shared_ptr<Campaign>& campaign);
  /// Parks the campaign attached to a dead/idle connection.
  void abandon_connection(Connection& conn, const std::string& reason);
  void enforce_deadlines();
  void drain(bool from_signal);

  /// Turns span recording on for a traced submit/resume. When the daemon
  /// itself was started with tracing enabled (--trace), this is a no-op:
  /// the operator owns the toggle and every span, request-scoped or not.
  void begin_request_tracing();
  /// Releases a finished campaign's trace state: drops its spans (the
  /// bundle, if a client was attached, has already been shipped) and turns
  /// recording back off once no unfinished traced campaign remains. No-op
  /// under operator-owned (--trace) tracing.
  void end_request_tracing(std::uint64_t trace_id);

  void accept_http_connection();
  /// Advances one scrape; returns false when the socket must close.
  [[nodiscard]] bool service_http_connection(HttpConnection& conn,
                                             short revents);
  /// Routes a complete request line to a rendered HTTP/1.0 response.
  [[nodiscard]] std::string render_http_response(const std::string& request);
  [[nodiscard]] std::string render_metrics_body();
  [[nodiscard]] std::string render_status_body();

  [[nodiscard]] bool send(int fd, const ServeFrame& frame);
  [[nodiscard]] Connection* connection_for(const Campaign* campaign);

  ServerConfig config_;
  hm::common::Timer clock_;
  std::unique_ptr<hm::common::ThreadPool> pool_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::uint16_t bound_port_ = 0;
  std::vector<Connection> connections_;
  int http_listen_fd_ = -1;
  std::uint16_t http_bound_port_ = 0;
  std::vector<HttpConnection> http_connections_;
  /// Every known campaign by id: running, parked, or done (report cache).
  std::map<std::string, std::shared_ptr<Campaign>> campaigns_;
  /// Ids with a sidecar on disk awaiting a client `resume` (restart scan).
  std::vector<std::string> recoverable_;

  std::mutex completion_mutex_;
  std::deque<Completion> completions_;  // hm-guarded-by(completion_mutex_)

  /// Tracing was already on when the daemon started (--trace): the server
  /// never toggles it or drops spans — the whole process timeline belongs
  /// to the operator's trace file.
  bool trace_sticky_ = false;

  std::atomic<bool> stop_requested_{false};  ///< stop() -> loop.
  std::size_t sheds_ = 0;
  std::size_t parks_ = 0;
  std::size_t dones_ = 0;
};

}  // namespace hm::serve
