// Client side of the serve protocol: connect, handshake, submit or resume a
// campaign, then follow progress frames to the final report. One blocking
// call per campaign — the concurrency lives in the daemon, not here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hm::serve {

/// Outcome of one campaign run as seen by the client.
struct ClientResult {
  enum class Status : std::uint8_t {
    kReport,  ///< Final report received.
    kBusy,    ///< Typed overload shed; retry later.
    kParked,  ///< Campaign parked mid-run (drain/deadline); resume later.
    kError,   ///< Server-reported error, handshake failure, or dead socket.
  };
  Status status = Status::kError;
  std::string campaign_id;
  std::string report;      ///< Valid when status == kReport.
  bool interrupted = false;
  std::string message;     ///< busy reason / park reason / error text.
  std::size_t progress_frames = 0;
};

class Client {
 public:
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects (UNIX path or loopback TCP port) and performs the
  /// hello/welcome handshake. `wait_seconds` covers a daemon still binding.
  [[nodiscard]] static std::optional<Client> connect_unix_path(
      const std::string& path, double wait_seconds, std::string* error);
  [[nodiscard]] static std::optional<Client> connect_port(
      std::uint16_t port, double wait_seconds, std::string* error);

  /// Submits a scenario and blocks until the campaign settles (report,
  /// busy, parked, or error). `reply_deadline_seconds` bounds each frame
  /// wait, not the whole campaign.
  [[nodiscard]] ClientResult run_scenario(const std::string& scenario_json,
                                          double reply_deadline_seconds);

  /// Resumes a parked/recovered campaign by id and blocks like
  /// run_scenario. A campaign that already finished returns its cached
  /// report immediately — byte-identical to the uninterrupted one.
  [[nodiscard]] ClientResult resume_campaign(const std::string& id,
                                             double reply_deadline_seconds);

  /// Liveness probe; true when the daemon answered the matching pong.
  [[nodiscard]] bool ping(double reply_deadline_seconds);

  /// Orderly detach (the campaign, if any, keeps running server-side).
  void bye();

  /// Enables cross-process tracing for subsequent submits/resumes: every
  /// outgoing frame carries this id, the daemon records its campaign spans
  /// under it, and the returned span bundle is ingested into this process's
  /// trace store — write_chrome_trace then emits the merged timeline.
  /// 0 (the default) disables propagation.
  void set_trace_id(std::uint64_t trace_id) noexcept { trace_id_ = trace_id; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }

  /// Span bundles received (and ingested) from the daemon so far.
  [[nodiscard]] std::size_t span_bundles_ingested() const noexcept {
    return span_bundles_;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  [[nodiscard]] bool handshake(std::string* error);
  [[nodiscard]] bool send_frame(const std::string& kind,
                                std::vector<std::string> fields);
  [[nodiscard]] ClientResult await_settled(double reply_deadline_seconds);

  int fd_ = -1;
  std::uint64_t ping_seq_ = 0;
  std::uint64_t trace_id_ = 0;
  std::size_t span_bundles_ = 0;
};

}  // namespace hm::serve
