#include "serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/flight_recorder.hpp"
#include "common/frame.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/signal.hpp"
#include "common/trace.hpp"
#include "serve/net.hpp"

namespace hm::serve {

namespace {

using hm::common::FlightEventKind;
using hm::common::FlightRecorder;
using hm::common::FrameStatus;

constexpr const char* kServerName = "hm_serve";

/// A scrape request larger than this without a complete header is not a
/// scraper; answer 414 and close (slow-loris / garbage bound).
constexpr std::size_t kHttpRequestCap = 8192;
/// Scrape sockets admitted at once; scrapes are short-lived, so a tiny cap
/// suffices and bounds the poll set.
constexpr std::size_t kHttpMaxConnections = 8;

[[nodiscard]] ServeFrame frame_of(std::string kind,
                                  std::vector<std::string> fields = {}) {
  ServeFrame frame;
  frame.kind = std::move(kind);
  frame.fields = std::move(fields);
  return frame;
}

[[nodiscard]] std::string http_response(int code, const char* reason,
                                        const char* content_type,
                                        std::string body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// True once `request` holds a complete HTTP request head (blank line).
/// Tolerates bare-LF clients.
[[nodiscard]] bool http_head_complete(const std::string& request) {
  return request.find("\r\n\r\n") != std::string::npos ||
         request.find("\n\n") != std::string::npos;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() {
  for (Connection& conn : connections_) close_socket(conn.fd);
  for (HttpConnection& conn : http_connections_) close_socket(conn.fd);
  close_socket(listen_fd_);
  close_socket(http_listen_fd_);
  close_socket(wake_fds_[0]);
  close_socket(wake_fds_[1]);
}

bool Server::start(std::string* error) {
  ignore_sigpipe();
  trace_sticky_ = hm::common::trace_enabled();
  std::error_code ec;
  std::filesystem::create_directories(config_.journal_dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create journal dir " + config_.journal_dir + ": " +
               ec.message();
    }
    return false;
  }
  if (config_.http_port > 65535) {
    if (error != nullptr) *error = "http port out of range";
    return false;
  }
  if (!make_wake_pipe(wake_fds_)) {
    if (error != nullptr) *error = "cannot create wake pipe";
    return false;
  }
  if (!config_.socket_path.empty()) {
    listen_fd_ = listen_unix(config_.socket_path, 16, error);
  } else {
    listen_fd_ = listen_tcp(config_.tcp_port, 16, &bound_port_, error);
  }
  if (listen_fd_ < 0) return false;
  if (config_.http_port >= 0) {
    http_listen_fd_ =
        listen_tcp(static_cast<std::uint16_t>(config_.http_port), 16,
                   &http_bound_port_, error);
    if (http_listen_fd_ < 0) return false;
    hm::common::log_info() << "hm_serve: observability endpoint on 127.0.0.1:"
                           << http_bound_port_
                           << " (/metrics /status /events)";
  }
  pool_ = std::make_unique<hm::common::ThreadPool>(config_.pool_threads);

  // Restart recovery: every scenario sidecar in the journal directory is a
  // campaign this daemon (or a predecessor) admitted. They stay parked
  // until a client resumes them, unless auto_resume re-opens them now.
  recoverable_ = Campaign::scan(config_.journal_dir);
  if (!recoverable_.empty()) {
    hm::common::log_info() << "hm_serve: " << recoverable_.size()
                           << " recoverable campaign(s) in "
                           << config_.journal_dir;
  }
  if (config_.auto_resume) {
    for (const std::string& id : recoverable_) {
      std::string recover_error;
      auto campaign =
          Campaign::recover(config_.journal_dir, id, &recover_error);
      if (campaign == nullptr) {
        hm::common::log_warn()
            << "hm_serve: cannot auto-resume " << id << ": " << recover_error;
        continue;
      }
      std::shared_ptr<Campaign> shared(std::move(campaign));
      campaigns_[id] = shared;
      if (shared->state() == Campaign::State::kDone) {
        ++dones_;
      } else {
        pump_campaign(shared);
      }
    }
    recoverable_.clear();
  }
  return true;
}

int Server::run() {
  bool signalled = false;
  while (true) {
    if (hm::common::shutdown_requested()) {
      signalled = true;
      break;
    }
    if (stop_requested_.load(std::memory_order_relaxed)) break;

    std::vector<struct pollfd> fds;
    fds.reserve(3 + connections_.size() + http_connections_.size());
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    const std::size_t polled = connections_.size();
    for (const Connection& conn : connections_) {
      fds.push_back({conn.fd, POLLIN, 0});
    }
    // The observability listener and its scrape sockets ride the same poll
    // set, after the frame-protocol fds. A scrape waiting to write polls
    // POLLOUT; one still reading its request line polls POLLIN.
    const std::size_t http_listen_at = fds.size();
    if (http_listen_fd_ >= 0) fds.push_back({http_listen_fd_, POLLIN, 0});
    const std::size_t http_base = fds.size();
    const std::size_t http_polled = http_connections_.size();
    for (const HttpConnection& conn : http_connections_) {
      fds.push_back(
          {conn.fd, static_cast<short>(conn.responding ? POLLOUT : POLLIN),
           0});
    }
    const int tick_ms =
        std::max(1, static_cast<int>(config_.tick_seconds * 1e3));
    if (poll_retry(fds.data(), fds.size(), tick_ms) < 0) break;

    if ((fds[1].revents & POLLIN) != 0) drain_wake(wake_fds_[0]);
    drain_completions();
    if ((fds[0].revents & POLLIN) != 0) accept_new_connection();

    // Service readable connections. fds[2 + i] maps to connections_[i]
    // for the first `polled` entries only: accept_new_connection() above
    // may have appended a connection that has no pollfd this round — it
    // is picked up next tick.
    std::vector<int> closing;
    for (std::size_t i = 0; i < polled; ++i) {
      const short revents = fds[2 + i].revents;
      if (revents == 0) continue;
      if (!service_connection(connections_[i])) {
        closing.push_back(static_cast<int>(i));
      }
    }
    for (auto it = closing.rbegin(); it != closing.rend(); ++it) {
      close_socket(connections_[static_cast<std::size_t>(*it)].fd);
      connections_.erase(connections_.begin() + *it);
    }

    if (http_listen_fd_ >= 0 &&
        (fds[http_listen_at].revents & POLLIN) != 0) {
      accept_http_connection();
    }
    std::vector<int> http_closing;
    for (std::size_t i = 0; i < http_polled; ++i) {
      const short revents = fds[http_base + i].revents;
      if (revents == 0) continue;
      if (!service_http_connection(http_connections_[i], revents)) {
        http_closing.push_back(static_cast<int>(i));
      }
    }
    for (auto it = http_closing.rbegin(); it != http_closing.rend(); ++it) {
      close_socket(http_connections_[static_cast<std::size_t>(*it)].fd);
      http_connections_.erase(http_connections_.begin() + *it);
    }
    enforce_deadlines();
  }
  drain(signalled);
  return signalled ? 130 : 0;
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake(wake_fds_[1]);
}

std::size_t Server::active_campaigns() const {
  std::size_t active = 0;
  for (const auto& [id, campaign] : campaigns_) {
    const Campaign::State state = campaign->state();
    if (state == Campaign::State::kRunning ||
        state == Campaign::State::kParking) {
      ++active;
    }
  }
  return active;
}

void Server::accept_new_connection() {
  const int fd = accept_retry(listen_fd_);
  if (fd < 0) return;
  (void)set_send_timeout(fd, config_.send_timeout_seconds);
  if (connections_.size() >= config_.max_connections) {
    // Typed shed: tell the client why before closing, never just drop.
    ++sheds_;
    (void)send(fd, frame_of("busy", {"connection limit reached"}));
    close_socket(fd);
    return;
  }
  Connection conn;
  conn.fd = fd;
  conn.last_activity = clock_.seconds();
  connections_.push_back(std::move(conn));
}

bool Server::service_connection(Connection& conn) {
  std::string payload;
  const FrameStatus status =
      hm::common::read_frame(conn.fd, &payload, config_.frame_read_seconds);
  switch (status) {
    case FrameStatus::kOk: break;
    case FrameStatus::kEof:
      abandon_connection(conn, "client closed without bye");
      return false;
    case FrameStatus::kTimeout:
      abandon_connection(conn, "client stalled mid-frame");
      return false;
    case FrameStatus::kCorrupt:
      abandon_connection(conn, "corrupt frame from client");
      return false;
    case FrameStatus::kError:
      abandon_connection(conn, "socket error");
      return false;
  }
  conn.last_activity = clock_.seconds();
  const auto frame = decode_serve_frame(payload);
  if (!frame) {
    (void)send(conn.fd, frame_of("error", {"undecodable frame"}));
    abandon_connection(conn, "undecodable frame");
    return false;
  }
  return handle_frame(conn, *frame);
}

bool Server::handle_frame(Connection& conn, const ServeFrame& frame) {
  if (frame.kind == "hello") {
    if (frame.fields.size() != 2 ||
        frame.fields[1] !=
            std::to_string(kServeProtocolVersion)) {
      (void)send(conn.fd, frame_of("error", {"protocol version mismatch"}));
      return false;
    }
    conn.greeted = true;
    return send(
        conn.fd,
        frame_of("welcome",
                 {kServerName,
                  std::to_string(kServeProtocolVersion),
                  std::to_string(config_.max_campaigns)}));
  }
  if (frame.kind == "ping") {
    const std::string seq = frame.fields.empty() ? "" : frame.fields[0];
    return send(conn.fd, frame_of("pong", {seq}));
  }
  if (frame.kind == "bye") {
    // Orderly detach: the campaign (if any) keeps running; its report is
    // retrievable later via `resume`.
    conn.campaign.reset();
    return false;
  }
  if (frame.kind == "submit") {
    if (frame.fields.size() != 1) {
      (void)send(conn.fd, frame_of("error", {"submit needs one field"}));
      return true;
    }
    return handle_submit(conn, frame.fields[0], frame.trace_id);
  }
  if (frame.kind == "resume") {
    if (frame.fields.size() != 1) {
      (void)send(conn.fd, frame_of("error", {"resume needs one field"}));
      return true;
    }
    return handle_resume(conn, frame.fields[0], frame.trace_id);
  }
  (void)send(conn.fd, frame_of("error", {"unknown frame kind " + frame.kind}));
  return true;
}

bool Server::handle_submit(Connection& conn, const std::string& scenario_json,
                           std::uint64_t trace_id) {
  if (active_campaigns() >= config_.max_campaigns) {
    ++sheds_;
    FlightRecorder::global().record(FlightEventKind::kShed,
                                    "campaign limit reached");
    return send(conn.fd, frame_of("busy", {"campaign limit reached"}));
  }
  std::string error;
  auto scenario = parse_scenario(scenario_json, &error);
  if (!scenario) {
    return send(conn.fd, frame_of("error", {error}));
  }
  const std::string id = scenario->name;
  const auto existing = campaigns_.find(id);
  if (existing != campaigns_.end() &&
      existing->second->state() != Campaign::State::kDone) {
    return send(conn.fd, frame_of("error", {"campaign " + id + " is active"}));
  }
  auto campaign =
      Campaign::open(config_.journal_dir, std::move(*scenario), &error);
  if (campaign == nullptr) {
    return send(conn.fd, frame_of("error", {error}));
  }
  if (trace_id != 0) {
    // The submit carried a trace context: record daemon-side spans for the
    // campaign under the client's id so its bundle merges into one timeline.
    campaign->set_trace_id(trace_id);
    begin_request_tracing();
  }
  FlightRecorder::global().record(FlightEventKind::kAdmit, id);
  if (!send(conn.fd, frame_of("accepted", {id}))) return false;
  return attach_and_pump(conn, std::shared_ptr<Campaign>(std::move(campaign)));
}

bool Server::handle_resume(Connection& conn, const std::string& id,
                           std::uint64_t trace_id) {
  const auto existing = campaigns_.find(id);
  if (existing != campaigns_.end()) {
    const std::shared_ptr<Campaign>& campaign = existing->second;
    switch (campaign->state()) {
      case Campaign::State::kDone:
        // Report cache: a reconnecting client gets the same bytes.
        return send(conn.fd,
                    frame_of("report", {id,
                                        campaign->interrupted() ? "1" : "0",
                                        campaign->report()}));
      case Campaign::State::kRunning:
      case Campaign::State::kParking: {
        Connection* attached = connection_for(campaign.get());
        if (attached != nullptr && attached != &conn) {
          return send(conn.fd,
                      frame_of("error", {"campaign " + id +
                                         " is attached to another client"}));
        }
        // Orphan (client died / said bye): re-attach live.
        conn.campaign = campaign;
        if (trace_id != 0) {
          campaign->set_trace_id(trace_id);
          begin_request_tracing();
        }
        return send(conn.fd, frame_of("accepted", {id}));
      }
      case Campaign::State::kAdmitted:
      case Campaign::State::kParked: break;  // Re-open from disk below.
    }
  }
  const bool on_disk =
      existing != campaigns_.end() ||
      std::find(recoverable_.begin(), recoverable_.end(), id) !=
          recoverable_.end() ||
      std::filesystem::exists(
          Campaign::sidecar_path(config_.journal_dir, id));
  if (!on_disk) {
    return send(conn.fd, frame_of("error", {"unknown campaign " + id}));
  }
  if (active_campaigns() >= config_.max_campaigns) {
    ++sheds_;
    FlightRecorder::global().record(FlightEventKind::kShed,
                                    "campaign limit reached");
    return send(conn.fd, frame_of("busy", {"campaign limit reached"}));
  }
  std::string error;
  auto campaign = Campaign::recover(config_.journal_dir, id, &error);
  if (campaign == nullptr) {
    return send(conn.fd, frame_of("error", {error}));
  }
  // The journal does not persist trace ids: a resume without one inherits
  // the id of the in-memory object it replaces (parked mid-trace), so the
  // pre-park spans still ship with the final bundle.
  std::uint64_t effective_trace_id = trace_id;
  if (effective_trace_id == 0 && existing != campaigns_.end()) {
    effective_trace_id = existing->second->trace_id();
  }
  if (effective_trace_id != 0) {
    campaign->set_trace_id(effective_trace_id);
    begin_request_tracing();
  }
  FlightRecorder::global().record(FlightEventKind::kResume, id);
  if (!send(conn.fd, frame_of("accepted", {id}))) return false;
  return attach_and_pump(conn, std::shared_ptr<Campaign>(std::move(campaign)));
}

bool Server::attach_and_pump(Connection& conn,
                             std::shared_ptr<Campaign> campaign) {
  campaigns_[campaign->id()] = campaign;
  recoverable_.erase(
      std::remove(recoverable_.begin(), recoverable_.end(), campaign->id()),
      recoverable_.end());
  conn.campaign = campaign;
  if (campaign->state() == Campaign::State::kDone) {
    // Resume of an already-finished journal: report immediately.
    on_campaign_settled(campaign);
    return true;
  }
  pump_campaign(campaign);
  if (campaign->state() != Campaign::State::kRunning) {
    on_campaign_settled(campaign);
  }
  return true;
}

void Server::pump_campaign(const std::shared_ptr<Campaign>& campaign) {
  const std::vector<Campaign::Dispatch> dispatches = campaign->pump();
  for (const Campaign::Dispatch& dispatch : dispatches) {
    // The lambda owns a shared_ptr: a campaign with work in flight cannot
    // be destroyed out from under a pool thread, no matter what the
    // connection does.
    pool_->submit([this, campaign, dispatch]() {
      Completion completion;
      completion.campaign = campaign;
      completion.slot = dispatch.slot;
      completion.outcome = campaign->evaluate(dispatch.config);
      {
        const std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_.push_back(std::move(completion));
      }
      wake(wake_fds_[1]);
    });
  }
}

void Server::drain_completions() {
  std::deque<Completion> batch;
  {
    const std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  std::vector<std::shared_ptr<Campaign>> touched;
  for (Completion& completion : batch) {
    completion.campaign->deliver(completion.slot,
                                 std::move(completion.outcome));
    if (std::find(touched.begin(), touched.end(), completion.campaign) ==
        touched.end()) {
      touched.push_back(completion.campaign);
    }
  }
  for (const std::shared_ptr<Campaign>& campaign : touched) {
    if (campaign->state() == Campaign::State::kRunning &&
        campaign->outstanding() == 0) {
      pump_campaign(campaign);  // Commits the batch, proposes the next.
      if (campaign->state() == Campaign::State::kRunning) {
        if (Connection* conn = connection_for(campaign.get())) {
          (void)send(conn->fd,
                     frame_of("progress",
                              {campaign->id(),
                               std::to_string(campaign->iteration()),
                               std::to_string(campaign->sample_count()),
                               std::to_string(campaign->front_size())}));
        }
      }
    }
    if (campaign->state() == Campaign::State::kDone ||
        campaign->state() == Campaign::State::kParked) {
      on_campaign_settled(campaign);
    }
  }
}

void Server::on_campaign_settled(const std::shared_ptr<Campaign>& campaign) {
  Connection* conn = connection_for(campaign.get());
  if (campaign->state() == Campaign::State::kDone) {
    ++dones_;
    FlightRecorder::global().record(FlightEventKind::kDone, campaign->id(),
                                    campaign->evals_delivered());
    if (conn != nullptr) {
      if (campaign->trace_id() != 0) {
        // Ship the campaign's merged timeline — daemon spans plus any
        // worker spans already ingested from sandbox responses — so the
        // client can fold it into one Chrome trace.
        ServeFrame spans = frame_of(
            "spans",
            {campaign->id(),
             hm::common::encode_span_bundle(campaign->trace_id())});
        spans.trace_id = campaign->trace_id();
        (void)send(conn->fd, spans);
      }
      (void)send(conn->fd,
                 frame_of("report", {campaign->id(),
                                     campaign->interrupted() ? "1" : "0",
                                     campaign->report()}));
      conn->campaign.reset();
    }
    // Shipped (or unclaimable: no attached client ever gets a bundle for a
    // campaign that finished detached) — release the spans either way so
    // daemon memory is bounded by active campaigns, not lifetime evals.
    if (campaign->trace_id() != 0) {
      end_request_tracing(campaign->trace_id());
    }
    return;
  }
  if (campaign->state() == Campaign::State::kParked) {
    ++parks_;
    FlightRecorder::global().record(FlightEventKind::kPark, campaign->id());
    if (conn != nullptr) {
      (void)send(conn->fd,
                 frame_of("parked",
                          {campaign->id(), campaign->park_reason()}));
      conn->campaign.reset();
    }
  }
}

void Server::begin_request_tracing() {
  if (trace_sticky_) return;
  // Request-only first: never a window where untraced work records spans.
  hm::common::set_trace_request_only(true);
  hm::common::set_trace_enabled(true);
}

void Server::end_request_tracing(std::uint64_t trace_id) {
  if (trace_sticky_) return;
  hm::common::drop_trace_spans(trace_id);
  // Parked traced campaigns keep their (already bounded) spans so a later
  // resume completes the timeline; they also keep recording enabled, which
  // with the request-only filter and nothing running costs one relaxed
  // load per span site.
  for (const auto& [id, campaign] : campaigns_) {
    if (campaign->trace_id() != 0 &&
        campaign->state() != Campaign::State::kDone) {
      return;
    }
  }
  hm::common::set_trace_enabled(false);
  hm::common::set_trace_request_only(false);
}

void Server::abandon_connection(Connection& conn, const std::string& reason) {
  if (conn.campaign == nullptr) return;
  const Campaign::State state = conn.campaign->state();
  if (state == Campaign::State::kRunning ||
      state == Campaign::State::kParking) {
    hm::common::log_info() << "hm_serve: parking campaign "
                           << conn.campaign->id() << " (" << reason << ")";
    conn.campaign->park(reason);
    if (conn.campaign->state() == Campaign::State::kParked) {
      ++parks_;
      FlightRecorder::global().record(FlightEventKind::kPark,
                                      conn.campaign->id());
    }
    // With evaluations still in flight the park finalizes later, inside
    // drain_completions, and is counted there.
  }
  conn.campaign.reset();
}

void Server::enforce_deadlines() {
  const double now = clock_.seconds();
  // Scrapers that neither finished their request nor drained the response
  // in time: close them. The response is fully buffered, so a deadline
  // close can never tear a frame-protocol message.
  if (config_.http_deadline_seconds > 0.0) {
    for (auto it = http_connections_.begin();
         it != http_connections_.end();) {
      if (now - it->opened > config_.http_deadline_seconds) {
        close_socket(it->fd);
        it = http_connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Idle clients: the campaign is parked, the socket closed.
  if (config_.client_idle_seconds > 0.0) {
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (now - it->last_activity > config_.client_idle_seconds) {
        abandon_connection(*it, "client idle timeout");
        close_socket(it->fd);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Campaign wall-clock deadlines.
  for (const auto& [id, campaign] : campaigns_) {
    if (campaign->state() == Campaign::State::kRunning &&
        campaign->deadline_expired()) {
      campaign->park("campaign deadline exceeded");
      if (campaign->state() == Campaign::State::kParked) {
        on_campaign_settled(campaign);
      }
    }
  }
}

void Server::drain(bool from_signal) {
  FlightRecorder::global().record(FlightEventKind::kDrain,
                                  from_signal ? "signal" : "stop");
  // Stop admitting first: close the listener (and unlink the UNIX path so
  // a replacement daemon can bind immediately).
  close_socket(listen_fd_);
  listen_fd_ = -1;
  close_socket(http_listen_fd_);
  http_listen_fd_ = -1;
  if (!config_.socket_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(config_.socket_path, ec);
  }
  for (const auto& [id, campaign] : campaigns_) {
    if (campaign->state() == Campaign::State::kRunning) {
      campaign->park("daemon drain");
      if (campaign->state() == Campaign::State::kParked) {
        on_campaign_settled(campaign);
      }
    }
  }
  // Wait for in-flight evaluations to land so every parking campaign
  // finalizes its journal. Bounded: pool evaluations always terminate (the
  // sandbox SIGKILLs overruns; cooperative deadlines classify them).
  while (true) {
    bool outstanding = false;
    for (const auto& [id, campaign] : campaigns_) {
      if (campaign->state() == Campaign::State::kParking) outstanding = true;
    }
    if (!outstanding) break;
    struct pollfd pfd{};
    pfd.fd = wake_fds_[0];
    pfd.events = POLLIN;
    if (poll_retry(&pfd, 1, 100) > 0) drain_wake(wake_fds_[0]);
    drain_completions();
  }
  for (Connection& conn : connections_) {
    conn.campaign.reset();
    close_socket(conn.fd);
  }
  connections_.clear();
  // Scrapes still in flight during the drain: flush whatever is already
  // buffered (best effort, the sockets are non-blocking), then close.
  for (HttpConnection& conn : http_connections_) {
    if (conn.responding && conn.sent < conn.response.size()) {
      (void)write_some(conn.fd, conn.response.data() + conn.sent,
                       conn.response.size() - conn.sent);
    }
    close_socket(conn.fd);
  }
  http_connections_.clear();
  if (!config_.flight_dump_path.empty()) {
    std::string dump_error;
    if (!FlightRecorder::global().dump(config_.flight_dump_path,
                                       &dump_error)) {
      hm::common::log_warn()
          << "hm_serve: flight-recorder dump failed: " << dump_error;
    }
  }
  hm::common::log_info() << "hm_serve: drained ("
                         << (from_signal ? "signal" : "stop") << "): "
                         << dones_ << " done, " << parks_ << " parked, "
                         << sheds_ << " shed";
}

void Server::accept_http_connection() {
  const int fd = accept_retry(http_listen_fd_);
  if (fd < 0) return;
  if (!set_nonblocking(fd)) {
    close_socket(fd);
    return;
  }
  if (http_connections_.size() >= kHttpMaxConnections) {
    // Over the scrape cap: best-effort 503 and close now. Tracking the
    // socket would let a slow-reading flood grow the poll set past the cap
    // and hold fds until the deadline reaper gets to them.
    const std::string reply = http_response(503, "Service Unavailable",
                                            "text/plain; charset=utf-8",
                                            "scrape connection limit reached\n");
    (void)write_some(fd, reply.data(), reply.size());
    close_socket(fd);
    return;
  }
  HttpConnection conn;
  conn.fd = fd;
  conn.opened = clock_.seconds();
  http_connections_.push_back(std::move(conn));
}

bool Server::service_http_connection(HttpConnection& conn, short revents) {
  if (!conn.responding) {
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) return true;
    char buffer[4096];
    while (!conn.responding) {
      const long got = read_some(conn.fd, buffer, sizeof(buffer));
      if (got == kWouldBlock) break;
      if (got < 0) return false;
      if (got == 0) {
        // EOF before a complete request head: nothing to answer.
        if (!http_head_complete(conn.request)) return false;
      } else {
        conn.request.append(buffer, static_cast<std::size_t>(got));
      }
      if (http_head_complete(conn.request)) {
        conn.response = render_http_response(conn.request);
        conn.responding = true;
      } else if (conn.request.size() > kHttpRequestCap) {
        conn.response =
            http_response(414, "Request-URI Too Long",
                          "text/plain; charset=utf-8", "request too long\n");
        conn.responding = true;
      } else if (got == 0) {
        return false;
      }
    }
    if (!conn.responding) return true;
    // Fall through: the response may be writable right now.
  }
  while (conn.sent < conn.response.size()) {
    const long put = write_some(conn.fd, conn.response.data() + conn.sent,
                                conn.response.size() - conn.sent);
    if (put == kWouldBlock) return true;  // Wait for POLLOUT.
    if (put <= 0) return false;  // Half-closed / reset mid-response.
    conn.sent += static_cast<std::size_t>(put);
  }
  return false;  // Fully sent: HTTP/1.0, close.
}

std::string Server::render_http_response(const std::string& request) {
  // Request line: METHOD SP TARGET SP VERSION. Anything shorter is garbage.
  const std::size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(
      0, line_end == std::string::npos ? request.size() : line_end);
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string::npos) {
    return http_response(400, "Bad Request", "text/plain; charset=utf-8",
                         "malformed request line\n");
  }
  const std::string method = line.substr(0, method_end);
  const std::size_t target_end = line.find(' ', method_end + 1);
  std::string target =
      line.substr(method_end + 1, target_end == std::string::npos
                                      ? std::string::npos
                                      : target_end - method_end - 1);
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (method != "GET") {
    return http_response(405, "Method Not Allowed",
                         "text/plain; charset=utf-8",
                         "only GET is supported\n");
  }
  FlightRecorder::global().record(FlightEventKind::kHttpScrape, target);
  if (target == "/metrics") {
    return http_response(200, "OK", "text/plain; version=0.0.4",
                         render_metrics_body());
  }
  if (target == "/status") {
    return http_response(200, "OK", "application/json",
                         render_status_body());
  }
  if (target == "/events") {
    return http_response(200, "OK", "application/json",
                         FlightRecorder::global().to_json());
  }
  return http_response(404, "Not Found", "text/plain; charset=utf-8",
                       "unknown path (try /metrics /status /events)\n");
}

std::string Server::render_metrics_body() {
  // Refresh the per-campaign series at scrape time from the campaign table
  // (the authoritative state) instead of instrumenting every transition.
  auto& registry = hm::common::MetricsRegistry::global();
  registry.gauge("hm_serve_uptime_seconds").set(clock_.seconds());
  registry.gauge("hm_serve_connections")
      .set(static_cast<double>(connections_.size()));
  registry.gauge("hm_serve_campaigns_active")
      .set(static_cast<double>(active_campaigns()));
  registry.gauge("hm_serve_sheds").set(static_cast<double>(sheds_));
  registry.gauge("hm_serve_parks").set(static_cast<double>(parks_));
  registry.gauge("hm_serve_dones").set(static_cast<double>(dones_));
  registry.gauge("hm_serve_pool_threads")
      .set(static_cast<double>(pool_ != nullptr ? pool_->thread_count() : 0));
  registry
      .gauge("hm_serve_flight_events_recorded")
      .set(static_cast<double>(
          hm::common::FlightRecorder::global().recorded()));
  static constexpr Campaign::State kStates[] = {
      Campaign::State::kAdmitted, Campaign::State::kRunning,
      Campaign::State::kParking, Campaign::State::kParked,
      Campaign::State::kDone};
  for (const auto& [id, campaign] : campaigns_) {
    // One series per (campaign, state) with exactly one set to 1, so a
    // scraper sees transitions without the exporter deleting series.
    for (const Campaign::State state : kStates) {
      registry
          .gauge("hm_campaign_state",
                 {{"campaign", id}, {"state", Campaign::to_string(state)}})
          .set(campaign->state() == state ? 1.0 : 0.0);
    }
    registry.gauge("hm_campaign_evals_delivered", {{"campaign", id}})
        .set(static_cast<double>(campaign->evals_delivered()));
    registry.gauge("hm_campaign_retries", {{"campaign", id}})
        .set(static_cast<double>(campaign->retries()));
    registry.gauge("hm_campaign_outstanding", {{"campaign", id}})
        .set(static_cast<double>(campaign->outstanding()));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(
        Campaign::journal_path(config_.journal_dir, id), ec);
    registry.gauge("hm_campaign_journal_bytes", {{"campaign", id}})
        .set(ec ? 0.0 : static_cast<double>(bytes));
  }
  return hm::common::to_prometheus_text(registry.snapshot());
}

std::string Server::render_status_body() {
  hm::common::JsonWriter json;
  json.begin_object().key("server").string(kServerName);
  json.key("uptime_seconds").number(clock_.seconds());
  json.key("connections").integer(connections_.size());
  json.key("scrape_connections").integer(http_connections_.size());
  json.key("pool_threads")
      .integer(pool_ != nullptr ? pool_->thread_count() : 0);
  json.key("sheds").integer(sheds_);
  json.key("parks").integer(parks_);
  json.key("dones").integer(dones_);
  json.key("recoverable").integer(recoverable_.size());
  json.key("flight_events")
      .integer(hm::common::FlightRecorder::global().recorded());
  json.key("campaigns").begin_array();
  for (const auto& [id, campaign] : campaigns_) campaign->write_status(json);
  json.end_array().end_object();
  return json.str();
}

bool Server::send(int fd, const ServeFrame& frame) {
  return hm::common::write_frame(fd, encode_serve_frame(frame));
}

Server::Connection* Server::connection_for(const Campaign* campaign) {
  for (Connection& conn : connections_) {
    if (conn.campaign.get() == campaign) return &conn;
  }
  return nullptr;
}

}  // namespace hm::serve
