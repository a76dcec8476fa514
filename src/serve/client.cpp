#include "serve/client.hpp"

#include <utility>

#include "common/frame.hpp"
#include "common/trace.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace hm::serve {

namespace {

using hm::common::FrameStatus;

[[nodiscard]] std::optional<ServeFrame> read_serve_frame(int fd,
                                                         double deadline) {
  std::string payload;
  if (hm::common::read_frame(fd, &payload, deadline) != FrameStatus::kOk) {
    return std::nullopt;
  }
  return decode_serve_frame(payload);
}

}  // namespace

bool Client::send_frame(const std::string& kind,
                        std::vector<std::string> fields) {
  ServeFrame frame;
  frame.kind = kind;
  frame.trace_id = trace_id_;
  frame.fields = std::move(fields);
  return hm::common::write_frame(fd_,
                                  encode_serve_frame(frame));
}

Client::~Client() { close_socket(fd_); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close_socket(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<Client> Client::connect_unix_path(const std::string& path,
                                                double wait_seconds,
                                                std::string* error) {
  ignore_sigpipe();
  const int fd = connect_unix(path, wait_seconds, error);
  if (fd < 0) return std::nullopt;
  Client client(fd);
  if (!client.handshake(error)) return std::nullopt;
  return client;
}

std::optional<Client> Client::connect_port(std::uint16_t port,
                                           double wait_seconds,
                                           std::string* error) {
  ignore_sigpipe();
  const int fd = connect_tcp(port, wait_seconds, error);
  if (fd < 0) return std::nullopt;
  Client client(fd);
  if (!client.handshake(error)) return std::nullopt;
  return client;
}

bool Client::handshake(std::string* error) {
  if (!send_frame("hello",
                  {"hm_client",
                   std::to_string(kServeProtocolVersion)})) {
    if (error != nullptr) *error = "cannot send hello";
    return false;
  }
  const auto welcome = read_serve_frame(fd_, 5.0);
  if (!welcome || welcome->kind != "welcome" || welcome->fields.size() != 3 ||
      welcome->fields[1] !=
          std::to_string(kServeProtocolVersion)) {
    if (error != nullptr) *error = "handshake failed";
    return false;
  }
  return true;
}

ClientResult Client::await_settled(double reply_deadline_seconds) {
  ClientResult result;
  while (true) {
    const auto frame = read_serve_frame(fd_, reply_deadline_seconds);
    if (!frame) {
      result.status = ClientResult::Status::kError;
      result.message = "connection lost or reply deadline exceeded";
      return result;
    }
    if (frame->kind == "accepted" && frame->fields.size() == 1) {
      result.campaign_id = frame->fields[0];
      continue;
    }
    if (frame->kind == "progress") {
      ++result.progress_frames;
      continue;
    }
    if (frame->kind == "report" && frame->fields.size() == 3) {
      result.status = ClientResult::Status::kReport;
      result.campaign_id = frame->fields[0];
      result.interrupted = frame->fields[1] == "1";
      result.report = frame->fields[2];
      return result;
    }
    if (frame->kind == "busy") {
      result.status = ClientResult::Status::kBusy;
      result.message = frame->fields.empty() ? "" : frame->fields[0];
      return result;
    }
    if (frame->kind == "parked" && frame->fields.size() == 2) {
      result.status = ClientResult::Status::kParked;
      result.campaign_id = frame->fields[0];
      result.message = frame->fields[1];
      return result;
    }
    if (frame->kind == "error") {
      result.status = ClientResult::Status::kError;
      result.message = frame->fields.empty() ? "" : frame->fields[0];
      return result;
    }
    if (frame->kind == "spans" && frame->fields.size() == 2) {
      // The daemon's merged span bundle for our trace id (its own campaign
      // spans plus any sandbox-worker spans it ingested). Fold it into the
      // local trace store; write_chrome_trace emits the merged timeline.
      if (hm::common::ingest_span_bundle(frame->fields[1])) {
        ++span_bundles_;
      }
      continue;
    }
    // pong or future frame kinds: ignore.
  }
}

ClientResult Client::run_scenario(const std::string& scenario_json,
                                  double reply_deadline_seconds) {
  const hm::common::TraceContext trace_context(trace_id_);
  const hm::common::TraceSpan span("client_campaign", "client");
  if (!send_frame("submit", {scenario_json})) {
    ClientResult result;
    result.message = "cannot send submit";
    return result;
  }
  return await_settled(reply_deadline_seconds);
}

ClientResult Client::resume_campaign(const std::string& id,
                                     double reply_deadline_seconds) {
  const hm::common::TraceContext trace_context(trace_id_);
  const hm::common::TraceSpan span("client_campaign", "client");
  if (!send_frame("resume", {id})) {
    ClientResult result;
    result.message = "cannot send resume";
    return result;
  }
  return await_settled(reply_deadline_seconds);
}

bool Client::ping(double reply_deadline_seconds) {
  const std::string seq = std::to_string(++ping_seq_);
  if (!send_frame("ping", {seq})) return false;
  while (true) {
    const auto frame = read_serve_frame(fd_, reply_deadline_seconds);
    if (!frame) return false;
    if (frame->kind == "pong") {
      return !frame->fields.empty() && frame->fields[0] == seq;
    }
    // Progress or other frames may interleave; keep waiting for the pong.
  }
}

void Client::bye() {
  if (fd_ >= 0) (void)send_frame("bye", {});
}

}  // namespace hm::serve
