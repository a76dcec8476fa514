// Shared helpers for the serve test suite: a raw frame-level client (for
// chaos cases the polite Client wrapper refuses to perform), scenario JSON
// builders, and the local reference run a served report must match
// byte-for-byte.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <chrono>
#include <thread>

#include "common/frame.hpp"
#include "hypermapper/optimizer.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/scenario.hpp"

namespace hm::serve::testutil {

/// Frame-level client: speaks the wire protocol directly so tests can stop
/// mid-conversation, stall mid-frame, or vanish without a `bye`.
struct RawClient {
  int fd = -1;

  RawClient() = default;
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;
  ~RawClient() { close(); }

  void close() {
    close_socket(fd);
    fd = -1;
  }

  [[nodiscard]] bool connect_port(std::uint16_t port) {
    std::string error;
    fd = connect_tcp(port, 5.0, &error);
    return fd >= 0;
  }

  [[nodiscard]] bool connect_path(const std::string& path) {
    std::string error;
    fd = connect_unix(path, 5.0, &error);
    return fd >= 0;
  }

  [[nodiscard]] bool send(const std::string& kind,
                          std::vector<std::string> fields = {}) {
    ServeFrame frame;
    frame.kind = kind;
    frame.fields = std::move(fields);
    return hm::common::write_frame(fd,
                                    encode_serve_frame(frame));
  }

  [[nodiscard]] std::optional<ServeFrame> read(
      double deadline_seconds) {
    std::string payload;
    if (hm::common::read_frame(fd, &payload, deadline_seconds) !=
        hm::common::FrameStatus::kOk) {
      return std::nullopt;
    }
    return decode_serve_frame(payload);
  }

  /// hello/welcome handshake at the current protocol version.
  [[nodiscard]] bool handshake() {
    if (!send("hello",
              {"raw_test_client",
               std::to_string(kServeProtocolVersion)})) {
      return false;
    }
    const auto welcome = read(5.0);
    return welcome && welcome->kind == "welcome";
  }

  /// Reads frames until `kind` arrives (skipping progress etc.); nullopt on
  /// timeout/close.
  [[nodiscard]] std::optional<ServeFrame> read_until(
      const std::string& kind, double deadline_seconds) {
    while (true) {
      auto frame = read(deadline_seconds);
      if (!frame) return std::nullopt;
      if (frame->kind == kind) return frame;
    }
  }
};

/// A small two-integer-parameter grid scenario (the crash_test problem on a
/// 20x20 grid) with a budget that finishes in well under a second without
/// hangs. `hang_modulo` > 0 slows evaluations down for the chaos/park cases
/// without changing any objective value.
[[nodiscard]] inline std::string grid_scenario(const std::string& name,
                                               std::uint64_t hang_modulo = 0,
                                               double hang_seconds = 0.0) {
  std::string json = "{\"name\": \"" + name + "\", \"seed\": 7, ";
  json +=
      "\"space\": ["
      "{\"kind\": \"integer\", \"name\": \"x\", \"lo\": 0, \"hi\": 19}, "
      "{\"kind\": \"integer\", \"name\": \"y\", \"lo\": 0, \"hi\": 19}], ";
  json +=
      "\"budget\": {\"random_samples\": 12, \"max_iterations\": 2, "
      "\"max_samples_per_iteration\": 6, \"pool_size\": 60, "
      "\"tree_count\": 4}, ";
  json += "\"evaluator\": {\"kind\": \"grid\", \"fail_modulo\": 17, "
          "\"fail_remainder\": 3";
  if (hang_modulo > 0) {
    json += ", \"hang_modulo\": " + std::to_string(hang_modulo) +
            ", \"hang_remainder\": 0, \"hang_seconds\": " +
            std::to_string(hang_seconds);
  }
  json += "}}";
  return json;
}

/// Runs the scenario synchronously in-process and renders the report the
/// way Campaign does. This is the byte-identity reference: the daemon's
/// pooled batch-async run, a parked-and-resumed run, and a crash-recovered
/// run must all land on exactly these bytes.
[[nodiscard]] inline std::string reference_report(
    const std::string& scenario_json) {
  std::string error;
  auto scenario = parse_scenario(scenario_json, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  if (!scenario) return {};
  const auto evaluator = make_scenario_evaluator(*scenario);
  EXPECT_NE(evaluator, nullptr);
  if (evaluator == nullptr) return {};
  hm::hypermapper::Optimizer optimizer(scenario->space, *evaluator,
                                       scenario->config);
  const hm::hypermapper::OptimizationResult result = optimizer.run();
  return Campaign::render_report(scenario->space, result,
                                 scenario->objective_names);
}

/// A KFusion scenario small enough for the sanitizer jobs: 4 rendered
/// frames, 6 random samples and one active-learning iteration of 4.
[[nodiscard]] inline std::string tiny_kfusion_scenario(
    const std::string& name) {
  return "{\"name\": \"" + name +
         "\", \"seed\": 5, "
         "\"evaluator\": {\"kind\": \"kfusion\", \"device\": \"odroid\", "
         "\"frames\": 4}, "
         "\"budget\": {\"random_samples\": 6, \"max_iterations\": 1, "
         "\"max_samples_per_iteration\": 4, \"pool_size\": 200, "
         "\"tree_count\": 4}}";
}

/// Opens the scenario as a fresh local Campaign journaled in `dir`.
[[nodiscard]] inline std::unique_ptr<Campaign> open_local_campaign(
    const std::string& dir, const std::string& scenario_json) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string error;
  auto scenario = parse_scenario(scenario_json, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  if (!scenario) return nullptr;
  auto campaign = Campaign::open(dir, std::move(*scenario), &error);
  EXPECT_NE(campaign, nullptr) << error;
  return campaign;
}

/// Resumes `id` until the campaign lands on a final report. A resume that
/// races a park finalization legitimately sees a `parked` reply first; the
/// retry is part of the protocol, not test slack.
[[nodiscard]] inline ClientResult resume_until_report(std::uint16_t port,
                                                      const std::string& id) {
  ClientResult result;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string error;
    auto client = Client::connect_port(port, 5.0, &error);
    if (!client) {
      ADD_FAILURE() << "connect failed: " << error;
      return result;
    }
    result = client->resume_campaign(id, 60.0);
    if (result.status == ClientResult::Status::kReport) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "campaign " << id << " never produced a report; last: "
                << result.message;
  return result;
}

}  // namespace hm::serve::testutil
