// Observability suite for the serve daemon (ctest label "obs"): the
// HTTP/1.0 scrape listener and the cross-process trace pipeline.
//
// Covered contracts, matching DESIGN.md §12:
//   - `GET /metrics` serves the Prometheus text format with per-campaign
//     labeled series, `GET /status` the JSON campaign table, and
//     `GET /events` the flight-recorder ring;
//   - the scrape listener survives hostile peers: a reader that stalls
//     mid-request is cut off at the deadline, a peer that half-closes
//     before the response is dropped without collateral, an oversized
//     request line gets 414, a non-GET 405, garbage 400 — and after each,
//     the next polite scrape still works;
//   - a scrape in flight during a SIGTERM drain neither blocks nor crashes
//     the drain, and the configured flight-recorder dump is written;
//   - a traced sandbox campaign merges client, daemon, and forked-worker
//     spans into one timeline under a single trace id.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/flight_recorder.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "serve_util.hpp"
#include "../common/valid_utf8.hpp"

// The traced-sandbox case forks evaluation workers from the threaded
// daemon process; ThreadSanitizer does not support fork+threads, so it
// self-skips there (precedent: serve_recovery_test).
#if defined(__SANITIZE_THREAD__)
#define HM_SERVE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HM_SERVE_TEST_TSAN 1
#endif
#endif
#ifndef HM_SERVE_TEST_TSAN
#define HM_SERVE_TEST_TSAN 0
#endif

namespace hm::serve {
namespace {

using testutil::grid_scenario;

/// An in-process daemon with the scrape listener on an ephemeral port.
struct ObsTestServer {
  ServerConfig config;
  std::unique_ptr<Server> server;
  // hm-lint: allow(no-raw-thread) the daemon event loop is the test subject
  std::thread thread;
  int exit_code = -1;

  explicit ObsTestServer(const std::string& tag) {
    config.journal_dir = ::testing::TempDir() + "serve_obs_test_" + tag;
    std::filesystem::remove_all(config.journal_dir);
    config.tick_seconds = 0.01;
    config.http_port = 0;
  }

  ~ObsTestServer() { stop_and_join(); }

  [[nodiscard]] bool start() {
    server = std::make_unique<Server>(config);
    std::string error;
    if (!server->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return false;
    }
    // hm-lint: allow(no-raw-thread) run() must block off the test thread
    thread = std::thread([this] { exit_code = server->run(); });
    return true;
  }

  void stop_and_join() {
    if (thread.joinable()) {
      server->stop();
      thread.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
  [[nodiscard]] std::uint16_t http_port() const {
    return server->http_port();
  }
};

/// Sends raw bytes to the scrape port and reads the reply until EOF (the
/// responder always closes after one exchange, HTTP/1.0 style).
[[nodiscard]] std::string http_exchange(std::uint16_t port,
                                        const std::string& request) {
  std::string error;
  const int fd = connect_tcp(port, 5.0, &error);
  if (fd < 0) {
    ADD_FAILURE() << "scrape connect failed: " << error;
    return {};
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  close_socket(fd);
  return reply;
}

[[nodiscard]] std::string http_get(std::uint16_t port,
                                   const std::string& target) {
  return http_exchange(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

/// Runs one quick grid campaign to completion against `port`.
void run_campaign(std::uint16_t port, const std::string& name) {
  std::string error;
  auto client = Client::connect_port(port, 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const ClientResult result = client->run_scenario(grid_scenario(name), 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  client->bye();
}

TEST(ServeObs, MetricsScrapeServesPerCampaignLabeledSeries) {
  ObsTestServer ts("metrics");
  ASSERT_TRUE(ts.start());
  run_campaign(ts.port(), "obs-metrics");

  const std::string reply = http_get(ts.http_port(), "/metrics");
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE hm_campaign_state gauge"), std::string::npos);
  EXPECT_NE(
      reply.find(
          "hm_campaign_state{campaign=\"obs-metrics\",state=\"done\"} 1"),
      std::string::npos)
      << reply;
  EXPECT_NE(reply.find("hm_campaign_evals_delivered{campaign=\"obs-metrics\"}"),
            std::string::npos);
  EXPECT_NE(reply.find("hm_serve_uptime_seconds"), std::string::npos);
  EXPECT_NE(reply.find("hm_serve_dones 1"), std::string::npos);
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeObs, StatusScrapeServesTheJsonCampaignTable) {
  ObsTestServer ts("status");
  ASSERT_TRUE(ts.start());
  run_campaign(ts.port(), "obs-status");

  const std::string reply = http_get(ts.http_port(), "/status");
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("application/json"), std::string::npos);
  EXPECT_NE(reply.find("\"id\": \"obs-status\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(reply.find("\"evals_delivered\":"), std::string::npos);
  ts.stop_and_join();
}

TEST(ServeObs, EventsScrapeServesTheFlightRecorderRing) {
  ObsTestServer ts("events");
  ASSERT_TRUE(ts.start());
  run_campaign(ts.port(), "obs-events");

  const std::string reply = http_get(ts.http_port(), "/events");
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"events\": ["), std::string::npos);
  // The campaign that just ran left admit/eval/done breadcrumbs in the
  // global ring (shared across this binary; presence, not counts).
  EXPECT_NE(reply.find("\"kind\": \"admit\""), std::string::npos);
  EXPECT_NE(reply.find("\"detail\": \"obs-events\""), std::string::npos);
  ts.stop_and_join();
}

TEST(ServeObs, EventsStayValidUtf8AfterHostileScrapeTargets) {
  ObsTestServer ts("events-utf8");
  ASSERT_TRUE(ts.start());
  // Each scrape target is recorded as a flight event: a lone 0xff, and a
  // two-byte character that the 47-byte detail slot cuts in half.
  EXPECT_NE(http_get(ts.http_port(), "/\xff").find("404"), std::string::npos);
  EXPECT_NE(http_get(ts.http_port(), "/" + std::string(45, 'a') + "\xc3\xa9")
                .find("404"),
            std::string::npos);

  const std::string reply = http_get(ts.http_port(), "/events");
  const std::size_t body = reply.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos) << reply;
  const std::string json = reply.substr(body + 4);
  EXPECT_TRUE(hm::testutil::valid_utf8(json)) << json;
  std::string error;
  const auto document = hm::common::parse_json(json, &error);
  ASSERT_TRUE(document.has_value()) << error << "\n" << json;
  bool saw_cut = false;
  for (const auto& event : document->find("events")->array) {
    saw_cut = saw_cut || event.find("detail")->string ==
                             "/" + std::string(45, 'a') + "\xEF\xBF\xBD";
  }
  EXPECT_TRUE(saw_cut) << json;
  ts.stop_and_join();
}

TEST(ServeObs, RoutingRejectsWhatItMust) {
  ObsTestServer ts("routing");
  ASSERT_TRUE(ts.start());
  const std::uint16_t port = ts.http_port();
  EXPECT_NE(http_exchange(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_exchange(port, "garbage\r\n\r\n").find("400"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(http_get(port, "/metrics?x=1").find("200 OK"), std::string::npos);
  // The daemon is still healthy afterwards.
  EXPECT_NE(http_get(port, "/status").find("200 OK"), std::string::npos);
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeObs, OversizedRequestLineGets414) {
  ObsTestServer ts("oversize");
  ASSERT_TRUE(ts.start());
  const std::string huge = "GET /" + std::string(10'000, 'A') + " HTTP/1.0";
  const std::string reply = http_exchange(ts.http_port(), huge);
  EXPECT_NE(reply.find("414"), std::string::npos) << reply.substr(0, 200);
  EXPECT_NE(http_get(ts.http_port(), "/metrics").find("200 OK"),
            std::string::npos);
  ts.stop_and_join();
}

TEST(ServeObs, SlowLorisRequestIsCutOffAtTheDeadline) {
  ObsTestServer ts("slowloris");
  ts.config.http_deadline_seconds = 0.2;
  ASSERT_TRUE(ts.start());

  std::string error;
  const int fd = connect_tcp(ts.http_port(), 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  // Half a request line, then silence: the daemon must not wait forever.
  const std::string partial = "GET /met";
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  char buffer[64];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n >= 0) break;  // 0 = orderly close by the daemon.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(n, 0) << "daemon never closed the stalled scrape";
  close_socket(fd);
  // And the listener still serves the next polite client.
  EXPECT_NE(http_get(ts.http_port(), "/metrics").find("200 OK"),
            std::string::npos);
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeObs, HalfCloseMidResponseLeavesTheDaemonStanding) {
  ObsTestServer ts("halfclose");
  ASSERT_TRUE(ts.start());
  for (int round = 0; round < 8; ++round) {
    std::string error;
    const int fd = connect_tcp(ts.http_port(), 5.0, &error);
    ASSERT_GE(fd, 0) << error;
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    // Vanish without reading a byte of the response.
    close_socket(fd);
  }
  // The daemon survived all eight rude peers and still answers.
  EXPECT_NE(http_get(ts.http_port(), "/status").find("200 OK"),
            std::string::npos);
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeObs, ScrapeDuringDrainNeitherBlocksNorCrashes) {
  const std::string dump_path =
      ::testing::TempDir() + "serve_obs_drain_flight.json";
  std::filesystem::remove(dump_path);
  ObsTestServer ts("drain");
  ts.config.flight_dump_path = dump_path;
  ASSERT_TRUE(ts.start());
  run_campaign(ts.port(), "obs-drain");

  // A scrape connection opened (request sent, response unread) right as
  // the drain begins: the daemon flushes or drops it, but must exit.
  std::string error;
  const int fd = connect_tcp(ts.http_port(), 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  const std::string request = "GET /events HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  close_socket(fd);

  // The drain wrote the flight-recorder dump, drain breadcrumb included.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << dump_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"kind\": \"drain\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"kind\": \"admit\""), std::string::npos);
  std::filesystem::remove(dump_path);
}

TEST(ServeObs, RequestScopedTracingIsReleasedWhenTheCampaignFinishes) {
  // No process-wide --trace here: the daemon enables recording on behalf
  // of the traced submit and must turn it back off — and free the
  // campaign's spans — once the bundle has shipped, so a long-lived
  // daemon's memory does not grow with evaluation count.
  common::clear_trace();
  ASSERT_FALSE(common::trace_enabled());
  ObsTestServer ts("tracecleanup");
  ASSERT_TRUE(ts.start());

  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  client->set_trace_id(common::generate_trace_id());
  const ClientResult result =
      client->run_scenario(grid_scenario("obs-cleanup"), 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  // The daemon recorded campaign spans under the request id and shipped
  // them as a bundle before the report.
  EXPECT_GE(client->span_bundles_ingested(), 1u);
  client->bye();
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);

  EXPECT_FALSE(common::trace_enabled())
      << "daemon left request tracing enabled after its campaign finished";
  EXPECT_FALSE(common::trace_request_only());
  common::clear_trace();
}

TEST(ServeObs, TracedSandboxCampaignMergesThreeProcessesUnderOneId) {
  if (HM_SERVE_TEST_TSAN) {
    GTEST_SKIP() << "fork+threads is unsupported under ThreadSanitizer";
  }
  common::clear_trace();
  common::set_trace_enabled(true);

  ObsTestServer ts("trace");
  ASSERT_TRUE(ts.start());
  std::string scenario = grid_scenario("obs-trace");
  const std::size_t at = scenario.find("\"evaluator\":");
  ASSERT_NE(at, std::string::npos);
  scenario.insert(at, "\"sandbox\": true, ");

  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const std::uint64_t trace_id = common::generate_trace_id();
  client->set_trace_id(trace_id);
  const ClientResult result = client->run_scenario(scenario, 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  EXPECT_GE(client->span_bundles_ingested(), 1u);
  client->bye();
  ts.stop_and_join();

  // One merged timeline: the client/daemon process plus at least one
  // forked sandbox worker, every span tagged with the campaign's id.
  std::set<std::uint32_t> pids;
  std::set<std::string> names;
  for (const common::RemoteTraceEvent& event :
       common::merged_trace_snapshot()) {
    if (event.trace_id != trace_id) continue;
    pids.insert(event.process_id);
    names.insert(event.name);
  }
  EXPECT_GE(pids.size(), 2u) << "no foreign-process spans merged";
  EXPECT_TRUE(pids.count(static_cast<std::uint32_t>(::getpid())));
  EXPECT_TRUE(names.count("client_campaign")) << "client span missing";
  EXPECT_TRUE(names.count("campaign_eval")) << "daemon span missing";
  EXPECT_TRUE(names.count("worker_eval")) << "sandbox worker span missing";

  common::set_trace_enabled(false);
  common::clear_trace();
}

}  // namespace
}  // namespace hm::serve
