// hm_serve daemon lifecycle suite (ctest label "serve"): an in-process
// Server on an ephemeral loopback port, driven by real sockets.
//
// Covered contracts, each matching DESIGN.md §11:
//   - a submitted campaign runs to a report byte-identical to a plain
//     synchronous in-process run (the batch-async + thread-pool path adds
//     no divergence), and a served KFusion campaign to the report of a
//     local Campaign run, which a park + recover also reproduces;
//   - overload is shed with a *typed* busy reply and zero leaked campaigns
//     (this binary also runs under ThreadSanitizer via scripts/tsan.sh);
//   - a client that vanishes without `bye`, or stalls mid-frame against the
//     read deadline, gets its campaign parked — and a later resume finishes
//     it byte-identically;
//   - garbage bytes and half-closes kill one connection, never the daemon;
//   - SIGTERM drains (parks in-flight campaigns, notifies clients) and
//     run() returns 130, the repo-wide cooperative-shutdown exit code.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/signal.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve_util.hpp"

namespace hm::serve {
namespace {

using testutil::RawClient;
using testutil::grid_scenario;
using testutil::reference_report;

/// An in-process daemon on an ephemeral loopback port with a fresh journal
/// directory; run() executes on a background thread until stop()/signal.
struct TestServer {
  ServerConfig config;
  std::unique_ptr<Server> server;
  // hm-lint: allow(no-raw-thread) the daemon event loop is the test subject
  std::thread thread;
  int exit_code = -1;

  explicit TestServer(const std::string& tag) {
    config.journal_dir = ::testing::TempDir() + "serve_test_" + tag;
    std::filesystem::remove_all(config.journal_dir);
    config.tick_seconds = 0.01;
  }

  ~TestServer() { stop_and_join(); }

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

  /// Waits for run() to return on its own (signal-initiated exits).
  void join() {
    if (thread.joinable()) thread.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

using testutil::resume_until_report;

TEST(ServeServer, StartStopDrainsCleanly) {
  TestServer ts("start_stop");
  ASSERT_TRUE(ts.start());
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_EQ(ts.server->done_count(), 0u);
  EXPECT_EQ(ts.server->parked_count(), 0u);
  EXPECT_EQ(ts.server->shed_count(), 0u);
}

TEST(ServeServer, SubmittedCampaignReportMatchesADirectRunByteForByte) {
  TestServer ts("submit");
  ASSERT_TRUE(ts.start());
  const std::string scenario = grid_scenario("smoke");
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const ClientResult result = client->run_scenario(scenario, 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  EXPECT_EQ(result.campaign_id, "smoke");
  EXPECT_FALSE(result.interrupted);
  EXPECT_GE(result.progress_frames, 1u);
  EXPECT_EQ(result.report, reference_report(scenario));
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_EQ(ts.server->done_count(), 1u);
  EXPECT_EQ(ts.server->parked_count(), 0u);
  EXPECT_EQ(ts.server->shed_count(), 0u);
}

TEST(ServeServer, ServedKFusionReportMatchesALocalCampaignRun) {
  const std::string scenario = testutil::tiny_kfusion_scenario("kf-tiny");
  const auto local = testutil::open_local_campaign(
      ::testing::TempDir() + "serve_test_kf_local", scenario);
  ASSERT_NE(local, nullptr);
  testutil::drive_campaign(*local);
  ASSERT_EQ(local->state(), Campaign::State::kDone);
  ASSERT_FALSE(local->report().empty());

  TestServer ts("kf_served");
  ASSERT_TRUE(ts.start());
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const ClientResult result = client->run_scenario(scenario, 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  EXPECT_EQ(result.report, local->report());
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeServer, ParkedKFusionCampaignRecoversToTheUninterruptedReport) {
  const std::string scenario = testutil::tiny_kfusion_scenario("kf-park");
  const auto uninterrupted = testutil::open_local_campaign(
      ::testing::TempDir() + "serve_test_kf_whole", scenario);
  ASSERT_NE(uninterrupted, nullptr);
  testutil::drive_campaign(*uninterrupted);
  ASSERT_EQ(uninterrupted->state(), Campaign::State::kDone);

  const std::string dir = ::testing::TempDir() + "serve_test_kf_parked";
  {
    const auto first = testutil::open_local_campaign(dir, scenario);
    ASSERT_NE(first, nullptr);
    testutil::drive_campaign(*first, 1);  // The random bootstrap batch.
    ASSERT_EQ(first->state(), Campaign::State::kRunning);
    first->park("test");
    ASSERT_EQ(first->state(), Campaign::State::kParked);
  }
  std::string error;
  const auto recovered = Campaign::recover(dir, "kf-park", &error);
  ASSERT_NE(recovered, nullptr) << error;
  testutil::drive_campaign(*recovered);
  ASSERT_EQ(recovered->state(), Campaign::State::kDone);
  EXPECT_EQ(recovered->report(), uninterrupted->report());
}

TEST(ServeServer, FinishedCampaignReportIsCachedForLaterClients) {
  TestServer ts("cache");
  ASSERT_TRUE(ts.start());
  const std::string scenario = grid_scenario("cached");
  std::string error;
  auto first = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const ClientResult original = first->run_scenario(scenario, 60.0);
  ASSERT_EQ(original.status, ClientResult::Status::kReport)
      << original.message;
  // A second client asking later gets the same bytes, instantly.
  auto second = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(second.has_value()) << error;
  const ClientResult replay = second->resume_campaign("cached", 5.0);
  ASSERT_EQ(replay.status, ClientResult::Status::kReport) << replay.message;
  EXPECT_EQ(replay.report, original.report);
  EXPECT_FALSE(replay.interrupted);
}

TEST(ServeServer, ResumingAnUnknownCampaignIsATypedError) {
  TestServer ts("unknown");
  ASSERT_TRUE(ts.start());
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const ClientResult result = client->resume_campaign("no-such-campaign", 5.0);
  EXPECT_EQ(result.status, ClientResult::Status::kError);
  EXPECT_NE(result.message.find("unknown campaign"), std::string::npos)
      << result.message;
}

TEST(ServeServer, ProtocolVersionMismatchFailsTheHandshake) {
  TestServer ts("version");
  ASSERT_TRUE(ts.start());
  RawClient raw;
  ASSERT_TRUE(raw.connect_port(ts.port()));
  ASSERT_TRUE(raw.send("hello", {"time_traveller", "999"}));
  const auto reply = raw.read(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, "error");
  // ... and the server hangs up on the stranger.
  EXPECT_FALSE(raw.read(5.0).has_value());
}

TEST(ServeServer, PingPongHeartbeat) {
  TestServer ts("ping");
  ASSERT_TRUE(ts.start());
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  EXPECT_TRUE(client->ping(5.0));
  EXPECT_TRUE(client->ping(5.0));
  client->bye();
}

TEST(ServeServer, OverloadIsShedWithATypedBusyAndNothingLeaks) {
  TestServer ts("overload");
  ts.config.max_campaigns = 1;
  ASSERT_TRUE(ts.start());
  // Campaign A is hang-slowed so it is still running when B arrives.
  const std::string slow = grid_scenario("slow", 2, 0.15);
  RawClient a;
  ASSERT_TRUE(a.connect_port(ts.port()));
  ASSERT_TRUE(a.handshake());
  ASSERT_TRUE(a.send("submit", {slow}));
  ASSERT_TRUE(a.read_until("accepted", 10.0).has_value());

  std::string error;
  auto b = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(b.has_value()) << error;
  const ClientResult shed = b->run_scenario(grid_scenario("second"), 5.0);
  EXPECT_EQ(shed.status, ClientResult::Status::kBusy);
  EXPECT_EQ(shed.message, "campaign limit reached");

  // The shed was a reply, not a casualty: A's campaign still finishes, on
  // the exact reference bytes.
  const auto report = a.read_until("report", 120.0);
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->fields.size(), 3u);
  EXPECT_EQ(report->fields[2], reference_report(slow));
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_EQ(ts.server->shed_count(), 1u);
  EXPECT_EQ(ts.server->done_count(), 1u);
  EXPECT_EQ(ts.server->parked_count(), 0u);  // Zero leaked campaigns.
}

TEST(ServeServer, VanishedClientParksItsCampaignAndResumeIsByteIdentical) {
  TestServer ts("vanish");
  ASSERT_TRUE(ts.start());
  const std::string scenario = grid_scenario("orphan", 2, 0.1);
  {
    RawClient doomed;
    ASSERT_TRUE(doomed.connect_port(ts.port()));
    ASSERT_TRUE(doomed.handshake());
    ASSERT_TRUE(doomed.send("submit", {scenario}));
    ASSERT_TRUE(doomed.read_until("accepted", 10.0).has_value());
    ASSERT_TRUE(doomed.read_until("progress", 30.0).has_value());
    // Vanish mid-campaign: close without `bye`. The server must park the
    // campaign (journal intact), not leak or cancel it.
  }
  const ClientResult resumed = resume_until_report(ts.port(), "orphan");
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.report, reference_report(scenario));
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_GE(ts.server->parked_count(), 1u);
  EXPECT_EQ(ts.server->done_count(), 1u);
}

TEST(ServeServer, StalledWriterHitsTheReadDeadlineAndTheCampaignSurvives) {
  TestServer ts("stall");
  ts.config.frame_read_seconds = 0.3;
  ASSERT_TRUE(ts.start());
  const std::string scenario = grid_scenario("stalled", 2, 0.1);
  RawClient staller;
  ASSERT_TRUE(staller.connect_port(ts.port()));
  ASSERT_TRUE(staller.handshake());
  ASSERT_TRUE(staller.send("submit", {scenario}));
  ASSERT_TRUE(staller.read_until("accepted", 10.0).has_value());
  // Write half a frame header, then stall. The server's poll() sees a
  // readable socket, its framed read times out at frame_read_seconds, and
  // the client is classified dead — the campaign parks instead of leaking.
  const unsigned char partial[4] = {0x20, 0x00, 0x00, 0x00};
  ASSERT_EQ(::write(staller.fd, partial, sizeof partial), 4);
  // The server hangs up on us (progress frames may arrive first).
  while (staller.read(10.0).has_value()) {
  }
  const ClientResult resumed = resume_until_report(ts.port(), "stalled");
  EXPECT_EQ(resumed.report, reference_report(scenario));
  ts.stop_and_join();
  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_GE(ts.server->parked_count(), 1u);
  EXPECT_EQ(ts.server->done_count(), 1u);
}

TEST(ServeServer, GarbageBytesCloseOneConnectionNotTheDaemon) {
  TestServer ts("garbage");
  ASSERT_TRUE(ts.start());
  RawClient vandal;
  ASSERT_TRUE(vandal.connect_port(ts.port()));
  const unsigned char garbage[8] = {0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(vandal.fd, garbage, sizeof garbage), 8);
  EXPECT_FALSE(vandal.read(5.0).has_value());  // Hung up on.
  // The daemon shrugged it off: a polite client still gets full service.
  const std::string scenario = grid_scenario("after_garbage");
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const ClientResult result = client->run_scenario(scenario, 60.0);
  ASSERT_EQ(result.status, ClientResult::Status::kReport) << result.message;
  EXPECT_EQ(result.report, reference_report(scenario));
}

TEST(ServeServer, HalfCloseIsAnOrderlyEof) {
  TestServer ts("half_close");
  ASSERT_TRUE(ts.start());
  RawClient half;
  ASSERT_TRUE(half.connect_port(ts.port()));
  ASSERT_TRUE(half.handshake());
  ASSERT_EQ(::shutdown(half.fd, SHUT_WR), 0);
  EXPECT_FALSE(half.read(5.0).has_value());
  // Still alive for the next client.
  std::string error;
  auto client = Client::connect_port(ts.port(), 5.0, &error);
  ASSERT_TRUE(client.has_value()) << error;
  EXPECT_TRUE(client->ping(5.0));
}

TEST(ServeServer, SigtermDrainsParksInFlightCampaignsAndExits130) {
  hm::common::reset_shutdown_for_test();
  ASSERT_TRUE(hm::common::install_shutdown_handler());
  TestServer ts("sigterm");
  ASSERT_TRUE(ts.start());
  const std::string scenario = grid_scenario("draining", 2, 0.1);
  RawClient attached;
  ASSERT_TRUE(attached.connect_port(ts.port()));
  ASSERT_TRUE(attached.handshake());
  ASSERT_TRUE(attached.send("submit", {scenario}));
  ASSERT_TRUE(attached.read_until("accepted", 10.0).has_value());
  ::raise(SIGTERM);
  // The drain notifies the attached client before closing its socket.
  const auto parked = attached.read_until("parked", 30.0);
  ASSERT_TRUE(parked.has_value());
  ASSERT_EQ(parked->fields.size(), 2u);
  EXPECT_EQ(parked->fields[0], "draining");
  ts.join();
  EXPECT_EQ(ts.exit_code, 130);
  EXPECT_EQ(ts.server->parked_count(), 1u);
  hm::common::reset_shutdown_for_test();
  // The parked journal is not a dead end: a fresh daemon over the same
  // directory finishes the campaign byte-identically.
  TestServer successor("sigterm_successor");
  successor.config.journal_dir = ts.config.journal_dir;  // Same dir, no wipe.
  ASSERT_TRUE(successor.start());
  const ClientResult resumed =
      resume_until_report(successor.port(), "draining");
  EXPECT_EQ(resumed.report, reference_report(scenario));
}

}  // namespace
}  // namespace hm::serve
