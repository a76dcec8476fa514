// Sandboxed campaigns in a real daemon (ctest label "serve"). A forked
// hm_serve process runs several sandboxed campaigns at once, so each
// campaign's workers are forked while other campaigns' workers are alive.
// Once every campaign has finished the daemon must have no worker
// children left, and SIGTERM must drain it to exit code 130 within a
// second: a finished campaign stops its workers, and no worker holds a
// copy of another worker's pipes that would keep it from seeing EOF.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/signal.hpp"
#include "serve/server.hpp"
#include "serve_util.hpp"

// Fork-then-thread: the daemon spins up a ThreadPool, which ThreadSanitizer
// does not support after fork; under TSan this binary self-skips.
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

using testutil::RawClient;
using testutil::grid_scenario;

/// Live children of `pid`, from every thread's /proc children list (a
/// worker's parent is whichever daemon thread forked it).
std::vector<int> children_of(int pid) {
  std::vector<int> out;
  std::error_code ec;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(task_dir, ec)) {
    std::ifstream in(task.path() / "children");
    int child = 0;
    while (in >> child) out.push_back(child);
  }
  return out;
}

std::string sandboxed(const std::string& name) {
  std::string scenario = grid_scenario(name);
  scenario.insert(scenario.find("\"evaluator\":"), "\"sandbox\": true, ");
  return scenario;
}

TEST(ServeSandbox, FinishedCampaignsLeaveNoWorkersAndSigtermExitsPromptly) {
  if (HM_SERVE_TEST_TSAN) {
    GTEST_SKIP() << "fork+threads is unsupported under ThreadSanitizer";
  }
  const std::string dir = ::testing::TempDir() + "serve_sandbox";
  const std::string socket_path = ::testing::TempDir() + "serve_sandbox.sock";
  std::filesystem::remove_all(dir);
  std::filesystem::remove(socket_path);

  const pid_t pid = fork();
  if (pid == 0) {
    // Child: the daemon, exiting with run()'s code after its destructors
    // ran, as the hm_serve binary does. No gtest assertions here.
    if (!hm::common::install_shutdown_handler()) _exit(3);
    int code = 1;
    {
      ServerConfig config;
      config.socket_path = socket_path;
      config.journal_dir = dir;
      config.tick_seconds = 0.01;
      Server server(config);
      std::string error;
      if (!server.start(&error)) _exit(3);
      code = server.run();
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);

  // Three rounds of three concurrent sandboxed campaigns. Names sort in
  // reverse submission order, so a daemon that still holds its campaigns
  // at exit destroys the oldest first: the one whose workers' pipes every
  // later worker would have inherited.
  int name_index = 99;
  for (int round = 0; round < 3; ++round) {
    std::vector<RawClient> clients(3);
    for (RawClient& client : clients) {
      ASSERT_TRUE(client.connect_path(socket_path));
      ASSERT_TRUE(client.handshake());
      const std::string name = "sandboxed-" + std::to_string(name_index--);
      ASSERT_TRUE(client.send("submit", {sandboxed(name)}));
    }
    for (RawClient& client : clients) {
      ASSERT_TRUE(client.read_until("report", 60.0).has_value());
    }
  }

  // Every campaign has reported, so no evaluation is in flight: a worker
  // still alive now is a leak.
  std::vector<int> children = children_of(pid);
  for (int i = 0; i < 100 && !children.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    children = children_of(pid);
  }
  EXPECT_TRUE(children.empty()) << children.size() << " worker(s) left";

  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (reaped == 0) {
    ::kill(pid, SIGKILL);
    (void)::waitpid(pid, &status, 0);
  }
  ASSERT_EQ(reaped, pid) << "daemon still running 5 s after SIGTERM";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 130);
  EXPECT_LT(seconds, 1.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hm::serve
