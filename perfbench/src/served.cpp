// The serving-stack probe of elasticfusion_dse's traced run: a closed loop
// of eval_thread_count() clients, in this one process, on a UNIX socket to
// an hm_serve daemon. Each client submits a small synthetic-evaluator
// campaign (sandbox on, journal fsync'd) and sends the next only when the
// report arrived. The campaigns are drawn from kScenarios scenarios
// generated from the workload seed; each one is also run directly
// in-process (its "twin") and every served report must equal its twin's
// byte for byte. Times here are raw wall time.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "campaign_driver.hpp"
#include "common/rng.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/scenario.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace hh = hm::hypermapper;

constexpr std::size_t kScenarios = 16;
constexpr std::size_t kTwinRepeats = 2;
constexpr std::size_t kSandboxProbes = 200;
constexpr std::size_t kMaxCampaigns = 4;  ///< hm_serve's default admission limit.
constexpr double kReplyDeadline = 60.0;

std::uint64_t scenario_seed(std::uint64_t workload_seed, std::size_t k) {
  hm::common::Rng rng(workload_seed * 1000 + k);
  return rng() % 1000000;
}

/// The scenario JSON; only `name` differs between a twin and its served
/// submissions, and the report does not depend on the name.
std::string scenario_json(const std::string& name, std::uint64_t seed) {
  return "{\"name\": \"" + name + "\", \"seed\": " + std::to_string(seed) +
         ", \"objectives\": [\"runtime\", \"error\"], \"space\": ["
         "{\"kind\": \"integer\", \"name\": \"a\", \"lo\": 0, \"hi\": 31}, "
         "{\"kind\": \"integer\", \"name\": \"b\", \"lo\": 0, \"hi\": 31}, "
         "{\"kind\": \"ordinal\", \"name\": \"c\", \"values\": [1, 2, 4, 8, 16], "
         "\"log\": true}, "
         "{\"kind\": \"boolean\", \"name\": \"d\"}, "
         "{\"kind\": \"integer\", \"name\": \"e\", \"lo\": 0, \"hi\": 15}], "
         "\"budget\": {\"random_samples\": 40, \"max_iterations\": 4, "
         "\"max_samples_per_iteration\": 15, \"pool_size\": 2000, "
         "\"tree_count\": 16}, "
         "\"evaluator\": {\"kind\": \"synthetic\"}, \"sandbox\": true}";
}

/// A spawned hm_serve process.
struct Daemon {
  pid_t pid = -1;
  std::string socket;
};

/// Spawns hm_serve on `dir`. Its pid goes to `pid_file`, which
/// perfbench/run.py uses to kill the daemon's process group if this run
/// overruns its time limit.
bool start_daemon(const std::string& dir, const std::string& pid_file,
                  Daemon& daemon, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir + "/campaigns", ec);
  daemon.socket = dir + "/serve.sock";
  const std::string log = dir + "/daemon.log";
  const std::vector<std::string> args = {
      PERFBENCH_HM_SERVE, "--dir", dir + "/campaigns", "--socket", daemon.socket,
      "--pool", std::to_string(eval_thread_count()), "--max-campaigns",
      std::to_string(kMaxCampaigns)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  // Its own process group, so the daemon and every sandbox worker it forks
  // can be stopped together.
  posix_spawnattr_t attributes;
  posix_spawnattr_init(&attributes);
  posix_spawnattr_setflags(&attributes, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attributes, 0);
  const int rc = posix_spawn(&daemon.pid, argv[0], &actions, &attributes,
                             argv.data(), environ);
  posix_spawnattr_destroy(&attributes);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = std::string("cannot spawn hm_serve: ") + std::strerror(rc);
    daemon.pid = -1;
    return false;
  }
  if (std::FILE* f = std::fopen(pid_file.c_str(), "w")) {
    std::fprintf(f, "%d\n", static_cast<int>(daemon.pid));
    std::fclose(f);
  }
  return true;
}

/// True once hm_serve has printed its "listening on" line (after listen()).
bool daemon_listening(const std::string& log_path) {
  std::FILE* f = std::fopen(log_path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  bool listening = false;
  while (!listening && std::fgets(line, sizeof(line), f) != nullptr) {
    listening = std::strstr(line, "hm_serve: listening on") != nullptr;
  }
  std::fclose(f);
  return listening;
}

/// How a daemon stopped.
struct DaemonStop {
  int exit_code = -1;     ///< Exit code, or -signal when killed.
  bool drained = false;   ///< Exited by itself within the grace period.
  double seconds = 0.0;   ///< SIGTERM to exit (or to the kill).
  std::size_t group_processes = 0;  ///< Descendants reaped after it.
};

/// SIGTERM and up to kDrainGrace seconds for the daemon's own drain; then
/// SIGKILL to its whole process group. Every descendant is reaped: this
/// process is a child subreaper, so sandbox workers orphaned by the daemon
/// are re-parented here.
DaemonStop stop_daemon(Daemon& daemon) {
  constexpr double kDrainGrace = 2.0;
  DaemonStop stop;
  if (daemon.pid <= 0) return stop;
  const pid_t group = daemon.pid;
  const double start = now_seconds();
  ::kill(daemon.pid, SIGTERM);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(daemon.pid, &status, WNOHANG);
    if (done == daemon.pid) {
      stop.drained = true;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    if (now_seconds() - start > kDrainGrace) {
      ::kill(-group, SIGKILL);
      while (::waitpid(daemon.pid, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.seconds = now_seconds() - start;
  stop.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  daemon.pid = -1;
  // Anything left in the group (workers a clean drain left behind, or the
  // ones orphaned by the kill) is killed and reaped here.
  const double reap_deadline = now_seconds() + 30.0;
  while (::kill(-group, SIGKILL) == 0 || errno != ESRCH) {
    const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
    if (reaped > 0) {
      ++stop.group_processes;
      continue;
    }
    if (reaped < 0 && errno == ECHILD) break;
    if (now_seconds() > reap_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (::waitpid(-1, nullptr, WNOHANG) > 0) ++stop.group_processes;
  return stop;
}

/// One direct in-process run of a scenario, built the way serve::Campaign
/// builds it: scenario evaluator inside a 2-worker sandbox, fsync'd journal,
/// optimizer without a pool (evaluations dispatched on the bench pool).
struct Twin {
  std::string report;
  CampaignRun run;
  hm::sandbox::SandboxStats sandbox;
  std::string wal;
};

bool run_twin(const std::string& json, const std::string& wal,
              hm::common::ThreadPool& pool, bool traced, Twin& twin,
              std::string* error) {
  auto scenario = hm::serve::parse_scenario(json, error);
  if (!scenario) return false;
  const auto inner = hm::serve::make_scenario_evaluator(*scenario);
  if (inner == nullptr) {
    *error = "no evaluator for scenario";
    return false;
  }
  hm::sandbox::SandboxPolicy policy;
  policy.workers = 2;
  policy.deadline_seconds = scenario->eval_deadline_seconds;
  hm::sandbox::SandboxedEvaluator sandboxed(*inner, policy);
  std::error_code ec;
  std::filesystem::remove(wal, ec);
  hm::common::JournalWriter journal;
  if (!journal.open(wal, error)) return false;
  hh::Optimizer optimizer(scenario->space, sandboxed, scenario->config);
  optimizer.attach_journal(&journal);
  twin.run = drive_campaign(optimizer, &pool, traced);
  journal.close();
  twin.wal = wal;
  twin.sandbox = sandboxed.stats();
  sandboxed.shutdown();
  twin.report = hm::serve::Campaign::render_report(
      scenario->space, twin.run.result, scenario->objective_names);
  return true;
}

/// SandboxedEvaluator::evaluate time minus in-process evaluate time for the
/// same configurations, in seconds.
std::vector<double> sandbox_roundtrips(const std::string& json,
                                       std::uint64_t seed, std::string* error) {
  std::vector<double> out;
  auto scenario = hm::serve::parse_scenario(json, error);
  if (!scenario) return out;
  const auto inner = hm::serve::make_scenario_evaluator(*scenario);
  if (inner == nullptr) return out;
  hm::sandbox::SandboxPolicy policy;
  policy.workers = 2;
  hm::sandbox::SandboxedEvaluator sandboxed(*inner, policy);
  hm::common::Rng rng(seed);
  const auto configs = scenario->space.sample_distinct(kSandboxProbes, rng);
  (void)sandboxed.evaluate(configs.front());  // spawn outside the timing
  for (const hh::Configuration& c : configs) {
    const double t0 = now_seconds();
    (void)sandboxed.evaluate(c);
    const double t1 = now_seconds();
    (void)inner->evaluate(c);
    const double t2 = now_seconds();
    out.push_back((t1 - t0) - (t2 - t1));
  }
  sandboxed.shutdown();
  return out;
}

struct Submission {
  std::size_t scenario = 0;
  double latency = 0.0;
  hm::serve::ClientResult::Status status = hm::serve::ClientResult::Status::kError;
  bool identical = false;
  std::size_t progress_frames = 0;
  std::string message;
};

/// Everything one served measurement observed.
struct ServedPhase {
  std::vector<std::string> jsons;  ///< Twin scenarios, one per scenario.
  std::vector<Twin> twins;         ///< First pass, one per scenario.
  std::vector<double> twin_median; ///< Per scenario.
  std::vector<Submission> submissions;
  double load_wall = 0.0;
  std::size_t clients = 0;
};

/// Starts hm_serve on `dir` and connects `count` clients to it.
bool start_and_connect(const Options& options, const std::string& dir,
                       std::size_t count, Daemon& daemon,
                       std::vector<hm::serve::Client>& clients, Result& out) {
  std::string error;
  const double start = now_seconds();
  if (!start_daemon(dir, options.work_dir + "/daemon.pid", daemon, &error)) {
    out.fail_check(error);
    return false;
  }
  // Connect once the daemon reports it is listening: the client library
  // retries a refused connect only every 20 ms.
  while (!daemon_listening(dir + "/daemon.log") && now_seconds() - start < 30.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::size_t c = 0; c < count; ++c) {
    auto client = hm::serve::Client::connect_unix_path(daemon.socket, 30.0, &error);
    if (!client) {
      out.fail_check("client cannot connect: " + error);
      (void)stop_daemon(daemon);
      return false;
    }
    clients.push_back(std::move(*client));
  }
  return true;
}

/// An idle daemon (started, handshaken, clients gone) must drain on SIGTERM
/// to exit code 130, then direct twins (twice per scenario), then the
/// closed-loop load for `seconds` on a second daemon. Correctness checks go
/// to `out`; false when the phase could not run at all.
bool run_phase(const Options& options, double seconds,
               hm::common::ThreadPool& pool, ServedPhase& phase, Result& out) {
  // Sandbox workers orphaned by a stopped daemon are re-parented to this
  // process, which reaps them (stop_daemon).
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  phase.clients = eval_thread_count();
  std::string error;

  Daemon daemon;
  std::vector<hm::serve::Client> clients;
  if (!start_and_connect(options, options.work_dir + "/serve-idle",
                         phase.clients, daemon, clients, out)) {
    return false;
  }
  for (auto& client : clients) client.bye();
  clients.clear();
  const DaemonStop idle = stop_daemon(daemon);
  if (!idle.drained || idle.exit_code != 130) {
    out.fail_check("idle hm_serve did not drain to exit 130 (exit " +
                   std::to_string(idle.exit_code) + ")");
  }
  std::printf("idle daemon stop: %s after %.3f s (exit %d)\n",
              idle.drained ? "drained" : "drain unfinished, killed",
              idle.seconds, idle.exit_code);
  if (!start_and_connect(options, options.work_dir + "/serve", phase.clients,
                         daemon, clients, out)) {
    return false;
  }

  // Direct twins: reference reports and the uncontended time.
  phase.twin_median.assign(kScenarios, 0.0);
  for (std::size_t k = 0; k < kScenarios; ++k) {
    const std::uint64_t seed = scenario_seed(options.seed, k);
    phase.jsons.push_back(scenario_json("twin-" + std::to_string(k), seed));
    std::vector<double> walls;
    for (std::size_t r = 0; r < kTwinRepeats; ++r) {
      Twin twin;
      const std::string wal = options.work_dir + "/twin-" + std::to_string(k) +
                              "-" + std::to_string(r) + ".wal";
      if (!run_twin(phase.jsons[k], wal, pool, options.trace, twin, &error)) {
        out.fail_check("twin " + std::to_string(k) + ": " + error);
        (void)stop_daemon(daemon);
        return false;
      }
      walls.push_back(twin.run.wall_seconds());
      if (r == 0) {
        phase.twins.push_back(std::move(twin));
      } else if (twin.report != phase.twins[k].report) {
        out.fail_check("twin " + std::to_string(k) + " is not deterministic");
      }
    }
    phase.twin_median[k] = median(walls);
  }

  // Load: closed loop, one client per thread.
  const std::size_t n = phase.clients;
  std::vector<std::vector<Submission>> per_client(n);
  const double load_start = now_seconds();
  const double deadline = load_start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = 0; now_seconds() < deadline; ++i) {
        Submission s;
        s.scenario = (c + i * n) % kScenarios;
        char name[64];
        std::snprintf(name, sizeof(name), "s%zu-c%zu-%zu", s.scenario, c, i);
        const std::string json =
            scenario_json(name, scenario_seed(options.seed, s.scenario));
        const double start = now_seconds();
        const hm::serve::ClientResult r = clients[c].run_scenario(json, kReplyDeadline);
        s.latency = now_seconds() - start;
        s.status = r.status;
        s.progress_frames = r.progress_frames;
        s.identical = r.status == hm::serve::ClientResult::Status::kReport &&
                      r.report == phase.twins[s.scenario].report;
        s.message = r.message;
        const bool dead = r.status == hm::serve::ClientResult::Status::kError;
        per_client[c].push_back(std::move(s));
        if (dead) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.load_wall = now_seconds() - load_start;
  for (auto& client : clients) client.bye();
  clients.clear();
  // Not a check: the drain waits on every sandbox worker the daemon still
  // holds (README, "Known findings"); report how it stopped instead.
  const DaemonStop drain = stop_daemon(daemon);
  std::printf("daemon stop: %s after %.3f s (exit %d), %zu orphaned worker "
              "processes reaped\n",
              drain.drained ? "drained" : "drain unfinished, killed",
              drain.seconds, drain.exit_code, drain.group_processes);

  for (auto& list : per_client) {
    for (Submission& s : list) {
      const Twin& twin = phase.twins[s.scenario];
      out.attempted += 1 + twin.run.evals_attempted;
      if (s.status != hm::serve::ClientResult::Status::kReport) {
        ++out.failed;
        out.fail_check("served campaign of scenario " + std::to_string(s.scenario) +
                       " did not report: " + s.message);
      } else {
        out.failed += twin.run.failed_evals();
        if (!s.identical) {
          out.fail_check("served report of scenario " +
                         std::to_string(s.scenario) + " differs from its twin");
        }
      }
      phase.submissions.push_back(std::move(s));
    }
  }
  return true;
}

/// The serve.* and sandbox.* layers of a served phase.
void add_serve_layers(const Options& options, const ServedPhase& phase,
                      Layers& layers, Result& out) {
  // Per report: client latency minus its scenario's uncontended twin wall.
  std::vector<double> overheads;
  std::size_t progress_frames = 0;
  std::size_t sheds = 0;
  for (const Submission& s : phase.submissions) {
    progress_frames += s.progress_frames;
    if (s.status == hm::serve::ClientResult::Status::kBusy) ++sheds;
    if (s.status == hm::serve::ClientResult::Status::kReport) {
      overheads.push_back(s.latency - phase.twin_median[s.scenario]);
    }
  }
  for (const Twin& twin : phase.twins) {
    layers.sandbox_spawns += static_cast<double>(twin.sandbox.spawns);
    layers.sandbox_recycles += static_cast<double>(twin.sandbox.recycles);
  }
  std::string error;
  const std::vector<double> roundtrips =
      sandbox_roundtrips(phase.jsons[0], options.seed, &error);
  if (roundtrips.empty()) out.fail_check("sandbox probe failed: " + error);
  layers.sandbox_roundtrip_p50_us = 1e6 * percentile(roundtrips, 50.0).value;
  layers.sandbox_roundtrip_p90_us = 1e6 * percentile(roundtrips, 90.0).value;
  layers.serve_overhead_ms = 1e3 * median(overheads);
  layers.serve_progress_frames = static_cast<double>(progress_frames);
  layers.serve_busy_sheds = static_cast<double>(sheds);
  std::printf("served: %zu clients, %zu reports in %.3f s; sandbox probes "
              "n=%zu; serve overhead over n=%zu campaigns\n",
              phase.clients, overheads.size(), phase.load_wall,
              roundtrips.size(), overheads.size());
}

}  // namespace

void serve_probe(const Options& options, double seconds, Layers& layers,
                 Result& out) {
  hm::common::ThreadPool pool(pool_workers());
  ServedPhase phase;
  if (run_phase(options, seconds, pool, phase, out)) {
    add_serve_layers(options, phase, layers, out);
  }
}

}  // namespace perfbench
