// hm_tune: runs one tuning campaign described by a JSON scenario (schema in
// serve/scenario.hpp, examples in examples/scenarios/), in-process or on an
// hm_serve daemon.
//
//   ./hm_tune --scenario examples/scenarios/kfusion_odroid.json --out f.csv
//   ./hm_tune [--dir campaigns] --resume kfusion_odroid [--report out.txt]
//   ./hm_tune --socket /tmp/hm_serve.sock --scenario s.json [--trace t.json]
//   ./hm_tune --port 7421 --resume my-campaign | --ping
//
// In-process, the campaign runs through the same serve::Campaign the daemon
// hosts, journaled into --dir as <id>.scenario.json + <id>.wal, and
// Campaign::run evaluates each batch on the global pool. SIGINT or SIGTERM
// parks it once the evaluations in flight finish; --resume finishes it to
// the byte-identical report. The report goes to --report (atomic) or stdout;
// --out (in-process only) also writes the front CSV adaptive_runtime
// reads. A served --trace is the merged client/daemon/worker timeline.
//
// Exit codes: 0 report received, 2 typed-busy shed (retry later), 3 parked
// (resume later), 130 on SIGINT/SIGTERM before the report arrived, 1 on
// any other error — consistent with every driver binary in the repo.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/signal.hpp"
#include "hypermapper/report.hpp"
#include "observability.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"

namespace {

using hm::common::CliArgs;
using hm::examples::Observability;

[[nodiscard]] std::string read_file_or_inline(const std::string& value) {
  // A value that names a readable file is read; otherwise it is treated as
  // inline JSON.
  std::ifstream in(value, std::ios::binary);
  if (!in) return value;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes the report to --report (atomically) or stdout.
[[nodiscard]] bool emit_report(const CliArgs& args, const std::string& report) {
  const auto path = args.get("report");
  if (!path) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return true;
  }
  std::string error;
  if (hm::common::write_file_atomic(*path, report, &error)) return true;
  hm::common::log_error() << "hm_tune: cannot write " << *path << ": "
                          << error;
  return false;
}

/// Submits the scenario (or resumes a campaign) on a daemon and follows it
/// to the report.
int run_served(const CliArgs& args, const Observability& observability) {
  using hm::serve::Client;
  using hm::serve::ClientResult;
  const double wait = args.get_or("connect-timeout", 5.0);
  const double reply_deadline = args.get_or("reply-timeout", 60.0);
  std::string error;
  std::optional<Client> client;
  if (const auto socket_path = args.get("socket")) {
    client = Client::connect_unix_path(*socket_path, wait, &error);
  } else {
    const std::int64_t port = args.get_or("port", std::int64_t{-1});
    if (port < 1 || port > 65535) {
      hm::common::log_error() << "hm_tune: --port must be in [1, 65535]";
      return 1;
    }
    client = Client::connect_port(static_cast<std::uint16_t>(port), wait,
                                  &error);
  }
  if (!client) {
    hm::common::log_error() << "hm_tune: " << error;
    return 1;
  }
  if (observability.trace_active()) {
    // Propagate one trace id across the daemon and its sandbox workers;
    // the written trace is the merged cross-process timeline.
    client->set_trace_id(hm::common::generate_trace_id());
  }

  if (args.flag("ping")) {
    const bool alive = client->ping(reply_deadline);
    std::printf("hm_tune: daemon %s\n", alive ? "alive" : "unreachable");
    client->bye();
    return alive ? 0 : 1;
  }
  ClientResult result;
  if (const auto id = args.get("resume")) {
    result = client->resume_campaign(*id, reply_deadline);
  } else if (const auto scenario = args.get("scenario")) {
    result = client->run_scenario(read_file_or_inline(*scenario),
                                  reply_deadline);
  } else {
    hm::common::log_error()
        << "hm_tune: need --scenario JSON|PATH or --resume ID";
    return 1;
  }
  switch (result.status) {
    case ClientResult::Status::kReport: {
      hm::common::log_info()
          << "hm_tune: campaign " << result.campaign_id << " done ("
          << result.progress_frames << " progress frames"
          << (result.interrupted ? ", interrupted" : "") << ")";
      if (!emit_report(args, result.report)) return 1;
      // Client-side series for --metrics, labeled like the daemon's
      // exporter so one dashboard can join both ends of a campaign.
      auto& registry = hm::common::MetricsRegistry::global();
      const std::string& id = result.campaign_id;
      registry.counter("hm_client_progress_frames", "campaign", id)
          .increment(result.progress_frames);
      registry.counter("hm_client_report_bytes", "campaign", id)
          .increment(result.report.size());
      client->bye();
      return observability.finish(nullptr) ? 0 : 1;
    }
    case ClientResult::Status::kBusy:
      hm::common::log_error() << "hm_tune: server busy: " << result.message;
      return 2;
    case ClientResult::Status::kParked:
      hm::common::log_error() << "hm_tune: campaign " << result.campaign_id
                              << " parked: " << result.message;
      return 3;
    case ClientResult::Status::kError:
      if (hm::common::shutdown_requested()) return 130;
      hm::common::log_error() << "hm_tune: " << result.message;
      return 1;
  }
  return 1;
}

/// Opens (or recovers) the campaign in --dir.
[[nodiscard]] std::unique_ptr<hm::serve::Campaign> open_local(
    const CliArgs& args, const std::string& dir, std::string* error) {
  using hm::serve::Campaign;
  if (const auto id = args.get("resume")) {
    return Campaign::recover(dir, *id, error);
  }
  const auto text = args.get("scenario");
  if (!text) {
    *error = "need --scenario JSON|PATH or --resume ID";
    return nullptr;
  }
  auto scenario = hm::serve::parse_scenario(read_file_or_inline(*text), error);
  if (!scenario) return nullptr;
  // A fresh run never appends to an existing campaign's journal.
  if (std::filesystem::exists(Campaign::sidecar_path(dir, scenario->name))) {
    *error = "campaign " + scenario->name + " already exists in " + dir +
             "; finish it with --resume " + scenario->name;
    return nullptr;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return Campaign::open(dir, std::move(*scenario), error);
}

/// Runs the campaign in this process: Campaign::run over the global pool.
int run_local(const CliArgs& args, const Observability& observability) {
  using hm::serve::Campaign;
  const std::string dir = args.get_or("dir", std::string("campaigns"));
  std::string error;
  const auto campaign = open_local(args, dir, &error);
  if (campaign == nullptr) {
    hm::common::log_error() << "hm_tune: " << error;
    return 1;
  }

  auto& pool = hm::common::ThreadPool::global();
  campaign->run(&pool, [] { return hm::common::shutdown_requested(); });
  if (campaign->state() != Campaign::State::kDone) {
    hm::common::log_error() << "hm_tune: campaign " << campaign->id()
                            << " parked (" << campaign->park_reason()
                            << "); finish it with --dir " << dir
                            << " --resume " << campaign->id();
    return hm::common::shutdown_requested() ? 130 : 3;
  }
  if (!emit_report(args, campaign->report())) return 1;
  if (const auto out = args.get("out")) {
    const hm::serve::Scenario& scenario = campaign->scenario();
    const auto table = hm::hypermapper::front_to_csv(
        scenario.space, *campaign->result(), scenario.objective_names);
    if (!hm::common::write_csv_file(*out, table)) {
      hm::common::log_error() << "hm_tune: failed to write " << *out;
      return 1;
    }
  }
  return observability.finish(&pool) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"ping"});
  const auto observability = Observability::from_args(args);
  if (!hm::common::install_shutdown_handler()) {
    hm::common::log_warn() << "hm_tune: cannot install signal handlers";
  }
  if (!args.has("socket") && !args.has("port")) {
    return run_local(args, observability);
  }
  if (args.has("out")) {
    hm::common::log_error() << "hm_tune: --out needs an in-process run";
    return 1;
  }
  return run_served(args, observability);
}
