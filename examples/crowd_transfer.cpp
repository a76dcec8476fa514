// Zero-shot configuration transfer: tune once on one device model, then
// deploy the best configuration to a whole population of phones and
// tablets — the paper's crowd-sourcing experiment as an API walkthrough.
//
//   ./crowd_transfer [--frames N] [--devices N] [--installs N]
//                    [--dropout R] [--noisy R] [--noise SIGMA]
//                    [--dir DIR [--resume]]
//                    [--sandbox] [--eval-timeout SECONDS]
//                    [--trace out.json] [--metrics out.txt|out.json]
//
// The tuning stage is a scenario (serve/scenario.hpp) run through
// serve::Campaign, the way hm_tune runs one: KFusion on the ODROID model
// over a --frames sequence. --sandbox sets its "sandbox" key, running the
// evaluations in forked worker processes, and --eval-timeout its
// "deadlines" key (a timeout implies the sandbox, whose workers enforce it
// with SIGKILL).
//
// --trace/--metrics export the run's spans and counter/histogram snapshot
// (see observability.hpp for the formats).
//
// With --dir, both stages are resumable: the tuning campaign journals into
// DIR as crowd_tune.scenario.json + crowd_tune.wal and the per-device
// campaign into DIR/fleet.wal, so a run killed at any point — mid-tuning or
// mid-fleet — finishes with --dir DIR --resume from the last completed
// evaluation/device. SIGINT stops cleanly at the next boundary. Without
// --dir both journals go to a temporary directory removed at exit.
//
// --installs models the paper's crowd funnel (2000 installs -> 83 usable):
// it sets the population size, while --dropout is the fraction of installs
// that never report a usable measurement and --noisy the fraction whose
// timings carry log-normal noise of sigma --noise. Noisy devices stay in
// the pool; the trimmed mean keeps their outliers from skewing the
// aggregate speedup.
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/signal.hpp"
#include "common/stats.hpp"
#include "crowd/crowd_experiment.hpp"
#include "crowd/device_population.hpp"
#include "dataset/sequence.hpp"
#include "hypermapper/report.hpp"
#include "kernel_report.hpp"
#include "observability.hpp"
#include "serve/campaign.hpp"
#include "slambench/adapters.hpp"

namespace {

constexpr const char* kTuningCampaign = "crowd_tune";

/// The tuning stage's scenario: KFusion on the ODROID model over a
/// `frames`-frame sequence, with this walkthrough's seed and budget.
[[nodiscard]] std::string tuning_scenario(const hm::common::CliArgs& args,
                                          std::size_t frames) {
  const double eval_timeout = args.get_or("eval-timeout", 0.0);
  hm::common::JsonWriter json;
  json.begin_object().key("name").string(kTuningCampaign);
  json.key("seed").integer(42);
  json.key("evaluator").begin_object().key("kind").string("kfusion");
  json.key("device").string("odroid").key("frames").integer(frames);
  json.end_object();
  json.key("budget").begin_object().key("random_samples").integer(60);
  json.key("max_iterations").integer(2);
  json.key("max_samples_per_iteration").integer(40);
  json.key("pool_size").integer(10'000).key("tree_count").integer(32);
  json.end_object();
  json.key("sandbox").boolean(args.flag("sandbox") || eval_timeout > 0.0);
  json.key("deadlines").begin_object().key("eval_seconds").number(eval_timeout);
  json.end_object().end_object();
  return json.str();
}

/// Opens the tuning campaign in `dir`, or recovers it with --resume.
[[nodiscard]] std::unique_ptr<hm::serve::Campaign> open_tuning(
    const hm::common::CliArgs& args, const std::string& dir,
    std::size_t frames, std::string* error) {
  using hm::serve::Campaign;
  if (args.flag("resume")) return Campaign::recover(dir, kTuningCampaign, error);
  // A fresh run never appends to an existing campaign's journal.
  if (std::filesystem::exists(Campaign::sidecar_path(dir, kTuningCampaign))) {
    *error = dir + " already holds a run; finish it with --dir " + dir +
             " --resume";
    return nullptr;
  }
  auto scenario =
      hm::serve::parse_scenario(tuning_scenario(args, frames), error);
  if (!scenario) return nullptr;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return Campaign::open(dir, std::move(*scenario), error);
}

/// A fresh temporary directory, removed with its contents on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "crowd_transfer.XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hm;
  const common::CliArgs args(argc, argv, {"resume", "sandbox"});
  const auto observability = examples::Observability::from_args(args);
  const auto dir_arg = args.get("dir");
  if (args.flag("resume") && !dir_arg) {
    hm::common::log_error() << "--resume requires --dir DIR";
    return 1;
  }
  std::optional<TempDir> temp_dir;
  if (dir_arg) {
    if (!common::install_shutdown_handler()) {
      hm::common::log_warn() << "cannot install signal handlers";
    }
  } else {
    temp_dir.emplace();
    if (temp_dir->path().empty()) {
      hm::common::log_error() << "cannot create a temporary directory";
      return 1;
    }
  }
  const std::string dir = dir_arg ? *dir_arg : temp_dir->path();

  // --- Tune on the reference embedded device. ---
  std::string error;
  const auto tuning = open_tuning(
      args, dir,
      static_cast<std::size_t>(args.get_or("frames", std::int64_t{25})),
      &error);
  if (tuning == nullptr) {
    hm::common::log_error() << "tuning campaign: " << error;
    return 1;
  }
  // A resumed run measures on the sequence the campaign was tuned on.
  const std::size_t frames = tuning->scenario().frames;
  const auto sequence =
      dataset::make_benchmark_sequence(frames, 80, 60, nullptr, false);
  slambench::KFusionEvaluator evaluator(sequence, slambench::odroid_xu3());
  std::printf("tuning KFusion on %s...\n", evaluator.device().name.c_str());
  // The global pool parallelises batch evaluation; the merge order keeps
  // the result deterministic.
  tuning->run(&common::ThreadPool::global(),
              [] { return common::shutdown_requested(); });
  if (tuning->state() != serve::Campaign::State::kDone) {
    std::printf("tuning interrupted; rerun with --dir %s --resume to "
                "finish\n", dir.c_str());
    return 130;
  }
  const hypermapper::OptimizationResult& result = *tuning->result();

  const auto best = hypermapper::best_under_constraint(result, 0, 1, 0.05);
  if (!best) {
    hm::common::log_error() << "no configuration within the 5 cm limit";
    return 1;
  }
  std::printf("best valid configuration on the reference device: %.1f FPS\n",
              1.0 / result.samples[*best].objectives[0]);
  std::printf("  %s\n",
              evaluator.space().to_string(result.samples[*best].config).c_str());

  // --- Transfer: replay both configurations' kernel work on every device. ---
  const auto tuned_metrics = evaluator.measure(result.samples[*best].config);
  const auto default_metrics =
      evaluator.measure(slambench::kfusion_config_from_params(
          evaluator.space(), kfusion::KFusionParams::defaults()));

  crowd::PopulationConfig population_config;
  const auto installs = args.get_or(
      "installs", args.get_or("devices", std::int64_t{83}));
  population_config.device_count = static_cast<std::size_t>(installs);
  const auto devices = crowd::generate_population(population_config);

  crowd::FlakyDeviceModel flaky;
  flaky.dropout_rate = args.get_or("dropout", 0.0);
  flaky.noisy_rate = args.get_or("noisy", 0.0);
  flaky.noise_sigma = args.get_or("noise", flaky.noise_sigma);
  crowd::CrowdJournalInfo info;
  const auto journaled = crowd::run_crowd_experiment_journaled(
      devices, default_metrics.stats, tuned_metrics.stats, frames, flaky,
      dir + "/fleet.wal", &info, &error,
      [] { return common::shutdown_requested(); });
  if (!journaled) {
    hm::common::log_error() << "campaign journal error: " << error;
    return 1;
  }
  const crowd::CrowdResult& crowd_result = *journaled;
  if (info.replayed_devices > 0) {
    std::printf("campaign resumed: %zu devices replayed from the journal, "
                "%zu measured\n",
                info.replayed_devices, info.measured_devices);
  }
  if (crowd_result.interrupted) {
    // The same cooperative-shutdown code every driver (and hm_serve) exits
    // with; the journal resumes the fleet from the next device.
    std::printf("campaign interrupted after %zu devices; rerun with "
                "--dir %s --resume to finish\n",
                info.measured_devices, dir.c_str());
    return 130;
  }

  std::printf("\ncrowd funnel: %zu installs -> %zu usable "
              "(%zu dropped, %zu noisy kept)\n",
              devices.size(), crowd_result.usable_devices,
              crowd_result.dropped_devices, crowd_result.noisy_devices);
  if (crowd_result.devices.empty()) {
    hm::common::log_error()
        << "every device dropped out; nothing to aggregate";
    return 1;
  }
  std::printf("speedup across %zu devices: min %.1fx, median %.1fx, max %.1fx\n",
              crowd_result.devices.size(), crowd_result.min_speedup,
              crowd_result.median_speedup, crowd_result.max_speedup);
  std::printf("robust aggregate: trimmed mean %.1fx (mean %.1fx)\n",
              crowd_result.trimmed_mean_speedup, crowd_result.mean_speedup);
  std::printf("%s", crowd::speedup_histogram(crowd_result).c_str());

  // The transfer-learning caveat from the paper: the correlation holds for
  // similar (ARM-class) devices. Show the per-tier medians.
  for (const char* tier : {"low-tier", "mid-tier", "flagship"}) {
    std::vector<double> speedups;
    for (const auto& entry : crowd_result.devices) {
      if (entry.device_name.rfind(tier, 0) == 0) speedups.push_back(entry.speedup);
    }
    if (!speedups.empty()) {
      std::printf("%-9s (%2zu devices): median speedup %.1fx\n", tier,
                  speedups.size(), common::median(speedups));
    }
  }

  // End-of-run report: the kernel-work profiles whose ratio the whole
  // campaign replays on every device, plus the scheduler counters.
  std::printf("\n");
  examples::print_kernel_stats("default configuration", default_metrics.stats);
  examples::print_kernel_stats("tuned configuration", tuned_metrics.stats);
  examples::print_scheduler_stats(common::ThreadPool::global());
  if (!observability.finish(&common::ThreadPool::global())) return 1;
  return 0;
}
