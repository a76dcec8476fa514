// Zero-shot configuration transfer: tune once on one device model, then
// deploy the best configuration to a whole population of phones and
// tablets — the paper's crowd-sourcing experiment as an API walkthrough.
//
//   ./crowd_transfer [--frames N] [--devices N] [--installs N]
//                    [--dropout R] [--noisy R] [--noise SIGMA]
//                    [--journal campaign.wal] [--resume]
//                    [--sandbox] [--eval-timeout SECONDS]
//                    [--eval-mem-limit MB]
//                    [--trace out.json] [--metrics out.txt|out.json]
//
// --sandbox/--eval-timeout/--eval-mem-limit run the tuning stage's
// evaluations in forked worker processes with hard kill and resource caps
// (see sandbox_cli.hpp).
//
// --trace/--metrics export the run's spans and counter/histogram snapshot
// (see observability.hpp for the formats).
//
// With --journal, both stages are resumable: the tuning run journals to
// <path>.tune and the per-device campaign to <path>, so a run killed at
// any point — mid-tuning or mid-fleet — restarts with --resume and picks
// up from the last completed evaluation/device. SIGINT stops cleanly at
// the next boundary.
//
// --installs models the paper's crowd funnel (2000 installs -> 83 usable):
// it sets the population size, while --dropout is the fraction of installs
// that never report a usable measurement and --noisy the fraction whose
// timings carry log-normal noise of sigma --noise. Noisy devices stay in
// the pool; the trimmed mean keeps their outliers from skewing the
// aggregate speedup.
#include <cstdio>
#include <optional>
#include <vector>

#include "common/cli.hpp"
#include "common/journal.hpp"
#include "common/log.hpp"
#include "common/signal.hpp"
#include "common/stats.hpp"
#include "crowd/crowd_experiment.hpp"
#include "crowd/device_population.hpp"
#include "dataset/sequence.hpp"
#include "hypermapper/optimizer.hpp"
#include "hypermapper/report.hpp"
#include "kernel_report.hpp"
#include "observability.hpp"
#include "sandbox_cli.hpp"
#include "slambench/adapters.hpp"

int main(int argc, char** argv) {
  using namespace hm;
  const common::CliArgs args(argc, argv, {"resume", "sandbox"});
  const auto observability = examples::Observability::from_args(args);
  const auto frames =
      static_cast<std::size_t>(args.get_or("frames", std::int64_t{25}));
  const auto journal_path = args.get("journal");
  const bool resume = args.flag("resume");
  if (resume && !journal_path) {
    hm::common::log_error() << "--resume requires --journal PATH";
    return 1;
  }

  const auto sequence =
      dataset::make_benchmark_sequence(frames, 80, 60, nullptr, false);
  slambench::KFusionEvaluator evaluator(sequence, slambench::odroid_xu3());

  // --- Tune on the reference embedded device. ---
  std::printf("tuning KFusion on %s...\n", evaluator.device().name.c_str());
  hypermapper::OptimizerConfig config;
  config.random_samples = 60;
  config.max_iterations = 2;
  config.max_samples_per_iteration = 40;
  config.pool_size = 10'000;
  config.forest.tree_count = 32;
  auto sandbox = examples::SandboxCli::from_args(args);
  hypermapper::Evaluator& tuned_evaluator = sandbox.wrap(evaluator);
  // The global pool parallelises batch evaluation (the evaluator is
  // thread-safe); the merge order keeps the result deterministic.
  hypermapper::Optimizer optimizer(evaluator.space(), tuned_evaluator, config,
                                   &common::ThreadPool::global());
  common::JournalWriter tune_journal;
  if (journal_path) {
    std::string journal_error;
    if (!tune_journal.open(*journal_path + ".tune", &journal_error)) {
      hm::common::log_error() << "cannot open journal " << *journal_path
                              << ".tune: " << journal_error;
      return 1;
    }
    optimizer.attach_journal(&tune_journal);
    if (!common::install_shutdown_handler()) {
      hm::common::log_warn() << "cannot install signal handlers";
    }
    optimizer.set_cancel([] { return common::shutdown_requested(); });
  }
  std::optional<hypermapper::OptimizationResult> run_result;
  if (resume) {
    run_result = optimizer.resume(*journal_path + ".tune");
    if (!run_result) {
      hm::common::log_error() << "cannot resume tuning from "
                              << *journal_path << ".tune";
      return 1;
    }
  } else {
    run_result = optimizer.run();
  }
  const auto& result = *run_result;
  if (result.interrupted) {
    std::printf("tuning interrupted after %zu evaluations; rerun with "
                "--journal %s --resume to finish\n",
                result.samples.size(), journal_path->c_str());
    sandbox.report_and_shutdown();
    return 130;
  }
  // The tuning stage is where untrusted configurations run; the fleet
  // replay below only re-measures the chosen one.
  sandbox.report_and_shutdown();

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
  crowd::CrowdResult crowd_result;
  if (journal_path) {
    crowd::CrowdJournalInfo info;
    std::string campaign_error;
    const auto journaled = crowd::run_crowd_experiment_journaled(
        devices, default_metrics.stats, tuned_metrics.stats, frames, flaky,
        *journal_path, &info, &campaign_error,
        [] { return common::shutdown_requested(); });
    if (!journaled) {
      hm::common::log_error() << "campaign journal error: "
                              << campaign_error;
      return 1;
    }
    crowd_result = *journaled;
    if (info.replayed_devices > 0) {
      std::printf("campaign resumed: %zu devices replayed from the journal, "
                  "%zu measured\n",
                  info.replayed_devices, info.measured_devices);
    }
    if (crowd_result.interrupted) {
      // The same cooperative-shutdown code every driver (and hm_serve)
      // exits with; the journal resumes the fleet from the next device.
      std::printf("campaign interrupted after %zu devices; rerun with "
                  "--journal %s --resume to finish\n",
                  info.measured_devices, journal_path->c_str());
      return 130;
    }
  } else {
    crowd_result = crowd::run_crowd_experiment(
        devices, default_metrics.stats, tuned_metrics.stats, frames, flaky);
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
