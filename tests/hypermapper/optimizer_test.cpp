#include "hypermapper/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "hypermapper/fault_injection.hpp"
#include "hypermapper/report.hpp"

namespace hm::hypermapper {
namespace {

/// Synthetic bi-objective problem on a 2-D grid with a known Pareto front:
/// f0 = x, f1 = (1 - x)^2 + 0.3 (y - 0.5)^2. For fixed x, y = 0.5 is ideal;
/// the front is swept by x.
class SyntheticEvaluator final : public Evaluator {
 public:
  explicit SyntheticEvaluator(const DesignSpace& space) : space_(space) {}

  [[nodiscard]] std::size_t objective_count() const override { return 2; }

  [[nodiscard]] std::vector<double> evaluate(const Configuration& config) override {
    ++calls_;
    const double x = config[0] / 31.0;
    const double y = config[1] / 31.0;
    const double f0 = x;
    const double f1 = (1.0 - x) * (1.0 - x) + 0.3 * (y - 0.5) * (y - 0.5);
    return {f0, f1};
  }

  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  const DesignSpace& space_;
  std::size_t calls_ = 0;
};

DesignSpace grid_space() {
  DesignSpace space;
  space.add(Parameter::integer_range("x", 0, 31));
  space.add(Parameter::integer_range("y", 0, 31));
  return space;
}

OptimizerConfig small_config() {
  OptimizerConfig config;
  config.random_samples = 60;
  config.max_iterations = 4;
  config.max_samples_per_iteration = 40;
  config.pool_size = 1024;  // The whole 32x32 grid.
  config.forest.tree_count = 24;
  config.seed = 17;
  return config;
}

TEST(Optimizer, BootstrapEvaluatesRequestedSamples) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run_random_only();
  EXPECT_EQ(result.samples.size(), 60u);
  EXPECT_EQ(result.random_sample_count(), 60u);
  EXPECT_EQ(result.active_sample_count(), 0u);
  EXPECT_FALSE(result.pareto.empty());
}

TEST(Optimizer, RandomPhaseSamplesAreDistinct) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run_random_only();
  std::unordered_set<std::uint64_t> keys;
  for (const SampleRecord& s : result.samples) keys.insert(space.key(s.config));
  EXPECT_EQ(keys.size(), result.samples.size());
}

TEST(Optimizer, ActiveLearningAddsSamples) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  EXPECT_GT(result.active_sample_count(), 0u);
  EXPECT_EQ(result.samples.size(), evaluator.calls());
  EXPECT_GE(result.iterations.size(), 2u);  // Bootstrap + >= 1 AL iteration.
}

TEST(Optimizer, NeverEvaluatesSameConfigTwice) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  std::unordered_set<std::uint64_t> keys;
  for (const SampleRecord& s : result.samples) {
    EXPECT_TRUE(keys.insert(space.key(s.config)).second)
        << "duplicate evaluation of " << space.to_string(s.config);
  }
}

TEST(Optimizer, ActiveLearningImprovesHypervolumeOverRandomPhase) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();

  std::vector<Objectives> random_points, all_points;
  for (const SampleRecord& s : result.samples) {
    if (s.iteration == 0) random_points.push_back(s.objectives);
    all_points.push_back(s.objectives);
  }
  const Objectives reference{2.0, 2.0};
  const double random_hv = pareto_hypervolume_2d(random_points, reference);
  const double final_hv = pareto_hypervolume_2d(all_points, reference);
  EXPECT_GE(final_hv, random_hv);
  EXPECT_GT(final_hv, 0.0);
}

TEST(Optimizer, FindsNearIdealFront) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  // The ideal front at x=1 reaches f1 = 0.3*(y-0.5)^2 >= 0; the optimizer
  // should find a point with f1 close to 0 at high x.
  double best_f1_at_high_x = 1e9;
  for (const std::size_t i : result.pareto) {
    const Objectives& o = result.samples[i].objectives;
    if (o[0] > 0.9) best_f1_at_high_x = std::min(best_f1_at_high_x, o[1]);
  }
  EXPECT_LT(best_f1_at_high_x, 0.05);
}

TEST(Optimizer, DeterministicForFixedSeed) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator eval_a(space), eval_b(space);
  Optimizer opt_a(space, eval_a, small_config());
  Optimizer opt_b(space, eval_b, small_config());
  const OptimizationResult a = opt_a.run();
  const OptimizationResult b = opt_b.run();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].config, b.samples[i].config);
    EXPECT_EQ(a.samples[i].objectives, b.samples[i].objectives);
  }
}

TEST(Optimizer, DifferentSeedsExploreDifferently) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator eval_a(space), eval_b(space);
  OptimizerConfig config_a = small_config();
  OptimizerConfig config_b = small_config();
  config_b.seed = 999;
  Optimizer opt_a(space, eval_a, config_a);
  Optimizer opt_b(space, eval_b, config_b);
  const OptimizationResult a = opt_a.run_random_only();
  const OptimizationResult b = opt_b.run_random_only();
  EXPECT_NE(a.samples.front().config, b.samples.front().config);
}

TEST(Optimizer, ProgressCallbackInvokedPerIteration) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  std::vector<std::size_t> iterations_seen;
  optimizer.set_progress([&](const IterationStats& stats) {
    iterations_seen.push_back(stats.iteration);
  });
  const OptimizationResult result = optimizer.run();
  ASSERT_EQ(iterations_seen.size(), result.iterations.size());
  EXPECT_EQ(iterations_seen.front(), 0u);
}

TEST(Optimizer, MaxSamplesPerIterationRespected) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  OptimizerConfig config = small_config();
  config.max_samples_per_iteration = 5;
  Optimizer optimizer(space, evaluator, config);
  const OptimizationResult result = optimizer.run();
  for (const IterationStats& stats : result.iterations) {
    if (stats.iteration > 0) {
      EXPECT_LE(stats.new_samples, 5u);
    }
  }
}

TEST(Optimizer, ParetoIndicesAreMutuallyNonDominated) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  for (const std::size_t i : result.pareto) {
    for (const std::size_t j : result.pareto) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(result.samples[i].objectives,
                             result.samples[j].objectives));
    }
  }
}

TEST(Optimizer, ActiveSamplesCarrySurrogatePredictions) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  ASSERT_GT(result.active_sample_count(), 0u);
  for (const SampleRecord& sample : result.samples) {
    if (sample.iteration == 0) {
      EXPECT_TRUE(sample.predicted.empty());
    } else {
      ASSERT_EQ(sample.predicted.size(), 2u);
      // Predictions come from a forest trained on in-range targets, so
      // they must be at least in the objective ballpark.
      EXPECT_GE(sample.predicted[0], -0.5);
      EXPECT_LE(sample.predicted[0], 2.0);
    }
  }
}

TEST(Optimizer, IterationStatsReportPredictionError) {
  const DesignSpace space = grid_space();
  SyntheticEvaluator evaluator(space);
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  bool any_reported = false;
  for (const IterationStats& stats : result.iterations) {
    if (stats.iteration == 0 || stats.new_samples == 0) continue;
    ASSERT_EQ(stats.prediction_error.size(), 2u);
    any_reported = true;
    for (const double error : stats.prediction_error) {
      EXPECT_GE(error, 0.0);
      EXPECT_LT(error, 10.0);  // Relative error, sane magnitude.
    }
  }
  EXPECT_TRUE(any_reported);
}

TEST(Optimizer, SupportsThreeObjectives) {
  class ThreeObjectiveEvaluator final : public Evaluator {
   public:
    [[nodiscard]] std::size_t objective_count() const override { return 3; }
    [[nodiscard]] std::vector<double> evaluate(
        const Configuration& config) override {
      const double x = config[0] / 31.0;
      const double y = config[1] / 31.0;
      return {x, 1.0 - x + 0.1 * y, (x - 0.5) * (x - 0.5) + y};
    }
  };
  const DesignSpace space = grid_space();
  ThreeObjectiveEvaluator evaluator;
  Optimizer optimizer(space, evaluator, small_config());
  const OptimizationResult result = optimizer.run();
  EXPECT_FALSE(result.pareto.empty());
  for (const std::size_t i : result.pareto) {
    ASSERT_EQ(result.samples[i].objectives.size(), 3u);
    for (const std::size_t j : result.pareto) {
      if (i != j) {
        EXPECT_FALSE(dominates(result.samples[j].objectives,
                               result.samples[i].objectives));
      }
    }
  }
}

// --- Fault tolerance (the acceptance scenario of the robustness layer) --

/// Thread-safe variant of the synthetic problem for fault-DSE tests.
class ThreadSafeSynthetic final : public Evaluator {
 public:
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] bool thread_safe() const override { return true; }
  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    const double x = config[0] / 31.0;
    const double y = config[1] / 31.0;
    return {x, (1.0 - x) * (1.0 - x) + 0.3 * (y - 0.5) * (y - 0.5)};
  }
};

FaultSchedule mixed_faults() {
  FaultSchedule schedule;
  // ~10% of configurations misbehave, split across failure classes.
  schedule.exception_rate = 0.04;
  schedule.transient_fraction = 0.5;
  schedule.nan_rate = 0.03;
  schedule.wrong_arity_rate = 0.01;
  schedule.slow_rate = 0.02;
  schedule.slow_seconds = 0.01;
  return schedule;
}

OptimizerConfig fault_config() {
  OptimizerConfig config = small_config();
  config.resilience.max_attempts = 2;
  config.resilience.deadline_seconds = 0.004;
  return config;
}

TEST(OptimizerFaults, DseCompletesUnderInjectedFailures) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultInjectingEvaluator faulty(inner, mixed_faults());
  Optimizer optimizer(space, faulty, fault_config());
  const OptimizationResult result = optimizer.run();

  EXPECT_GT(result.samples.size(), 0u);
  EXPECT_GT(result.quarantine.size(), 0u) << "schedule injected no faults";
  EXPECT_FALSE(result.pareto.empty());
  // Every injected failure class should have been observed at least once
  // across exception/invalid/timeout (not necessarily each individually).
  EXPECT_EQ(result.quarantine.size(),
            result.failure_count(EvaluationStatus::kException) +
                result.failure_count(EvaluationStatus::kInvalidObjectives) +
                result.failure_count(EvaluationStatus::kTimeout));
}

TEST(OptimizerFaults, EachFailedConfigQuarantinedExactlyOnce) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultInjectingEvaluator faulty(inner, mixed_faults());
  Optimizer optimizer(space, faulty, fault_config());
  const OptimizationResult result = optimizer.run();

  ASSERT_GT(result.quarantine.size(), 0u);
  std::unordered_set<std::uint64_t> quarantined;
  for (const QuarantineRecord& record : result.quarantine) {
    EXPECT_TRUE(quarantined.insert(record.key).second)
        << "configuration quarantined twice: "
        << space.to_string(record.config);
    EXPECT_FALSE(record.message.empty());
    EXPECT_GE(record.attempts, 1u);
  }
  // Quarantined configs never appear among the successful samples.
  for (const SampleRecord& sample : result.samples) {
    EXPECT_EQ(quarantined.count(space.key(sample.config)), 0u)
        << "failed configuration was re-proposed and evaluated: "
        << space.to_string(sample.config);
  }
}

TEST(OptimizerFaults, BitIdenticalRerunsForFixedSeed) {
  const DesignSpace space = grid_space();
  OptimizationResult runs[2];
  for (int run = 0; run < 2; ++run) {
    ThreadSafeSynthetic inner;
    FaultInjectingEvaluator faulty(inner, mixed_faults());
    Optimizer optimizer(space, faulty, fault_config());
    runs[run] = optimizer.run();
  }
  ASSERT_EQ(runs[0].samples.size(), runs[1].samples.size());
  for (std::size_t i = 0; i < runs[0].samples.size(); ++i) {
    EXPECT_EQ(runs[0].samples[i].config, runs[1].samples[i].config);
    EXPECT_EQ(runs[0].samples[i].objectives, runs[1].samples[i].objectives);
  }
  ASSERT_EQ(runs[0].quarantine.size(), runs[1].quarantine.size());
  for (std::size_t i = 0; i < runs[0].quarantine.size(); ++i) {
    EXPECT_EQ(runs[0].quarantine[i].key, runs[1].quarantine[i].key);
    EXPECT_EQ(runs[0].quarantine[i].status, runs[1].quarantine[i].status);
    EXPECT_EQ(runs[0].quarantine[i].iteration,
              runs[1].quarantine[i].iteration);
  }
  EXPECT_EQ(runs[0].pareto, runs[1].pareto);
}

TEST(OptimizerFaults, DeterministicUnderParallelEvaluation) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic serial_inner;
  FaultInjectingEvaluator serial_faulty(serial_inner, mixed_faults());
  Optimizer serial(space, serial_faulty, fault_config());
  const OptimizationResult a = serial.run();

  ThreadSafeSynthetic parallel_inner;
  FaultInjectingEvaluator parallel_faulty(parallel_inner, mixed_faults());
  hm::common::ThreadPool pool(4);
  Optimizer threaded(space, parallel_faulty, fault_config(), &pool);
  const OptimizationResult b = threaded.run();

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].config, b.samples[i].config);
    EXPECT_EQ(a.samples[i].objectives, b.samples[i].objectives);
  }
  ASSERT_EQ(a.quarantine.size(), b.quarantine.size());
  for (std::size_t i = 0; i < a.quarantine.size(); ++i) {
    EXPECT_EQ(a.quarantine[i].key, b.quarantine[i].key);
    EXPECT_EQ(a.quarantine[i].status, b.quarantine[i].status);
  }
}

TEST(OptimizerFaults, ParetoFrontContainsOnlyFiniteValidatedPoints) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultSchedule schedule = mixed_faults();
  schedule.nan_rate = 0.15;  // Make NaN corruption common.
  FaultInjectingEvaluator faulty(inner, schedule);
  Optimizer optimizer(space, faulty, fault_config());
  const OptimizationResult result = optimizer.run();
  ASSERT_GT(faulty.injected_nans(), 0u);
  for (const SampleRecord& sample : result.samples) {
    ASSERT_EQ(sample.objectives.size(), 2u);
    for (const double o : sample.objectives) {
      EXPECT_TRUE(std::isfinite(o));
      EXPECT_GE(o, 0.0);
    }
  }
  for (const std::size_t i : result.pareto) {
    for (const double o : result.samples[i].objectives) {
      EXPECT_TRUE(std::isfinite(o));
    }
  }
}

TEST(OptimizerFaults, IterationStatsCountFailures) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultInjectingEvaluator faulty(inner, mixed_faults());
  Optimizer optimizer(space, faulty, fault_config());
  const OptimizationResult result = optimizer.run();
  std::size_t failed_total = 0, new_total = 0;
  for (const IterationStats& stats : result.iterations) {
    failed_total += stats.failed_samples;
    new_total += stats.new_samples;
  }
  EXPECT_EQ(failed_total, result.quarantine.size());
  EXPECT_EQ(new_total, result.samples.size());
}

TEST(OptimizerFaults, TransientFaultsRecoverViaRetry) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultSchedule schedule;
  schedule.exception_rate = 0.2;
  schedule.transient_fraction = 1.0;  // Everything recovers on retry.
  FaultInjectingEvaluator faulty(inner, schedule);
  OptimizerConfig config = small_config();
  config.resilience.max_attempts = 2;
  Optimizer optimizer(space, faulty, config);
  const OptimizationResult result = optimizer.run();
  EXPECT_GT(faulty.injected_exceptions(), 0u);
  EXPECT_TRUE(result.quarantine.empty())
      << "transient-only faults should all recover on retry";
}

TEST(OptimizerFaults, QuarantineReportHasRowPerFailure) {
  const DesignSpace space = grid_space();
  ThreadSafeSynthetic inner;
  FaultInjectingEvaluator faulty(inner, mixed_faults());
  Optimizer optimizer(space, faulty, fault_config());
  const OptimizationResult result = optimizer.run();
  ASSERT_GT(result.quarantine.size(), 0u);
  const hm::common::CsvTable table = quarantine_to_csv(space, result);
  EXPECT_EQ(table.row_count(), result.quarantine.size());
  ASSERT_TRUE(table.column("status").has_value());
  EXPECT_TRUE(table.column("message").has_value());
}

TEST(Optimizer, WorksWithThreadPoolAndThreadSafeEvaluator) {
  class ThreadSafeEvaluator final : public Evaluator {
   public:
    [[nodiscard]] std::size_t objective_count() const override { return 2; }
    [[nodiscard]] bool thread_safe() const override { return true; }
    [[nodiscard]] std::vector<double> evaluate(
        const Configuration& config) override {
      return {config[0], 31.0 - config[0] + 0.1 * config[1]};
    }
  };
  const DesignSpace space = grid_space();
  ThreadSafeEvaluator evaluator;
  hm::common::ThreadPool pool(4);
  Optimizer optimizer(space, evaluator, small_config(), &pool);
  const OptimizationResult result = optimizer.run();
  EXPECT_GT(result.samples.size(), 0u);
  EXPECT_FALSE(result.pareto.empty());
}

}  // namespace
}  // namespace hm::hypermapper
