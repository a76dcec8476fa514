// Behavioral tests for the process sandbox (ctest label "sandbox"):
//
//   - the acceptance criterion — a seeded configuration evaluated in-process
//     and inside a worker produces *identical* objective vectors (IEEE-754
//     bit patterns compared, not approximate equality);
//   - the chaos matrix: segfault, abort, hang, memory exhaustion, and
//     protocol garbage are each contained, reaped, and classified into the
//     correct typed EvaluationOutcome;
//   - supervised recovery: worker recycling, seeded backoff, and the
//     circuit breaker degrading to in-process evaluation;
//   - a full optimizer campaign over a design space with crashing corners
//     that completes, quarantining the offenders.
#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstdint>
#include <ctime>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/checkpoint.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "hypermapper/optimizer.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "sandbox/sandbox.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HM_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HM_SANITIZER_BUILD 1
#endif
#endif

namespace hm::sandbox {
namespace {

using hm::hypermapper::Configuration;
using hm::hypermapper::EvaluationOutcome;
using hm::hypermapper::EvaluationStatus;
using hm::hypermapper::ResiliencePolicy;
using hm::hypermapper::ResilientEvaluator;

/// Deterministic, well-behaved bi-objective evaluator. evaluate_retry folds
/// the nonce into the result so the test can prove the nonce crosses the
/// pipe intact.
class GridEvaluator final : public hm::hypermapper::Evaluator {
 public:
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    const double x = config[0];
    const double y = config.size() > 1 ? config[1] : 0.0;
    return {x * x + y / 7.0 + 0.125, (1.0 - x) * (1.0 - x) + 0.25 * y};
  }

  [[nodiscard]] std::vector<double> evaluate_retry(
      const Configuration& config, std::uint64_t nonce) override {
    std::vector<double> objectives = evaluate(config);
    objectives[0] += static_cast<double>(nonce % 1024) / 65536.0;
    return objectives;
  }
};

/// Fault-injecting evaluator: the first configuration value selects the
/// failure mode, so tests (and the chaos campaign) can address each fault
/// from the design space.
enum ChaosMode : int {
  kChaosOk = 0,
  kChaosSegv = 1,
  kChaosAbort = 2,
  kChaosHang = 3,
  kChaosOom = 4,
  kChaosGarbageProtocol = 5,
  kChaosTransientThenOk = 6,
  kChaosPermanentError = 7,
};

class ChaosEvaluator final : public hm::hypermapper::Evaluator {
 public:
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    return run(config, /*nonce=*/0);
  }
  [[nodiscard]] std::vector<double> evaluate_retry(
      const Configuration& config, std::uint64_t /*nonce*/) override {
    return run(config, /*nonce=*/1);
  }

 private:
  std::vector<double> run(const Configuration& config, std::uint64_t nonce) {
    const int mode = static_cast<int>(config[0]);
    const double x = config.size() > 1 ? config[1] : 0.0;
    switch (mode) {
      case kChaosSegv: {
        volatile int* null = nullptr;
        *null = 42;  // Real SIGSEGV, not a simulated exception.
        break;
      }
      case kChaosAbort:
        std::abort();
      case kChaosHang:
        // Spin "forever" (bounded so a broken deadline cannot wedge the
        // suite); the supervisor must SIGKILL us long before this ends.
        for (int i = 0; i < 20000; ++i) {
          ::timespec delay{0, 1000000};  // 1 ms
          ::nanosleep(&delay, nullptr);
        }
        break;
      case kChaosOom: {
        // Exhaust RLIMIT_AS: keep allocating and touching pages.
        std::vector<std::vector<char>> hoard;
        for (;;) {
          hoard.emplace_back(std::size_t{64} << 20, '\1');
        }
        break;
      }
      case kChaosGarbageProtocol: {
        const int fd = worker_response_fd();
        if (fd >= 0) {
          // Non-frame bytes straight into the response pipe; the
          // supervisor must classify the stream as corrupt.
          (void)hm::common::write_fd_all(fd, "GARBAGE!not-a-frame");
        }
        break;  // Falls through to a "valid" response after the garbage.
      }
      case kChaosTransientThenOk:
        if (nonce == 0) {
          throw hm::hypermapper::EvaluationError("injected transient loss",
                                                 /*transient=*/true);
        }
        break;
      case kChaosPermanentError:
        throw hm::hypermapper::EvaluationError("injected permanent failure",
                                               /*transient=*/false);
      default:
        break;
    }
    return {0.5 + x / 100.0, 1.5 - x / 100.0};
  }
};

/// Bitwise render of an objective vector via the journal codec — the same
/// representation byte-identical resume is judged by.
std::string bits(const std::vector<double>& objectives) {
  std::string out;
  for (const double value : objectives) {
    out += hm::common::encode_double(value);
    out += '|';
  }
  return out;
}

TEST(SandboxDeterminismTest, SandboxedObjectivesAreBitIdenticalToInProcess) {
  GridEvaluator reference;
  GridEvaluator inner;
  SandboxPolicy policy;
  policy.workers = 2;
  SandboxedEvaluator sandboxed(inner, policy);
  for (int i = 0; i < 12; ++i) {
    const Configuration config{static_cast<double>(i) / 11.0,
                               static_cast<double>((i * 7) % 5)};
    EXPECT_EQ(bits(sandboxed.evaluate(config)), bits(reference.evaluate(config)))
        << "config " << i;
  }
  EXPECT_FALSE(sandboxed.circuit_open());
  EXPECT_EQ(sandboxed.stats().worker_deaths, 0u);
}

TEST(SandboxDeterminismTest, RetryNonceCrossesThePipeIntact) {
  GridEvaluator reference;
  GridEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  const Configuration config{0.25, 3.0};
  for (const std::uint64_t nonce : {std::uint64_t{1}, std::uint64_t{977},
                                    std::uint64_t{0xfeedfacecafeULL}}) {
    EXPECT_EQ(bits(sandboxed.evaluate_retry(config, nonce)),
              bits(reference.evaluate_retry(config, nonce)));
  }
}

TEST(SandboxChaosTest, SegfaultIsContainedAndClassifiedException) {
  ChaosEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  ResilientEvaluator supervisor(sandboxed, ResiliencePolicy{});
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosSegv, 0.0});
  EXPECT_EQ(outcome.status, EvaluationStatus::kException);
  EXPECT_EQ(outcome.attempts, 1u);  // Permanent: no retry burned.
  // Plain build: "killed by signal 11"; sanitizer builds report and exit
  // non-zero instead. Both are worker deaths attributed to the config.
  EXPECT_EQ(outcome.message.rfind("sandbox: worker", 0), 0u)
      << outcome.message;
  EXPECT_GE(sandboxed.stats().worker_deaths, 1u);
  // The pool must still be usable afterwards.
  EXPECT_EQ(bits(sandboxed.evaluate({kChaosOk, 1.0})),
            bits(ChaosEvaluator{}.evaluate({kChaosOk, 1.0})));
}

TEST(SandboxChaosTest, AbortIsContainedAndClassifiedException) {
  ChaosEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  ResilientEvaluator supervisor(sandboxed, ResiliencePolicy{});
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosAbort, 0.0});
  EXPECT_EQ(outcome.status, EvaluationStatus::kException);
  EXPECT_EQ(outcome.message.rfind("sandbox: worker", 0), 0u)
      << outcome.message;
  EXPECT_GE(sandboxed.stats().worker_deaths, 1u);
}

TEST(SandboxChaosTest, HangIsKilledAtTheHardDeadline) {
  ChaosEvaluator inner;
  SandboxPolicy policy;
  policy.deadline_seconds = 0.25;
  SandboxedEvaluator sandboxed(inner, policy);
  ResilientEvaluator supervisor(sandboxed, ResiliencePolicy{});
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosHang, 0.0});
  EXPECT_EQ(outcome.status, EvaluationStatus::kTimeout);
  EXPECT_EQ(outcome.attempts, 1u);  // retry_timeouts defaults to false.
  // The message is a function of the *configured* deadline, never of
  // measured time — byte-identical resume depends on this.
  EXPECT_NE(outcome.message.find("hard deadline"), std::string::npos);
  EXPECT_NE(outcome.message.find("0.25"), std::string::npos);
  const SandboxStats stats = sandboxed.stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.kills, 1u);
  // A fresh worker serves the next evaluation.
  EXPECT_EQ(bits(sandboxed.evaluate({kChaosOk, 2.0})),
            bits(ChaosEvaluator{}.evaluate({kChaosOk, 2.0})));
}

TEST(SandboxChaosTest, TimeoutsAreRetriedWhenPolicySaysSo) {
  ChaosEvaluator inner;
  SandboxPolicy policy;
  policy.deadline_seconds = 0.2;
  SandboxedEvaluator sandboxed(inner, policy);
  ResiliencePolicy resilience;
  resilience.max_attempts = 2;
  resilience.retry_timeouts = true;
  ResilientEvaluator supervisor(sandboxed, resilience);
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosHang, 0.0});
  EXPECT_EQ(outcome.status, EvaluationStatus::kTimeout);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_GE(sandboxed.stats().timeouts, 2u);
}

TEST(SandboxChaosTest, MemoryCeilingContainsAllocationRunaway) {
#if defined(HM_SANITIZER_BUILD)
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow reservations";
#else
  ChaosEvaluator inner;
  SandboxPolicy policy;
  policy.memory_limit_mb = 256;
  // Belt and braces: if RLIMIT_AS somehow failed to stop the hoard, the
  // hard deadline still would.
  policy.deadline_seconds = 20.0;
  SandboxedEvaluator sandboxed(inner, policy);
  ResilientEvaluator supervisor(sandboxed, ResiliencePolicy{});
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosOom, 0.0});
  // Either the child catches bad_alloc (clean err response) or it dies
  // outright; both are kException, and neither may harm the supervisor.
  EXPECT_EQ(outcome.status, EvaluationStatus::kException);
  EXPECT_EQ(bits(sandboxed.evaluate({kChaosOk, 3.0})),
            bits(ChaosEvaluator{}.evaluate({kChaosOk, 3.0})));
#endif
}

TEST(SandboxChaosTest, ProtocolGarbageIsTransientAndExhaustsRetries) {
  ChaosEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  ResiliencePolicy resilience;
  resilience.max_attempts = 2;
  ResilientEvaluator supervisor(sandboxed, resilience);
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosGarbageProtocol, 0.0});
  // Corruption is transient (retried with a fresh worker); a deterministic
  // corrupter therefore burns every attempt and quarantines.
  EXPECT_EQ(outcome.status, EvaluationStatus::kException);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_NE(outcome.message.find("protocol"), std::string::npos)
      << outcome.message;
  EXPECT_GE(sandboxed.stats().protocol_errors, 2u);
}

TEST(SandboxChaosTest, TransientEvaluatorFailuresRetrySuccessfully) {
  ChaosEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  ResilientEvaluator supervisor(sandboxed, ResiliencePolicy{});
  const EvaluationOutcome outcome =
      supervisor.evaluate_outcome({kChaosTransientThenOk, 4.0});
  // The transient flag crossed the pipe, the retry carried a nonce, and
  // the worker survived both attempts (no respawn needed).
  EXPECT_EQ(outcome.status, EvaluationStatus::kOk);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(sandboxed.stats().worker_deaths, 0u);
}

TEST(SandboxRecoveryTest, WorkersAreRecycledAfterMaxEvals) {
  GridEvaluator inner;
  SandboxPolicy policy;
  policy.max_evals_per_worker = 2;
  SandboxedEvaluator sandboxed(inner, policy);
  GridEvaluator reference;
  for (int i = 0; i < 7; ++i) {
    const Configuration config{static_cast<double>(i), 1.0};
    EXPECT_EQ(bits(sandboxed.evaluate(config)),
              bits(reference.evaluate(config)));
  }
  const SandboxStats stats = sandboxed.stats();
  EXPECT_GE(stats.recycles, 3u);  // 7 evals / 2 per worker.
  EXPECT_GE(stats.spawns, 4u);
  EXPECT_EQ(stats.worker_deaths, 0u);  // Recycling is not a death.
}

TEST(SandboxRecoveryTest, CircuitBreakerDegradesToInProcessEvaluation) {
  GridEvaluator inner;
  SandboxPolicy policy;
  policy.circuit_failure_threshold = 3;
  policy.inject_spawn_failures_for_test = 3;
  policy.backoff_base_seconds = 0.001;
  policy.backoff_max_seconds = 0.004;
  SandboxedEvaluator sandboxed(inner, policy);
  GridEvaluator reference;
  const Configuration config{0.5, 2.0};
  // The evaluation must still succeed — degraded, not dead.
  EXPECT_EQ(bits(sandboxed.evaluate(config)), bits(reference.evaluate(config)));
  EXPECT_TRUE(sandboxed.circuit_open());
  const SandboxStats stats = sandboxed.stats();
  EXPECT_TRUE(stats.circuit_open);
  EXPECT_GE(stats.fallbacks, 1u);
  EXPECT_GE(stats.backoffs, 1u);  // Backoff ran between spawn attempts.
  EXPECT_EQ(stats.spawns, 0u);    // No spawn ever succeeded.
  // Once open, the breaker stays open: further evaluations fall back too.
  EXPECT_EQ(bits(sandboxed.evaluate(config)), bits(reference.evaluate(config)));
  EXPECT_GE(sandboxed.stats().fallbacks, 2u);
}

TEST(SandboxRecoveryTest, PoolIsUsableAgainAfterShutdown) {
  GridEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  const Configuration config{0.75, 1.0};
  const std::string before = bits(sandboxed.evaluate(config));
  sandboxed.shutdown();
  // Shutdown drains and reaps; the next evaluation respawns lazily.
  EXPECT_EQ(bits(sandboxed.evaluate(config)), before);
  EXPECT_GE(sandboxed.stats().spawns, 2u);
}

/// Inner evaluator that bumps a child-side metrics counter; the supervisor
/// must fold the delta into the parent registry.
class CountingEvaluator final : public hm::hypermapper::Evaluator {
 public:
  [[nodiscard]] std::size_t objective_count() const override { return 1; }
  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    hm::common::MetricsRegistry::global()
        .counter("hm_test_sandbox_child_ops_total")
        .increment(3);
    return {config[0] + 1.0};
  }
};

TEST(SandboxMetricsTest, ChildCounterDeltasAreFoldedIntoTheParent) {
  auto& counter = hm::common::MetricsRegistry::global().counter(
      "hm_test_sandbox_child_ops_total");
  const std::uint64_t before = counter.value();
  CountingEvaluator inner;
  SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
  (void)sandboxed.evaluate({1.0});
  (void)sandboxed.evaluate({2.0});
  EXPECT_EQ(counter.value(), before + 6);
}

#if HM_TRACE_ENABLED

TEST(SandboxTraceTest, WorkerSpanNamesOutliveTheEvaluator) {
  // A settled serve campaign destroys its sandbox before the trace is
  // written; the recorded spans must still name their worker.
  hm::common::set_trace_enabled(false);
  hm::common::clear_trace();
  hm::common::set_trace_enabled(true);
  {
    GridEvaluator inner;
    SandboxedEvaluator sandboxed(inner, SandboxPolicy{});
    (void)sandboxed.evaluate({0.5, 1.0});
  }
  // Reuse the freed heap, so a dangling name would read as garbage.
  const std::vector<std::string> churn(64, std::string(40, 'x'));
  std::size_t worker_spans = 0;
  for (const hm::common::TraceEvent& event : hm::common::trace_snapshot()) {
    if (std::string_view(event.category) != "sandbox") continue;
    EXPECT_STREQ(event.name, "sandbox_worker_0");
    ++worker_spans;
  }
  hm::common::set_trace_enabled(false);
  hm::common::clear_trace();
  EXPECT_EQ(worker_spans, 1u);
}

#endif  // HM_TRACE_ENABLED

TEST(SandboxCampaignTest, OptimizerCompletesOverACrashingDesignSpace) {
  using hm::hypermapper::DesignSpace;
  using hm::hypermapper::Optimizer;
  using hm::hypermapper::OptimizerConfig;
  using hm::hypermapper::Parameter;

  // Mode axis deliberately includes segfaulting, aborting, and erroring
  // corners; the campaign must quarantine them and still finish.
  DesignSpace space;
  space.add(Parameter::integer_range("mode", 0, 2));  // ok / segv / abort
  space.add(Parameter::integer_range("x", 0, 19));

  ChaosEvaluator inner;
  SandboxPolicy policy;
  policy.workers = 2;
  policy.max_evals_per_worker = 16;
  SandboxedEvaluator sandboxed(inner, policy);

  OptimizerConfig config;
  config.random_samples = 14;
  config.max_iterations = 2;
  config.max_samples_per_iteration = 6;
  config.pool_size = 40;
  config.forest.tree_count = 4;
  config.seed = 2026;

  Optimizer optimizer(space, sandboxed, config);
  const auto result = optimizer.run();
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.samples.empty());
  // Two thirds of the space dies hard; some of it must have been drawn,
  // contained, and quarantined rather than crashing the campaign.
  EXPECT_FALSE(result.quarantine.empty());
  EXPECT_GE(sandboxed.stats().worker_deaths, 1u);
  EXPECT_FALSE(sandboxed.circuit_open());
}

TEST(SandboxCampaignTest, ConcurrentSandboxedRunMatchesInProcessRun) {
  using hm::hypermapper::DesignSpace;
  using hm::hypermapper::Optimizer;
  using hm::hypermapper::OptimizerConfig;
  using hm::hypermapper::Parameter;

  DesignSpace space;
  space.add(Parameter::integer_range("x", 0, 15));
  space.add(Parameter::integer_range("y", 0, 15));

  OptimizerConfig config;
  config.random_samples = 12;
  config.max_iterations = 2;
  config.max_samples_per_iteration = 5;
  config.pool_size = 48;
  config.forest.tree_count = 4;
  config.seed = 7;

  GridEvaluator plain;
  Optimizer reference(space, plain, config);
  const auto expected = reference.run();

  GridEvaluator inner;
  SandboxPolicy policy;
  policy.workers = 3;
  SandboxedEvaluator sandboxed(inner, policy);
  hm::common::ThreadPool pool(3);
  Optimizer concurrent(space, sandboxed, config, &pool);
  const auto actual = concurrent.run();

  // Same seed, same proposals, bit-identical objectives — concurrency and
  // the process boundary must both be invisible to the result.
  ASSERT_EQ(actual.samples.size(), expected.samples.size());
  for (std::size_t i = 0; i < expected.samples.size(); ++i) {
    EXPECT_EQ(actual.samples[i].config, expected.samples[i].config);
    EXPECT_EQ(bits(actual.samples[i].objectives),
              bits(expected.samples[i].objectives));
  }
  EXPECT_EQ(actual.pareto, expected.pareto);
}

}  // namespace
}  // namespace hm::sandbox
