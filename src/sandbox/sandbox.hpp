// Process-isolated configuration evaluation. Aggressive corners of the
// design space (tiny volumes, degenerate ICP thresholds) are exactly where
// evaluations segfault, spin forever, or exhaust memory — and the
// cooperative deadline in ResilientEvaluator cannot preempt any of that.
// SandboxedEvaluator runs every evaluation inside a pool of forked worker
// processes speaking the framed pipe protocol (common/frame.hpp carrying
// protocol.hpp payloads), so the supervisor can enforce *hard* guarantees:
//
//   - wall-clock deadlines via poll() + SIGKILL (the worker never gets a
//     vote), memory ceilings via setrlimit(RLIMIT_AS) in the child;
//   - crash containment: a worker that segfaults, aborts, or corrupts the
//     protocol stream is reaped and its death is mapped into the typed
//     exceptions ResilientEvaluator already classifies (EvaluationTimeout
//     -> kTimeout, EvaluationError -> kException), so retry, quarantine,
//     and the journal apply unchanged;
//   - supervised recovery: workers are recycled after N evaluations or any
//     abnormal exit, respawns after infrastructure failures use seeded
//     exponential backoff with jitter, and a circuit breaker degrades to
//     in-process evaluation (logged + metrics-flagged) if the sandbox
//     itself — fork, pipes — fails repeatedly.
//
// Determinism: objectives cross the pipe bit-exactly (protocol.hpp), and
// every failure message is a pure function of the policy and the worker's
// exit status — never of measured time — so a sandboxed, journaled run
// resumes byte-identically. Thread-safe by construction (workers are
// leased under a mutex), which is what lets the optimizer dispatch whole
// batches of sandboxed evaluations concurrently on the ThreadPool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "hypermapper/evaluator.hpp"

namespace hm::sandbox {

/// Supervision policy for the worker pool.
struct SandboxPolicy {
  /// Worker processes kept in the pool. Batch dispatch runs up to this
  /// many evaluations truly concurrently.
  std::size_t workers = 1;
  /// Hard per-evaluation wall-clock deadline in seconds; on overrun the
  /// worker is SIGKILLed and the evaluation classifies kTimeout. 0 = none.
  double deadline_seconds = 0.0;
  /// RLIMIT_AS ceiling applied in each worker, in MiB; 0 = unlimited.
  std::size_t memory_limit_mb = 0;
  /// Recycle (cleanly replace) a worker after this many evaluations;
  /// bounds leak accumulation from misbehaving evaluators. 0 = never.
  std::size_t max_evals_per_worker = 128;
  /// Consecutive sandbox-infrastructure failures (fork/pipe failure, a
  /// worker dead before its first request) that trip the circuit breaker.
  std::size_t circuit_failure_threshold = 3;
  /// Seeded exponential backoff with jitter applied before respawn
  /// attempts that follow an infrastructure failure.
  double backoff_base_seconds = 0.005;
  double backoff_max_seconds = 0.25;
  std::uint64_t backoff_seed = 0xbacc0ffULL;
  /// Fold the workers' metric counter deltas into this process's registry.
  bool forward_metrics = true;
  /// Test seam: make the next N spawn attempts fail without forking, to
  /// exercise backoff and the circuit breaker deterministically.
  std::size_t inject_spawn_failures_for_test = 0;
};

/// The deterministic backoff schedule: base * 2^(attempt-1), capped, then
/// scaled by a jitter factor in [0.5, 1.0) drawn from splitmix64(seed,
/// attempt). Pure function of (policy, attempt); exposed for tests.
[[nodiscard]] double backoff_delay_seconds(const SandboxPolicy& policy,
                                           std::uint64_t attempt);

/// Pool counters, mirrored into the global metrics registry under
/// `hm_sandbox_*`. Snapshot is internally consistent per field only.
struct SandboxStats {
  std::size_t spawns = 0;
  std::size_t requests = 0;
  std::size_t kills = 0;            ///< SIGKILLs delivered by the supervisor.
  std::size_t timeouts = 0;         ///< Hard-deadline overruns.
  std::size_t worker_deaths = 0;    ///< Abnormal exits attributed to a config.
  std::size_t protocol_errors = 0;  ///< Corrupt or undecodable frames.
  std::size_t recycles = 0;         ///< Clean end-of-life replacements.
  std::size_t backoffs = 0;         ///< Backoff sleeps before respawns.
  std::size_t fallbacks = 0;        ///< In-process evaluations after a trip.
  bool circuit_open = false;
};

class SandboxedEvaluator final : public hm::hypermapper::Evaluator {
 public:
  /// Wraps `inner`, which is evaluated inside worker processes. Workers
  /// are spawned lazily on first use; fork happens from whichever thread
  /// dispatches, under a pool mutex (the children inherit the evaluator's
  /// state as of their spawn — evaluators must be self-contained, which
  /// the deterministic SLAM evaluators are).
  explicit SandboxedEvaluator(hm::hypermapper::Evaluator& inner,
                              SandboxPolicy policy = {});
  ~SandboxedEvaluator() override;

  SandboxedEvaluator(const SandboxedEvaluator&) = delete;
  SandboxedEvaluator& operator=(const SandboxedEvaluator&) = delete;

  [[nodiscard]] std::size_t objective_count() const override {
    return inner_.objective_count();
  }
  /// Always safe: concurrent callers lease distinct workers. (If the
  /// circuit breaker has degraded to in-process evaluation, calls are
  /// serialized when the inner evaluator is not itself thread-safe.)
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<double> evaluate(
      const hm::hypermapper::Configuration& config) override;
  [[nodiscard]] std::vector<double> evaluate_retry(
      const hm::hypermapper::Configuration& config,
      std::uint64_t retry_nonce) override;

  /// Drains the pool: closes the request pipes (idle workers exit cleanly
  /// on EOF), SIGKILLs stragglers after a short grace, reaps everything.
  /// Idempotent; also runs from the destructor. This is what the
  /// cooperative-shutdown path relies on — no worker outlives the run.
  void shutdown();

  [[nodiscard]] SandboxStats stats() const;
  [[nodiscard]] const SandboxPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] bool circuit_open() const;

  /// Test seam mirroring JournalWriter::set_append_hook: invoked with the
  /// 1-based dispatch ordinal immediately before each request is written
  /// to a worker. The crash harness raises SIGTERM from here to pin the
  /// "signal lands mid-batch" interleaving deterministically.
  void set_dispatch_hook(std::function<void(std::size_t)> hook);

 private:
  struct Worker {
    pid_t pid = -1;  // hm-guarded-by(mutex_)
    int to_child = -1;    ///< Request pipe, write end.
    int from_child = -1;  ///< Response pipe, read end.
    std::size_t served = 0;
    bool busy = false;  // hm-guarded-by(mutex_)
    bool fresh = true;  ///< No request delivered since spawn.
    /// Process-lifetime storage: recorded trace events keep the pointer
    /// until the trace is written, which may be after this evaluator is
    /// destroyed (a settled serve campaign releases its sandbox).
    const char* span_name = "";
  };

  /// RAII worker lease; releases the slot and wakes waiters on scope exit.
  class Lease;

  [[nodiscard]] std::vector<double> supervised(
      const hm::hypermapper::Configuration& config, std::uint64_t nonce);
  [[nodiscard]] std::vector<double> fallback_evaluate(
      const hm::hypermapper::Configuration& config, std::uint64_t nonce);
  /// Spawns into `worker`; returns false on fork/pipe failure. `attempt`
  /// indexes the backoff schedule (0 = no wait).
  [[nodiscard]] bool spawn_worker(Worker& worker, std::uint64_t attempt);
  /// Child-side main loop; never returns.
  [[noreturn]] void worker_main(int request_fd, int response_fd);
  /// Kills (if still alive), reaps, and clears a worker; returns the raw
  /// wait() status (0 when the worker was already gone).
  int destroy_worker(Worker& worker, bool force_kill);
  void trip_circuit_locked();

  hm::hypermapper::Evaluator& inner_;
  SandboxPolicy policy_;

  mutable std::mutex mutex_;
  std::condition_variable worker_available_;
  std::vector<std::unique_ptr<Worker>> workers_;  // hm-guarded-by(mutex_)
  std::size_t spawn_failures_in_a_row_ = 0;  // hm-guarded-by(mutex_)
  bool circuit_open_ = false;  // hm-guarded-by(mutex_)
  std::size_t dispatch_count_ = 0;  // hm-guarded-by(mutex_)
  std::function<void(std::size_t)> dispatch_hook_;  // hm-guarded-by(mutex_)

  /// Serializes fallback evaluations when the inner evaluator is not
  /// thread-safe but the optimizer dispatches concurrently.
  std::mutex fallback_mutex_;

  mutable std::mutex stats_mutex_;
  SandboxStats stats_;  // hm-guarded-by(stats_mutex_)
};

/// Inside a worker process: the response-pipe descriptor of the running
/// evaluation, or -1 in the supervisor. Fault-injection tests use it to
/// write garbage into the protocol stream from the evaluator side.
[[nodiscard]] int worker_response_fd() noexcept;

}  // namespace hm::sandbox
