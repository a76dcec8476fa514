// HyperMapper's model-based multi-objective search (Algorithm 1 of the
// paper): bootstrap with uniform random samples, fit one random-forest
// regressor per objective, predict the Pareto front over a configuration
// pool, evaluate the predicted-front points that have not been measured yet,
// refit, and repeat until the predicted front is fully measured or budgets
// are exhausted.
//
// The search core is batch-asynchronous: Optimizer::AsyncRun proposes one
// candidate batch at a time and folds evaluation outcomes back in as they
// land, in any order and from any thread. drive() is the one synchronous
// loop over it (propose a batch, measure it, fold the results back in):
// run()/resume()/run_random_only() and serve::Campaign::run (hm_tune,
// crowd_transfer) all call it. Only hm_serve keeps its own event loop,
// because it multiplexes many AsyncRuns over the shared ThreadPool. The
// result stream stays deterministic regardless of completion order because
// outcomes are merged in slot order at batch commit, which is also the
// journal's seq order — a served, crashed, resumed campaign reproduces the
// uninterrupted run byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "hypermapper/evaluator.hpp"
#include "hypermapper/pareto.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "hypermapper/space.hpp"
#include "rf/forest.hpp"

namespace hm::hypermapper {

struct OptimizerConfig {
  /// Bootstrap phase: number of distinct uniform random samples (`rs`).
  std::size_t random_samples = 300;
  /// Maximum active-learning iterations (the paper observed convergence in
  /// about 6 on KFusion).
  std::size_t max_iterations = 6;
  /// Cap on evaluations per active-learning iteration. The paper reports
  /// 100-300 new samples per iteration; the cap bounds runaway fronts.
  std::size_t max_samples_per_iteration = 300;
  /// Prediction-pool size. If the space cardinality is <= pool_size (or
  /// exhaustive_pool is set and the space is enumerable), the entire space
  /// is used, matching the paper exactly; otherwise a fresh uniform pool of
  /// this size is drawn each iteration.
  std::size_t pool_size = 50'000;
  bool exhaustive_pool = false;
  /// Surrogate forests (one per objective; seeds are derived per objective
  /// and per iteration).
  hm::rf::ForestConfig forest;
  /// Evaluation supervision: retries, deadlines, and objective validation.
  /// Failed configurations are quarantined instead of aborting the run.
  ResiliencePolicy resilience;
  std::uint64_t seed = 42;
};

/// One measured sample: configuration, objectives, and the phase that
/// produced it (iteration 0 = random bootstrap, >= 1 = active learning).
/// Active-learning samples also carry the surrogate's prediction at
/// selection time, so the prediction/measurement discrepancy the paper
/// notes ("active learning points that do not lie on the Pareto front")
/// can be quantified.
struct SampleRecord {
  Configuration config;
  Objectives objectives;
  std::size_t iteration = 0;
  Objectives predicted;  ///< Empty for random-phase samples.
};

/// A configuration whose evaluation failed: kept out of the sample set, the
/// surrogate training data, and the Pareto computation, and never
/// re-proposed by active learning.
struct QuarantineRecord {
  Configuration config;
  /// DesignSpace::key for discrete spaces, config_hash otherwise.
  std::uint64_t key = 0;
  EvaluationStatus status = EvaluationStatus::kException;
  std::string message;
  std::size_t iteration = 0;
  std::size_t attempts = 1;  ///< Evaluation attempts consumed.
};

/// Per-iteration progress for ablation studies.
struct IterationStats {
  std::size_t iteration = 0;
  std::size_t new_samples = 0;        ///< Successful evaluations this iteration.
  std::size_t failed_samples = 0;     ///< Quarantined evaluations this iteration.
  std::size_t predicted_front_size = 0;
  std::size_t measured_front_size = 0;  ///< Front of all samples so far.
  double oob_rmse_objective0 = 0.0;
  double oob_rmse_objective1 = 0.0;
  /// Mean relative |predicted - measured| / measured over this iteration's
  /// evaluations, per objective index (empty on the bootstrap iteration).
  std::vector<double> prediction_error;
};

struct OptimizationResult {
  std::vector<SampleRecord> samples;           ///< Successful evaluations, in order.
  std::vector<std::size_t> pareto;             ///< Front indices into samples.
  std::vector<std::size_t> random_phase_pareto;  ///< Front using only iteration-0 samples.
  std::vector<IterationStats> iterations;
  /// Failed configurations, in evaluation order. Disjoint from samples.
  std::vector<QuarantineRecord> quarantine;
  /// True when the run was stopped by cooperative cancellation (SIGINT via
  /// Optimizer::set_cancel) before finishing. A journaled interrupted run
  /// can be continued with Optimizer::resume to the byte-identical result
  /// an uninterrupted run would have produced.
  bool interrupted = false;

  [[nodiscard]] std::size_t random_sample_count() const;
  [[nodiscard]] std::size_t active_sample_count() const;
  /// Quarantined configurations with the given failure class.
  [[nodiscard]] std::size_t failure_count(EvaluationStatus status) const;
};

struct ReplayEntry;  // run_journal.hpp
struct ReplayState;  // run_journal.hpp

/// One batch of configurations proposed by the batch-async engine. Slots
/// are positions in `configs`; `pending` lists the slots the driver must
/// evaluate (the rest were already replayed from a journal tail and need no
/// work). A proposal with an empty `pending` list is legal — the driver
/// just asks for the next batch.
struct BatchProposal {
  std::size_t iteration = 0;           ///< 0 = random bootstrap batch.
  std::vector<Configuration> configs;  ///< Slot-indexed candidate set.
  /// Surrogate predictions per slot; empty for the bootstrap batch.
  std::vector<Objectives> predicted;
  std::vector<std::size_t> pending;    ///< Slots awaiting ingest()/skip().
};

class Optimizer {
 public:
  Optimizer(const DesignSpace& space, Evaluator& evaluator,
            OptimizerConfig config = {},
            hm::common::ThreadPool* pool = nullptr);

  /// Optional progress callback, invoked after the bootstrap phase and after
  /// every active-learning iteration.
  using ProgressFn = std::function<void(const IterationStats&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Attaches a write-ahead journal: every completed evaluation and every
  /// phase transition of run() is appended durably, so a killed process
  /// loses at most the evaluations that were in flight. The journal must
  /// outlive the optimizer's run. For run(), attach a fresh (empty-file)
  /// journal; to continue a crashed run, open its existing journal and call
  /// resume(). The journal is compacted into a snapshot at every phase
  /// boundary (between iterations, never mid-iteration: a mid-iteration
  /// snapshot would capture a partial evaluation set and change the
  /// proposals a resumed run generates).
  void attach_journal(hm::common::JournalWriter* journal) {
    journal_ = journal;
  }

  /// Cooperative cancellation probe, polled between evaluations and between
  /// iterations. When it returns true the run stops cleanly: completed
  /// evaluations are already journaled, in-flight ones are skipped, and the
  /// returned result has `interrupted == true`. Typically wired to
  /// common::shutdown_requested (SIGINT/SIGTERM).
  void set_cancel(std::function<bool()> cancel) { cancel_ = std::move(cancel); }

  /// Resumes a journaled run() from its write-ahead log: replays the
  /// committed prefix (without re-evaluating anything), restores the RNG
  /// stream at the last phase boundary, re-runs the in-flight iteration
  /// consulting the journaled tail as a dedupe map, and continues to
  /// completion. The final result is byte-identical to what an
  /// uninterrupted run() with the same configuration would have returned.
  /// Returns nullopt (with a logged reason) when the journal is missing,
  /// unusable, or was written by a different run configuration. If a
  /// journal is attached (normally the same file), the resumed run keeps
  /// journaling — resume after a second crash works the same way.
  [[nodiscard]] std::optional<OptimizationResult> resume(
      const std::string& journal_path);

  /// Runs Algorithm 1 to completion and returns every measured sample plus
  /// the final measured Pareto front.
  [[nodiscard]] OptimizationResult run();

  /// Runs only the random bootstrap phase (used by the sampling ablation).
  [[nodiscard]] OptimizationResult run_random_only();

  /// Batch-asynchronous tuning session; drive() below is the synchronous
  /// driver. The loop is:
  ///
  ///   auto session = optimizer.start_async();
  ///   while (auto batch = session->next_batch()) {
  ///     for (slot : batch->pending)          // dispatch anywhere, any order
  ///       session->ingest(slot, outcome);    // thread-safe
  ///   }
  ///   OptimizationResult result = session->finish();
  ///
  /// next_batch()/interrupt()/finish() must be called from one driver
  /// thread; ingest()/skip() may be called concurrently from any thread
  /// (ThreadPool workers, a server's completion queue). next_batch()
  /// commits the previous batch — merging resolved slots in slot order, so
  /// the sample/quarantine/journal streams are identical no matter what
  /// order outcomes landed in — then proposes the next one. A batch with
  /// unresolved slots at commit time marks the run interrupted, exactly
  /// like a stop that skips slots in drive().
  class AsyncRun;

  /// Starts a fresh batch-async run (the journaled run() path). At most one
  /// AsyncRun per Optimizer may be live at a time.
  [[nodiscard]] std::unique_ptr<AsyncRun> start_async();

  /// Batch-async resume of a journaled run; same validation and semantics
  /// as resume(). Returns nullptr (with a logged reason) when the journal
  /// is unusable. A journal whose run already finished yields a session
  /// that is immediately done — finish() returns the reconstructed result.
  [[nodiscard]] std::unique_ptr<AsyncRun> resume_async(
      const std::string& journal_path);

  /// The supervision wrapper around the evaluator (retries, deadlines,
  /// typed outcomes). External drivers of AsyncRun dispatch through this so
  /// failures land as outcomes instead of exceptions.
  [[nodiscard]] ResilientEvaluator& supervised_evaluator() noexcept {
    return supervisor_;
  }

 private:
  friend class AsyncRun;

  std::vector<Configuration> make_pool(hm::common::Rng& rng) const;
  [[nodiscard]] std::vector<std::size_t> measured_front(
      const OptimizationResult& result) const;
  /// drive() over the supervision wrapper, on the ThreadPool when the
  /// evaluator allows, honoring the cooperative cancellation probe.
  void drive_session(AsyncRun& session);

  [[nodiscard]] std::uint64_t replay_key(const Configuration& config) const;
  /// Rebuilds pareto/random_phase_pareto from samples (resume of a
  /// finished run; identical to the archive-incremental computation).
  void finalize_fronts(OptimizationResult& result) const;
  /// Journal helpers; all degrade to no-ops when journaling is off, and
  /// disable journaling (with a warning) on I/O failure rather than abort
  /// the optimization.
  void journal_append(const char* type, const std::string& payload);
  void journal_phase_boundary(const OptimizationResult& result,
                              std::size_t iteration,
                              const hm::common::Rng& rng);
  void compact_journal(const OptimizationResult& result, bool has_phase,
                       std::size_t iteration, const hm::common::RngState& rng);

  const DesignSpace& space_;
  Evaluator& evaluator_;
  OptimizerConfig config_;
  /// Supervision wrapper around evaluator_; every measurement goes through
  /// it so failures surface as typed outcomes instead of exceptions.
  ResilientEvaluator supervisor_;
  hm::common::ThreadPool* pool_;
  ProgressFn progress_;
  hm::common::JournalWriter* journal_ = nullptr;
  std::function<bool()> cancel_;
  /// True only inside a journaled session after the run record is on disk;
  /// run_random_only never journals.
  bool journal_started_ = false;
};

class Optimizer::AsyncRun {
 public:
  ~AsyncRun();
  AsyncRun(const AsyncRun&) = delete;
  AsyncRun& operator=(const AsyncRun&) = delete;

  /// Commits the in-flight batch (if any) and proposes the next one.
  /// Returns nullopt when the run is over: converged, budget exhausted, or
  /// interrupted. Driver thread only; every pending slot of the previous
  /// batch must have been resolved via ingest()/skip() first — committing
  /// with unresolved slots marks the run interrupted.
  [[nodiscard]] std::optional<BatchProposal> next_batch();

  /// Folds one evaluation outcome into the current batch. Thread-safe;
  /// out-of-order and duplicate-safe (a slot resolves at most once).
  void ingest(std::size_t slot, EvaluationOutcome outcome);
  /// Resolves a slot as never-evaluated (cooperative cancellation). The
  /// batch commit will mark the run interrupted. Thread-safe.
  void skip(std::size_t slot);

  /// Stops the run: commits the in-flight batch (a fully resolved batch
  /// commits normally — stats, phase boundary — exactly like the loop-top
  /// stop in drive()) and marks the result interrupted unless the run had
  /// already completed. Driver thread only.
  void interrupt();

  /// Finalizes and returns the result (computes the fronts, appends the
  /// terminal journal record on a completed run). Implicitly interrupts a
  /// run that is still mid-flight. Driver thread only; call at most once.
  [[nodiscard]] OptimizationResult finish();

  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }
  [[nodiscard]] bool interrupted() const { return result_.interrupted; }
  [[nodiscard]] std::size_t iteration() const { return iteration_; }
  [[nodiscard]] std::size_t sample_count() const {
    return result_.samples.size();
  }
  /// Size of the measured Pareto front so far (driver thread only).
  [[nodiscard]] std::size_t front_size() const { return archive_.size(); }

 private:
  friend class Optimizer;

  enum class Phase : std::uint8_t { kBootstrap, kActive, kDone };
  /// Slot lifecycle within one batch.
  static constexpr unsigned char kSlotPending = 0;
  static constexpr unsigned char kSlotIngested = 1;
  static constexpr unsigned char kSlotReplayed = 2;
  static constexpr unsigned char kSlotSkipped = 3;

  /// Construction recipe shared by run()/resume()/run_random_only()/serve.
  struct Start {
    OptimizationResult initial;
    bool needs_bootstrap = true;
    std::size_t start_iteration = 1;
    bool has_rng_state = false;
    hm::common::RngState rng_state;
    bool record_stats = true;     ///< False only for run_random_only.
    bool bootstrap_only = false;  ///< Stop after the bootstrap batch.
    bool already_finished = false;  ///< Resume of a done journal.
    bool journaling = false;
    std::unique_ptr<ReplayState> replay;  ///< Crashed run's journal tail.
  };

  AsyncRun(Optimizer& owner, Start start);

  /// Bootstrap finished (or was skipped): record its stats and boundary,
  /// build the dedupe key set, transition to the active-learning phase.
  void enter_active();
  /// Merges the in-flight batch in slot order and advances the phase
  /// machine (stats, archive, journal boundary). Driver thread only.
  void commit_batch();
  [[nodiscard]] std::optional<BatchProposal> propose_bootstrap();
  /// One active-learning proposal: fit surrogates, predict the pool front,
  /// select unmeasured front points. Sets kDone on the termination
  /// conditions instead of returning a batch.
  [[nodiscard]] std::optional<BatchProposal> propose_iteration();
  void open_batch(std::vector<Configuration> configs,
                  std::vector<Objectives> predicted, std::size_t iteration);
  [[nodiscard]] BatchProposal make_proposal() const;

  Optimizer& opt_;
  OptimizationResult result_;
  hm::common::Rng rng_;
  ParetoArchive archive_;
  ParetoArchive bootstrap_archive_;
  std::unordered_set<std::uint64_t> evaluated_keys_;
  std::unique_ptr<ReplayState> replay_;
  Phase phase_ = Phase::kBootstrap;
  std::size_t iteration_ = 1;  ///< Next active-learning iteration to propose.
  bool record_stats_ = true;
  bool bootstrap_only_ = false;
  bool already_finished_ = false;
  bool finished_ = false;

  // In-flight batch. The proposal-shape members are driver-thread state
  // (written at open, read at commit; no evaluation is outstanding at
  // either point). Slot resolution state is shared with ingest()/skip()
  // callers and lives under batch_mutex_.
  bool batch_open_ = false;
  std::size_t batch_iteration_ = 0;
  std::vector<Configuration> batch_configs_;
  std::vector<Objectives> batch_predicted_;
  IterationStats pending_stats_;

  mutable std::mutex batch_mutex_;
  std::vector<EvaluationOutcome> outcomes_;  // hm-guarded-by(batch_mutex_)
  std::vector<unsigned char> slot_state_;    // hm-guarded-by(batch_mutex_)
};

/// The synchronous drive loop. Until the session is over: if `stop` fires,
/// interrupt the session (an open batch commits normally first) and
/// return; otherwise take the next batch, evaluate its pending slots on
/// `pool` (serially when null) and ingest each outcome. `stop` is also
/// polled before each evaluation, which skips the slot instead. Either way
/// the journal holds every completed evaluation, so a stopped session
/// resumes byte-identically. `evaluate` must be thread-safe when a pool is
/// given, and `stop` may be empty.
void drive(Optimizer::AsyncRun& session, hm::common::ThreadPool* pool,
           const std::function<EvaluationOutcome(const Configuration&)>&
               evaluate,
           const std::function<bool()>& stop);

}  // namespace hm::hypermapper
