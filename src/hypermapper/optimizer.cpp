#include "hypermapper/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "hypermapper/run_journal.hpp"

namespace hm::hypermapper {
namespace {

/// Global-registry handles for the DSE loop, resolved once.
struct OptimizerMetrics {
  hm::common::Counter* iterations = nullptr;
  hm::common::Counter* surrogate_fits = nullptr;
  hm::common::Counter* quarantined = nullptr;
  hm::common::Gauge* front_size = nullptr;
  hm::common::Histogram* iteration_seconds = nullptr;
};

const OptimizerMetrics& optimizer_metrics() {
  static const OptimizerMetrics metrics = [] {
    auto& registry = hm::common::MetricsRegistry::global();
    OptimizerMetrics resolved;
    resolved.iterations = &registry.counter("hm_optimizer_iterations_total");
    resolved.surrogate_fits =
        &registry.counter("hm_optimizer_surrogate_fits_total");
    resolved.quarantined = &registry.counter("hm_quarantine_total");
    resolved.front_size = &registry.gauge("hm_optimizer_front_size");
    resolved.iteration_seconds =
        &registry.histogram("hm_optimizer_iteration_seconds");
    return resolved;
  }();
  return metrics;
}

}  // namespace

std::size_t OptimizationResult::random_sample_count() const {
  std::size_t count = 0;
  for (const SampleRecord& s : samples) count += s.iteration == 0 ? 1 : 0;
  return count;
}

std::size_t OptimizationResult::active_sample_count() const {
  return samples.size() - random_sample_count();
}

std::size_t OptimizationResult::failure_count(EvaluationStatus status) const {
  std::size_t count = 0;
  for (const QuarantineRecord& q : quarantine) count += q.status == status ? 1 : 0;
  return count;
}

Optimizer::Optimizer(const DesignSpace& space, Evaluator& evaluator,
                     OptimizerConfig config, hm::common::ThreadPool* pool)
    : space_(space),
      evaluator_(evaluator),
      config_(config),
      supervisor_(evaluator, config.resilience),
      pool_(pool) {}

std::vector<Configuration> Optimizer::make_pool(hm::common::Rng& rng) const {
  const std::uint64_t total = space_.cardinality();
  const bool enumerate_all =
      total != 0 && (total <= config_.pool_size ||
                     (config_.exhaustive_pool && total <= (1ULL << 24)));
  if (enumerate_all) {
    std::vector<Configuration> pool;
    pool.reserve(static_cast<std::size_t>(total));
    for (std::uint64_t i = 0; i < total; ++i) pool.push_back(space_.at(i));
    return pool;
  }
  return space_.sample_distinct(config_.pool_size, rng);
}

std::uint64_t Optimizer::replay_key(const Configuration& config) const {
  return space_.cardinality() != 0 ? space_.key(config) : config_hash(config);
}

void Optimizer::journal_append(const char* type, const std::string& payload) {
  if (journal_ == nullptr || !journal_started_) return;
  if (!journal_->append(type, payload)) {
    hm::common::log_warn() << "journal append to " << journal_->path()
                           << " failed; journaling disabled for this run";
    journal_ = nullptr;
  }
}

std::vector<std::size_t> Optimizer::measured_front(
    const OptimizationResult& result) const {
  std::vector<Objectives> points;
  points.reserve(result.samples.size());
  for (const SampleRecord& s : result.samples) points.push_back(s.objectives);
  return pareto_indices(points);
}

void Optimizer::finalize_fronts(OptimizationResult& result) const {
  // Identical insert sequence to the incremental archives in AsyncRun, so
  // the rebuilt fronts match byte for byte.
  ParetoArchive archive;
  ParetoArchive bootstrap_archive;
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    archive.insert(result.samples[i].objectives, i);
    if (result.samples[i].iteration == 0) {
      bootstrap_archive.insert(result.samples[i].objectives, i);
    }
  }
  result.pareto = archive.indices();
  result.random_phase_pareto = bootstrap_archive.indices();
}

void Optimizer::compact_journal(const OptimizationResult& result,
                                bool has_phase, std::size_t iteration,
                                const hm::common::RngState& rng) {
  if (journal_ == nullptr || !journal_started_) return;
  // The snapshot IS the compacted journal: the canonical record sequence
  // reconstructs the exact in-memory state, so compaction just rewrites
  // the file to that normal form (atomically — a crash mid-compaction
  // leaves either the old journal or the new one).
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(result.samples.size() + result.quarantine.size() +
                  result.iterations.size() + 2);
  records.emplace_back(
      "run", encode_run_record(make_fingerprint(config_, space_,
                                                evaluator_.objective_count())));
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    records.emplace_back("eval", encode_eval_record(i, result.samples[i]));
  }
  for (std::size_t i = 0; i < result.quarantine.size(); ++i) {
    records.emplace_back("fail", encode_fail_record(i, result.quarantine[i]));
  }
  for (const IterationStats& stats : result.iterations) {
    records.emplace_back("stat", encode_stat_record(stats));
  }
  if (has_phase) {
    records.emplace_back("phase", encode_phase_record(iteration, rng));
  }
  std::string error;
  if (!journal_->rewrite(records, &error)) {
    hm::common::log_warn() << "journal compaction failed (" << error
                           << "); journaling disabled for this run";
    journal_ = nullptr;
  }
}

void Optimizer::journal_phase_boundary(const OptimizationResult& result,
                                       std::size_t iteration,
                                       const hm::common::Rng& rng) {
  if (journal_ == nullptr || !journal_started_) return;
  const hm::common::RngState state = rng.save_state();
  // The phase record commits everything journaled so far and captures the
  // RNG stream exactly where the next iteration's pool draw will resume.
  journal_append("stat", encode_stat_record(result.iterations.back()));
  journal_append("phase", encode_phase_record(iteration, state));
  compact_journal(result, true, iteration, state);
}

// --- AsyncRun: the batch-async search engine. ---

Optimizer::AsyncRun::AsyncRun(Optimizer& owner, Start start)
    : opt_(owner),
      result_(std::move(start.initial)),
      rng_(owner.config_.seed),
      replay_(std::move(start.replay)),
      iteration_(start.start_iteration),
      record_stats_(start.record_stats),
      bootstrap_only_(start.bootstrap_only),
      already_finished_(start.already_finished) {
  opt_.journal_started_ = start.journaling && opt_.journal_ != nullptr;
  if (start.has_rng_state) rng_.restore_state(start.rng_state);
  // Seed the incremental fronts from whatever the run starts with (replayed
  // prefix, seed samples) — the same insert sequence the synchronous loop
  // performed at active-learning entry.
  for (std::size_t i = 0; i < result_.samples.size(); ++i) {
    archive_.insert(result_.samples[i].objectives, i);
    if (result_.samples[i].iteration == 0) {
      bootstrap_archive_.insert(result_.samples[i].objectives, i);
    }
  }
  if (already_finished_) {
    phase_ = Phase::kDone;
  } else if (start.needs_bootstrap) {
    phase_ = Phase::kBootstrap;
  } else {
    phase_ = Phase::kActive;
    enter_active();
  }
}

Optimizer::AsyncRun::~AsyncRun() {
  // A session abandoned mid-run must not leave the optimizer claiming an
  // open journal transaction.
  opt_.journal_started_ = false;
}

void Optimizer::AsyncRun::enter_active() {
  result_.random_phase_pareto = bootstrap_archive_.indices();
  if (result_.interrupted) {
    // Cooperative shutdown hit during the bootstrap: no phase record is
    // written (the journal tail already holds every completed evaluation),
    // and the partial result still gets usable fronts at finish().
    phase_ = Phase::kDone;
    return;
  }
  evaluated_keys_.clear();
  if (opt_.space_.cardinality() != 0) {
    for (const SampleRecord& s : result_.samples) {
      evaluated_keys_.insert(opt_.space_.key(s.config));
    }
    // Quarantined configurations count as spent: active learning must never
    // re-propose a configuration that already failed.
    for (const QuarantineRecord& q : result_.quarantine) {
      evaluated_keys_.insert(q.key);
    }
  }
  if (record_stats_ && result_.iterations.empty()) {
    // Fresh run (or resume of a crash inside the bootstrap): the bootstrap
    // phase just completed, so record its stats and its phase boundary.
    IterationStats stats;
    stats.iteration = 0;
    stats.new_samples = result_.samples.size();
    stats.failed_samples = result_.quarantine.size();
    stats.measured_front_size = archive_.size();
    result_.iterations.push_back(stats);
    if (opt_.progress_) opt_.progress_(stats);
    opt_.journal_phase_boundary(result_, 0, rng_);
  }
}

void Optimizer::AsyncRun::open_batch(std::vector<Configuration> configs,
                                     std::vector<Objectives> predicted,
                                     std::size_t iteration) {
  batch_configs_ = std::move(configs);
  batch_predicted_ = std::move(predicted);
  batch_iteration_ = iteration;
  std::lock_guard<std::mutex> lock(batch_mutex_);
  outcomes_.assign(batch_configs_.size(), EvaluationOutcome{});
  slot_state_.assign(batch_configs_.size(), kSlotPending);
  unresolved_ = 0;
  for (std::size_t i = 0; i < batch_configs_.size(); ++i) {
    if (replay_ != nullptr &&
        replay_->tail.contains(opt_.replay_key(batch_configs_[i]))) {
      // Journaled by the crashed run: resolved up front, never dispatched.
      slot_state_[i] = kSlotReplayed;
    } else {
      ++unresolved_;
    }
  }
  batch_open_ = true;
}

BatchProposal Optimizer::AsyncRun::make_proposal() const {
  BatchProposal proposal;
  proposal.iteration = batch_iteration_;
  proposal.configs = batch_configs_;
  proposal.predicted = batch_predicted_;
  std::lock_guard<std::mutex> lock(batch_mutex_);
  for (std::size_t i = 0; i < slot_state_.size(); ++i) {
    if (slot_state_[i] == kSlotPending) proposal.pending.push_back(i);
  }
  return proposal;
}

void Optimizer::AsyncRun::ingest(std::size_t slot, EvaluationOutcome outcome) {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  if (slot >= slot_state_.size() || slot_state_[slot] != kSlotPending) return;
  outcomes_[slot] = std::move(outcome);
  slot_state_[slot] = kSlotIngested;
  --unresolved_;
}

void Optimizer::AsyncRun::skip(std::size_t slot) {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  if (slot >= slot_state_.size() || slot_state_[slot] != kSlotPending) return;
  slot_state_[slot] = kSlotSkipped;
  --unresolved_;
}

bool Optimizer::AsyncRun::batch_resolved() const {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  return !batch_open_ || unresolved_ == 0;
}

std::size_t Optimizer::AsyncRun::outstanding() const {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  return batch_open_ ? unresolved_ : 0;
}

void Optimizer::AsyncRun::commit_batch() {
  // Claim the slot arrays under the lock, then merge from locals: commits
  // run on the driver thread while late ingest() calls (there should be
  // none — but a shedding server must tolerate them) see an empty batch.
  std::vector<EvaluationOutcome> outcomes;
  std::vector<unsigned char> slots;
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    batch_open_ = false;
    outcomes = std::move(outcomes_);
    slots = std::move(slot_state_);
    outcomes_.clear();
    slot_state_.clear();
    unresolved_ = 0;
  }

  // Merge sequentially in slot order: the sample and quarantine streams
  // (and therefore the journal's seq order) are deterministic no matter
  // what order, or from which threads, the outcomes landed.
  const bool discrete = opt_.space_.cardinality() != 0;
  const std::size_t batch_base = result_.samples.size();
  const std::size_t quarantine_base = result_.quarantine.size();
  bool incomplete = false;
  for (std::size_t i = 0; i < batch_configs_.size(); ++i) {
    switch (slots[i]) {
      case kSlotReplayed: {
        // Journaled by the crashed run: take the record verbatim (it is
        // already on disk, so it is not re-journaled either).
        const ReplayEntry& entry =
            replay_->tail.at(opt_.replay_key(batch_configs_[i]));
        if (entry.ok) {
          result_.samples.push_back(entry.sample);
        } else {
          result_.quarantine.push_back(entry.failure);
        }
        break;
      }
      case kSlotIngested: {
        EvaluationOutcome& outcome = outcomes[i];
        if (outcome.ok()) {
          SampleRecord record;
          record.config = batch_configs_[i];
          record.objectives = std::move(outcome.objectives);
          record.iteration = batch_iteration_;
          if (!batch_predicted_.empty()) record.predicted = batch_predicted_[i];
          opt_.journal_append(
              "eval", encode_eval_record(result_.samples.size(), record));
          result_.samples.push_back(std::move(record));
        } else {
          QuarantineRecord record;
          record.config = batch_configs_[i];
          record.key = discrete ? opt_.space_.key(batch_configs_[i])
                                : config_hash(batch_configs_[i]);
          record.status = outcome.status;
          record.message = std::move(outcome.message);
          record.iteration = batch_iteration_;
          record.attempts = outcome.attempts;
          opt_.journal_append(
              "fail", encode_fail_record(result_.quarantine.size(), record));
          result_.quarantine.push_back(std::move(record));
          optimizer_metrics().quarantined->increment();
        }
        break;
      }
      default:  // kSlotPending / kSlotSkipped: never evaluated.
        incomplete = true;
        break;
    }
  }

  if (batch_iteration_ == 0) {
    // Bootstrap commit. The fronts absorb every merged sample (even on an
    // interrupted bootstrap, matching the synchronous driver).
    for (std::size_t i = batch_base; i < result_.samples.size(); ++i) {
      archive_.insert(result_.samples[i].objectives, i);
      bootstrap_archive_.insert(result_.samples[i].objectives, i);
    }
    if (incomplete) result_.interrupted = true;
    if (bootstrap_only_) {
      phase_ = Phase::kDone;
      return;
    }
    phase_ = Phase::kActive;
    enter_active();
    return;
  }

  // Active-learning commit.
  if (incomplete) {
    // Partial batch: no stats, no boundary. Completed slots are already
    // journaled; a resumed run picks the rest up through the journal tail.
    result_.interrupted = true;
    phase_ = Phase::kDone;
    return;
  }
  IterationStats stats = std::move(pending_stats_);
  stats.new_samples = result_.samples.size() - batch_base;
  stats.failed_samples = result_.quarantine.size() - quarantine_base;
  for (std::size_t i = batch_base; i < result_.samples.size(); ++i) {
    archive_.insert(result_.samples[i].objectives, i);
  }

  // Prediction/measurement discrepancy of this iteration's batch. Samples
  // measured as exactly 0 cannot contribute a relative error, so they are
  // excluded from both the numerator and the denominator.
  const std::size_t n_objectives = opt_.evaluator_.objective_count();
  stats.prediction_error.assign(n_objectives, 0.0);
  std::vector<std::size_t> contributing(n_objectives, 0);
  for (std::size_t i = batch_base; i < result_.samples.size(); ++i) {
    const SampleRecord& record = result_.samples[i];
    for (std::size_t o = 0; o < n_objectives; ++o) {
      const double measured = record.objectives[o];
      // hm-lint: allow(no-float-equality) exact zero guards the relative-error divisor
      if (measured != 0.0) {
        stats.prediction_error[o] +=
            std::abs(record.predicted[o] - measured) / std::abs(measured);
        ++contributing[o];
      }
    }
  }
  for (std::size_t o = 0; o < n_objectives; ++o) {
    stats.prediction_error[o] =
        contributing[o] == 0
            ? 0.0
            : stats.prediction_error[o] / static_cast<double>(contributing[o]);
  }

  stats.measured_front_size = archive_.size();
  optimizer_metrics().front_size->set(
      static_cast<double>(stats.measured_front_size));
  result_.iterations.push_back(stats);
  if (opt_.progress_) opt_.progress_(stats);
  opt_.journal_phase_boundary(result_, batch_iteration_, rng_);
  hm::common::log_debug() << "iteration " << batch_iteration_ << ": +"
                          << batch_configs_.size() << " samples, front "
                          << stats.measured_front_size;
  iteration_ = batch_iteration_ + 1;
  if (iteration_ > opt_.config_.max_iterations) phase_ = Phase::kDone;
}

std::optional<BatchProposal> Optimizer::AsyncRun::propose_bootstrap() {
  const hm::common::TraceSpan bootstrap_span("bootstrap", "dse");
  open_batch(opt_.space_.sample_distinct(opt_.config_.random_samples, rng_),
             {}, 0);
  return make_proposal();
}

std::optional<BatchProposal> Optimizer::AsyncRun::propose_iteration() {
  // Budget exhausted (a resumed run can start past the budget when the
  // crash landed after the final boundary) or nothing to train on.
  if (iteration_ > opt_.config_.max_iterations || result_.samples.empty()) {
    phase_ = Phase::kDone;
    return std::nullopt;
  }
  const std::size_t iteration = iteration_;
  const hm::common::TraceSpan iteration_span(
      "iteration", "dse", optimizer_metrics().iteration_seconds);
  optimizer_metrics().iterations->increment();

  const std::size_t n_objectives = opt_.evaluator_.objective_count();
  hm::rf::FeatureMatrix train_x(opt_.space_.parameter_count());
  std::vector<std::vector<double>> train_y(n_objectives);
  train_x.reserve_rows(result_.samples.size());
  for (const SampleRecord& s : result_.samples) {
    train_x.add_row(opt_.space_.features(s.config));
    for (std::size_t o = 0; o < n_objectives; ++o) {
      train_y[o].push_back(s.objectives[o]);
    }
  }

  // Fit one forest per objective (M_ATE and M_run in the paper).
  std::vector<hm::rf::RandomForest> models;
  {
    const hm::common::TraceSpan fit_span("surrogate_fit", "dse");
    for (std::size_t o = 0; o < n_objectives; ++o) {
      hm::rf::ForestConfig forest_config = opt_.config_.forest;
      forest_config.seed =
          opt_.config_.seed ^
          (0x9e3779b97f4a7c15ULL * (iteration * n_objectives + o + 1));
      hm::rf::RandomForest model(forest_config);
      model.fit(train_x, train_y[o], opt_.pool_);
      models.push_back(std::move(model));
      optimizer_metrics().surrogate_fits->increment();
    }
  }

  // Predict both objectives over the pool and extract the predicted front.
  const std::vector<Configuration> pool_configs = opt_.make_pool(rng_);
  hm::rf::FeatureMatrix pool_x(opt_.space_.parameter_count());
  pool_x.reserve_rows(pool_configs.size());
  for (const Configuration& c : pool_configs) {
    pool_x.add_row(opt_.space_.features(c));
  }

  std::vector<std::vector<double>> predictions(n_objectives);
  {
    const hm::common::TraceSpan predict_span("surrogate_predict", "dse");
    for (std::size_t o = 0; o < n_objectives; ++o) {
      predictions[o] = models[o].predict_batch(pool_x, opt_.pool_);
    }
  }
  std::vector<Objectives> predicted(pool_configs.size(),
                                    Objectives(n_objectives));
  for (std::size_t i = 0; i < pool_configs.size(); ++i) {
    for (std::size_t o = 0; o < n_objectives; ++o) {
      predicted[i][o] = predictions[o][i];
    }
  }
  const std::vector<std::size_t> predicted_front = pareto_indices(predicted);

  // P - Xout: predicted-front configurations not measured yet.
  const bool discrete = opt_.space_.cardinality() != 0;
  std::vector<Configuration> to_evaluate;
  std::vector<Objectives> to_evaluate_predicted;
  for (const std::size_t i : predicted_front) {
    if (to_evaluate.size() >= opt_.config_.max_samples_per_iteration) break;
    if (discrete) {
      const std::uint64_t k = opt_.space_.key(pool_configs[i]);
      if (evaluated_keys_.contains(k)) continue;
      evaluated_keys_.insert(k);
    }
    to_evaluate.push_back(pool_configs[i]);
    to_evaluate_predicted.push_back(predicted[i]);
  }

  pending_stats_ = IterationStats{};
  pending_stats_.iteration = iteration;
  pending_stats_.predicted_front_size = predicted_front.size();
  if (n_objectives >= 1) {
    pending_stats_.oob_rmse_objective0 =
        models[0].oob_rmse(train_x, train_y[0], opt_.pool_);
  }
  if (n_objectives >= 2) {
    pending_stats_.oob_rmse_objective1 =
        models[1].oob_rmse(train_x, train_y[1], opt_.pool_);
  }

  if (to_evaluate.empty()) {
    // Predicted front fully measured: Algorithm 1's termination condition.
    // No phase record here — this iteration consumed the RNG (pool draw),
    // so committing it as a resumable boundary would let a resumed run
    // draw a *different* pool for an iteration the original never ran.
    // The "done" record at finish() marks the run as finished instead.
    pending_stats_.measured_front_size = archive_.size();
    result_.iterations.push_back(pending_stats_);
    if (opt_.progress_) opt_.progress_(pending_stats_);
    opt_.journal_append("stat", encode_stat_record(pending_stats_));
    phase_ = Phase::kDone;
    return std::nullopt;
  }

  open_batch(std::move(to_evaluate), std::move(to_evaluate_predicted),
             iteration);
  return make_proposal();
}

std::optional<BatchProposal> Optimizer::AsyncRun::next_batch() {
  if (batch_open_) commit_batch();
  switch (phase_) {
    case Phase::kBootstrap:
      return propose_bootstrap();
    case Phase::kActive:
      return propose_iteration();
    case Phase::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

void Optimizer::AsyncRun::interrupt() {
  if (finished_) return;
  if (batch_open_) commit_batch();
  if (phase_ == Phase::kDone) return;  // Run completed anyway — not interrupted.
  if (phase_ == Phase::kBootstrap) {
    // Stopped before the bootstrap batch was even proposed.
    result_.random_phase_pareto = bootstrap_archive_.indices();
  }
  result_.interrupted = true;
  phase_ = Phase::kDone;
}

OptimizationResult Optimizer::AsyncRun::finish() {
  if (!finished_) {
    if (batch_open_ || phase_ != Phase::kDone) interrupt();
    finished_ = true;
    if (!already_finished_) {
      result_.pareto = archive_.indices();
      if (!result_.interrupted) opt_.journal_append("done", "");
    }
    opt_.journal_started_ = false;
  }
  return std::move(result_);
}

// --- Synchronous drivers over AsyncRun. ---

void Optimizer::drive(AsyncRun& session) {
  while (true) {
    // Loop-top cancellation: an open batch commits normally (stats, phase
    // boundary) before the run is marked interrupted, exactly like the
    // synchronous loop's iteration-top probe did.
    if (cancel_requested()) {
      session.interrupt();
      return;
    }
    std::optional<BatchProposal> batch = session.next_batch();
    if (!batch) return;
    const hm::common::TraceSpan batch_span("evaluate_batch", "dse");
    auto evaluate_one = [&](std::size_t j) {
      const std::size_t slot = batch->pending[j];
      if (cancel_requested()) {
        session.skip(slot);
        return;
      }
      session.ingest(slot, supervisor_.evaluate_outcome(batch->configs[slot]));
    };
    if (pool_ != nullptr && evaluator_.thread_safe()) {
      pool_->parallel_for(0, batch->pending.size(), evaluate_one);
    } else {
      for (std::size_t j = 0; j < batch->pending.size(); ++j) {
        evaluate_one(j);
      }
    }
  }
}

std::unique_ptr<Optimizer::AsyncRun> Optimizer::start_async() {
  journal_started_ = journal_ != nullptr;
  journal_append("run",
                 encode_run_record(make_fingerprint(
                     config_, space_, evaluator_.objective_count())));
  AsyncRun::Start start;
  start.journaling = true;
  return std::unique_ptr<AsyncRun>(new AsyncRun(*this, std::move(start)));
}

std::unique_ptr<Optimizer::AsyncRun> Optimizer::resume_async(
    const std::string& journal_path) {
  const hm::common::JournalReadResult journal =
      hm::common::read_journal(journal_path);
  std::string error;
  auto replay = replay_journal(journal, space_, &error);
  if (!replay) {
    hm::common::log_warn() << "cannot resume from " << journal_path << ": "
                           << error;
    return nullptr;
  }
  if (!(replay->fingerprint ==
        make_fingerprint(config_, space_, evaluator_.objective_count()))) {
    hm::common::log_warn() << "cannot resume from " << journal_path
                           << ": journal was written by a different run "
                              "configuration";
    return nullptr;
  }
  if (!journal.defects.empty()) {
    hm::common::log_warn() << "journal " << journal_path << " recovered with "
                           << journal.defects.size()
                           << " damaged region(s); first damage at byte "
                           << journal.first_damaged_offset << " (line "
                           << journal.defects.front().line << ", "
                           << to_string(journal.defects.front().damage) << ")";
  }
  if (replay->malformed_payloads != 0) {
    hm::common::log_warn() << "journal " << journal_path << ": skipped "
                           << replay->malformed_payloads
                           << " record(s) with malformed payloads";
  }

  AsyncRun::Start start;
  start.initial = std::move(replay->result);
  if (replay->done) {
    // The run had already finished; reconstruct the fronts and hand back an
    // immediately-done session. Critically, no pool is drawn and no RNG
    // advanced — re-running the loop here would diverge from the
    // uninterrupted run.
    finalize_fronts(start.initial);
    start.already_finished = true;
    return std::unique_ptr<AsyncRun>(new AsyncRun(*this, std::move(start)));
  }

  journal_started_ = journal_ != nullptr;
  // Normalize the on-disk journal before appending to it: drops the
  // damaged tail (if any) and re-frames the replayed state canonically.
  compact_journal(start.initial, replay->has_phase,
                  replay->completed_iteration, replay->rng);

  start.journaling = true;
  if (replay->has_phase) {
    start.needs_bootstrap = false;
    start.start_iteration = replay->completed_iteration + 1;
    start.has_rng_state = true;
    start.rng_state = replay->rng;
  } else {
    // Crash during the bootstrap phase: the same bootstrap set is re-drawn
    // from the seed, and the journaled tail short-circuits the evaluations
    // that already completed.
    start.needs_bootstrap = true;
  }
  start.replay = std::make_unique<ReplayState>(std::move(*replay));
  return std::unique_ptr<AsyncRun>(new AsyncRun(*this, std::move(start)));
}

OptimizationResult Optimizer::run() {
  std::unique_ptr<AsyncRun> session = start_async();
  drive(*session);
  return session->finish();
}

std::optional<OptimizationResult> Optimizer::resume(
    const std::string& journal_path) {
  std::unique_ptr<AsyncRun> session = resume_async(journal_path);
  if (session == nullptr) return std::nullopt;
  drive(*session);
  return session->finish();
}

OptimizationResult Optimizer::run_random_only() {
  AsyncRun::Start start;
  start.record_stats = false;
  start.bootstrap_only = true;
  AsyncRun session(*this, std::move(start));
  drive(session);
  OptimizationResult result = session.finish();
  result.random_phase_pareto = measured_front(result);
  result.pareto = result.random_phase_pareto;
  return result;
}

}  // namespace hm::hypermapper
