// The benchmark's campaign driver: the same loop Optimizer::run() uses
// (AsyncRun::next_batch, then every pending slot evaluated through the
// optimizer's supervision wrapper on a ThreadPool, then ingest), with
// bench-owned timestamps around each call. Untraced runs stamp only the
// per-batch boundaries; traced runs also time every evaluation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "hypermapper/optimizer.hpp"

namespace perfbench {

struct CampaignRun {
  hm::hypermapper::OptimizationResult result;
  Interval wall;                  ///< First proposal to final result.
  std::vector<Interval> propose;  ///< AsyncRun::next_batch calls.
  Interval finish;                ///< AsyncRun::finish.
  std::vector<BatchRecord> batches;
  std::vector<double> eval_seconds;  ///< Per evaluation; traced runs only.
  std::size_t evals_attempted = 0;
  hm::common::SchedulerStats scheduler;  ///< Pool counter deltas.

  [[nodiscard]] double wall_seconds() const { return wall.length(); }
  [[nodiscard]] std::size_t failed_evals() const {
    return result.quarantine.size();
  }
  /// Campaign wall not covered by propose, batch or finish spans.
  [[nodiscard]] double unattributed() const;
};

/// Runs one fresh journaled campaign to completion. Evaluations are
/// dispatched on `pool` (serially when null).
[[nodiscard]] CampaignRun drive_campaign(hm::hypermapper::Optimizer& optimizer,
                                         hm::common::ThreadPool* pool,
                                         bool traced);

/// Threads that evaluate concurrently in a batch: the pool's workers plus
/// the driver thread, which helps while it joins.
[[nodiscard]] std::size_t eval_threads(const hm::common::ThreadPool* pool);

/// FNV-1a 64-bit digest.
[[nodiscard]] std::uint64_t digest(const std::string& bytes);

/// Samples CSV (the same rendering hypermapper::samples_to_csv gives).
[[nodiscard]] std::string samples_csv(
    const hm::hypermapper::DesignSpace& space,
    const hm::hypermapper::OptimizationResult& result,
    const std::vector<std::string>& objective_names);

/// Surrogate replay on a campaign's final training set: one forest per
/// objective fitted with the campaign's ForestConfig (seeded like the last
/// active-learning iteration), then predict_batch over a pool of
/// `pool_size` configurations. Adds the timed seconds to fit_s/predict_s.
void replay_surrogate(const hm::hypermapper::DesignSpace& space,
                      const hm::hypermapper::OptimizerConfig& config,
                      const hm::hypermapper::OptimizationResult& result,
                      hm::common::ThreadPool* pool, double& fit_s,
                      double& predict_s);

/// Journal replay: reads a campaign's WAL and re-appends every record
/// through a fresh fsync'd JournalWriter at `scratch_path`, timing each
/// append. Adds to the totals and the per-append sample set.
struct JournalReplay {
  std::size_t records = 0;
  std::size_t bytes = 0;
  std::vector<double> append_seconds;
};
[[nodiscard]] bool replay_journal(const std::string& wal_path,
                                  const std::string& scratch_path,
                                  JournalReplay& totals, std::string* error);

}  // namespace perfbench
