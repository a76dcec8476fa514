// The two DSE campaign workloads and the metric sets they report. Every
// workload reports every end-to-end metric (untraced run) or every
// per-layer metric (traced run); a layer that is not on a workload's path
// reports 0 and is printed as "n/a" (see perfbench/README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "campaign_driver.hpp"
#include "result.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Private scratch directory for this run.
};

/// min(4, nproc) - 1, at least 1: evaluation threads, served clients and
/// the daemon's pool size. One vCPU is left to the OS (and the daemon's
/// event loop and sandbox workers); on a shared 4-vCPU host this halved
/// the run-to-run spread of campaign_s.
[[nodiscard]] std::size_t eval_thread_count();
/// ThreadPool workers: one fewer than eval_thread_count(), because the
/// driver thread helps evaluate while it joins a batch.
[[nodiscard]] std::size_t pool_workers();

/// End-to-end metrics (untraced run).
struct EndToEnd {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  double campaign_p50_s = 0.0;
  double campaign_p90_s = 0.0;
  double campaigns_per_s = 0.0;
  double evals_per_s = 0.0;
  double front_hv = 0.0;
  double speedup_at_5cm = 0.0;
  double ok_fraction = 0.0;
  double peak_rss_mb = 0.0;

  void emit(Result& result) const;
};

/// Per-layer metrics (traced run). Zero where the layer is not on the
/// workload's path.
struct Layers {
  double dataset_render_s = 0.0;
  double propose_s = 0.0;
  double batch_idle_s = 0.0;
  double batches = 0.0;
  double evals = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_lookups = 0.0;
  double kf_preprocess_s = 0.0;
  double kf_pyramid_s = 0.0;
  double kf_raycast_s = 0.0;
  double kf_icp_s = 0.0;
  double kf_integrate_s = 0.0;
  double kf_ops_bilateral = 0.0;
  double kf_ops_raycast = 0.0;
  double kf_ops_icp = 0.0;
  double kf_ops_integrate = 0.0;
  double ef_frame_ms = 0.0;
  double ef_ops_surfel_fusion = 0.0;
  double ef_ops_rgb_track = 0.0;
  double ef_ops_so3_prealign = 0.0;
  double ef_ops_loop_closure = 0.0;
  double rf_fit_s = 0.0;
  double rf_predict_s = 0.0;
  double pool_tasks = 0.0;
  double pool_steals = 0.0;
  double pool_help_joins = 0.0;
  double sandbox_roundtrip_p50_us = 0.0;
  double sandbox_roundtrip_p90_us = 0.0;
  double sandbox_spawns = 0.0;
  double sandbox_recycles = 0.0;
  double serve_overhead_ms = 0.0;
  double serve_progress_frames = 0.0;
  double serve_busy_sheds = 0.0;
  double unattributed_s = 0.0;
  double traced_campaign_s = 0.0;
  /// The traced campaigns' median wall before the steal adjustment, and the
  /// median host steal share it took out (README, "Host steal").
  double traced_campaign_raw_s = 0.0;
  double host_steal_share = 0.0;
  /// Every traced evaluation's duration (slambench.evaluate_s and its
  /// percentiles are derived from these).
  std::vector<double> eval_seconds;
  /// Journal replay totals (the journal.* metrics).
  JournalReplay journal;

  /// Adds one traced campaign's driver-side attribution: propose and
  /// finish time, batch idle time, evaluations, scheduler deltas and
  /// unattributed time. `threads` evaluate concurrently in a batch.
  void add_campaign(const CampaignRun& run, std::size_t threads);

  void emit(Result& result) const;
};

[[nodiscard]] Result run_dse(const Options& options, bool kfusion);

/// A served phase of `seconds` (an idle daemon's drain, twins, load on a
/// second daemon) that fills only the serve.* and sandbox.* layers and adds
/// its checks (idle drain exits 130, served == direct) to `out`.
void serve_probe(const Options& options, double seconds, Layers& layers,
                 Result& out);

}  // namespace perfbench
