// The benchmark's arithmetic: percentiles with their sample counts, span
// self time, batch idle time and unattributed time. Everything here is a
// pure function of recorded intervals, so perfbench/tests checks it on
// hand-built inputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's monotonic clock (steady_clock since the first
/// call in this process).
[[nodiscard]] double now_seconds();

/// A half-open time interval [start, end) in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double length() const { return end > start ? end - start : 0.0; }
};

/// Length of the union of `intervals` clipped to `window`; overlapping
/// intervals count once.
[[nodiscard]] double covered_seconds(std::vector<Interval> intervals,
                                     Interval window);

/// A span's self time: its length minus the part its children cover. Child
/// intervals may overlap each other and may stick out of the parent.
[[nodiscard]] double self_time(Interval parent,
                               const std::vector<Interval>& children);

/// Nearest-rank percentile of a sample set, with the count of samples that
/// lie beyond it (ranked after it).
struct Percentile {
  double percent = 0.0;   ///< e.g. 90 for p90.
  double value = 0.0;
  std::size_t count = 0;  ///< Samples in the set.
  std::size_t beyond = 0; ///< Samples ranked after the percentile's sample.
};

/// The `percent`-th nearest-rank percentile (0 < percent <= 100) of
/// `values`. An empty set yields value 0 with count 0.
[[nodiscard]] Percentile percentile(std::vector<double> values, double percent);

/// The highest of p50, p90, p99, p99.9 that still has at least
/// `min_beyond` samples beyond it; p50 when none qualifies (check `beyond`).
[[nodiscard]] Percentile highest_supported_percentile(
    const std::vector<double>& values, std::size_t min_beyond = 10);

/// "p90 = 0.0123 (n=200, 20 beyond)", or a note that no percentile has
/// ten samples beyond it.
[[nodiscard]] std::string describe_tail(const Percentile& p);

/// Median with the usual mean-of-middle-pair rule for even counts.
[[nodiscard]] double median(std::vector<double> values);
/// Arithmetic mean; 0 for an empty set.
[[nodiscard]] double mean(const std::vector<double>& values);

/// One evaluation batch as the driver saw it: its wall interval and the
/// summed busy time of the evaluations that ran inside it.
struct BatchRecord {
  Interval wall;
  double busy_seconds = 0.0;
};

/// Worker time lost waiting on each batch's slowest configuration:
/// sum over batches of (batch wall x threads - summed busy time), clamped
/// at zero per batch.
[[nodiscard]] double batch_idle_seconds(const std::vector<BatchRecord>& batches,
                                        std::size_t threads);

/// Campaign wall minus the time covered by the spans attributed to a layer
/// on the blocking path (the driver thread's propose and batch spans).
[[nodiscard]] double unattributed_seconds(
    Interval campaign, const std::vector<Interval>& attributed);

}  // namespace perfbench
