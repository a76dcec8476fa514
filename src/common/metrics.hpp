// Process-wide metrics: monotonic counters, gauges, and log-scaled-bin
// histograms behind a thread-safe registry with deterministic (sorted)
// snapshots. Hot paths touch only relaxed atomics; callers are expected to
// look a metric up once (under the registry mutex) and keep the reference,
// which stays valid for the registry's lifetime.
//
// Metric identity is the full Prometheus-style string, e.g.
// `hm_kernel_ops_total{kernel="raycast"}` — the registry does not model
// label sets beyond building that identity, which keeps lookups a single
// map find and makes snapshot ordering trivially deterministic (std::map,
// per the no-unordered-output-iteration invariant).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hm::common {

/// Monotonically increasing event count. Relaxed atomics: totals are only
/// read at snapshot points, never used for synchronisation.
class Counter {
 public:
  void increment(std::uint64_t by = 1) noexcept {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (front size, utilisation, ...).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scaled bin layout shared by Histogram and HistogramShard.
/// Bucket 0 is the underflow bin (value < lowest, including non-finite and
/// non-positive values); buckets 1..bins cover
/// [lowest*growth^(k-1), lowest*growth^k) lower-inclusive; bucket bins+1 is
/// the overflow bin. The defaults span 100 ns .. ~3 hours in seconds.
struct HistogramLayout {
  double lowest = 1e-7;
  double growth = 2.0;
  std::size_t bins = 40;

  [[nodiscard]] std::size_t bucket_count() const noexcept { return bins + 2; }
  /// Lower edge of bucket `k` for k in [1, bins+1]: lowest * growth^(k-1).
  [[nodiscard]] double lower_edge(std::size_t bucket) const noexcept;
  /// Index of the bucket that `value` falls into.
  [[nodiscard]] std::size_t bucket_index(double value) const noexcept;

  [[nodiscard]] bool operator==(const HistogramLayout& other) const noexcept {
    return lowest == other.lowest && growth == other.growth &&
           bins == other.bins;
  }
};

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  HistogramLayout layout;
  std::vector<std::uint64_t> buckets;  ///< Size layout.bucket_count().
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Upper-bound estimate of the q-quantile (q in [0,1]) from bin edges.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Unsynchronised single-owner histogram. Workers observe into a private
/// shard and merge it into the shared Histogram once, at join time; merging
/// is associative and commutative, so the merged result is independent of
/// worker interleaving.
class HistogramShard {
 public:
  explicit HistogramShard(HistogramLayout layout = HistogramLayout{});

  void observe(double value) noexcept;
  HistogramShard& operator+=(const HistogramShard& other) noexcept;

  [[nodiscard]] const HistogramLayout& layout() const noexcept {
    return layout_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  HistogramLayout layout_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Shared, thread-safe histogram. observe() is wait-free (relaxed atomic
/// adds); merge() folds a worker shard in bucket-by-bucket.
class Histogram {
 public:
  explicit Histogram(HistogramLayout layout = HistogramLayout{});

  void observe(double value) noexcept;
  void merge(const HistogramShard& shard) noexcept;

  [[nodiscard]] const HistogramLayout& layout() const noexcept {
    return layout_;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  HistogramLayout layout_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One label pair for the multi-label metric surface. Values may contain
/// arbitrary bytes; rendering escapes them per the Prometheus exposition
/// format. Keys are expected to be plain `[a-zA-Z_][a-zA-Z0-9_]*` metric
/// label names and are rendered verbatim.
struct MetricLabel {
  std::string key;
  std::string value;
};

/// One registry snapshot: every metric, sorted by identity.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Thread-safe name -> metric registry. Metrics are created on first use
/// and never removed, so returned references remain valid for the
/// registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Counter& counter(std::string_view name, std::string_view key,
                                 std::string_view value);
  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::vector<MetricLabel> labels);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name, std::string_view key,
                             std::string_view value);
  [[nodiscard]] Gauge& gauge(std::string_view name,
                             std::vector<MetricLabel> labels);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     HistogramLayout layout = HistogramLayout{});
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::string_view key,
                                     std::string_view value,
                                     HistogramLayout layout = HistogramLayout{});
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<MetricLabel> labels,
                                     HistogramLayout layout = HistogramLayout{});

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The process-wide registry used by the built-in instrumentation.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>>
      counters_;  // hm-guarded-by(mutex_)
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
      gauges_;  // hm-guarded-by(mutex_)
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;  // hm-guarded-by(mutex_)
};

/// Escapes a label value for the Prometheus exposition format:
/// `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
[[nodiscard]] std::string prometheus_escape(std::string_view value);

/// Builds the canonical labeled identity `name{key="value"}` with the value
/// Prometheus-escaped.
[[nodiscard]] std::string labeled_metric(std::string_view name,
                                         std::string_view key,
                                         std::string_view value);

/// Builds the canonical multi-label identity `name{k1="v1",k2="v2",...}`:
/// labels are sorted by key (so identical label sets always produce the
/// same identity regardless of caller ordering) and values are
/// Prometheus-escaped.
[[nodiscard]] std::string labeled_metric(std::string_view name,
                                         std::vector<MetricLabel> labels);

/// Prometheus text exposition format (TYPE lines, cumulative `_bucket{le=}`
/// series, `_sum`/`_count`). Deterministic: follows snapshot order.
[[nodiscard]] std::string to_prometheus_text(const MetricsSnapshot& snapshot);

/// JSON object mirroring the snapshot (counters / gauges / histograms).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Compact human-readable report for end-of-run console output.
[[nodiscard]] std::string metrics_summary(const MetricsSnapshot& snapshot);

/// Writes the snapshot atomically; `.json` extension selects to_json,
/// anything else the Prometheus text format. Returns false (and sets
/// `error` when non-null) on I/O failure.
[[nodiscard]] bool write_metrics_file(const MetricsSnapshot& snapshot,
                                      const std::string& path,
                                      std::string* error = nullptr);

}  // namespace hm::common
