#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace hm::common {
namespace {

/// Shortest-round-trip-ish deterministic double formatting for exports.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Splits a full identity `name{key="v",...}` into base name and the label
/// body (without braces); the body is empty for unlabeled metrics.
std::pair<std::string_view, std::string_view> split_identity(
    std::string_view identity) {
  const std::size_t brace = identity.find('{');
  if (brace == std::string_view::npos) return {identity, {}};
  std::string_view body = identity.substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  return {identity.substr(0, brace), body};
}

/// Emits a `# TYPE` line once per base metric name.
void emit_type_line(std::string& out, std::string_view base,
                    std::string_view type, std::string& last_base) {
  if (base == last_base) return;
  last_base.assign(base);
  out.append("# TYPE ");
  out.append(base);
  out.push_back(' ');
  out.append(type);
  out.push_back('\n');
}

/// `base_suffix{labels,extra}` or `base_suffix{extra}` / `base_suffix`.
void append_series(std::string& out, std::string_view base,
                   std::string_view suffix, std::string_view labels,
                   std::string_view extra_label) {
  out.append(base);
  out.append(suffix);
  if (labels.empty() && extra_label.empty()) return;
  out.push_back('{');
  out.append(labels);
  if (!labels.empty() && !extra_label.empty()) out.push_back(',');
  out.append(extra_label);
  out.push_back('}');
}

}  // namespace

double HistogramLayout::lower_edge(std::size_t bucket) const noexcept {
  return lowest * std::pow(growth, static_cast<double>(bucket) - 1.0);
}

std::size_t HistogramLayout::bucket_index(double value) const noexcept {
  // Underflow collects everything the log cannot place: non-finite,
  // non-positive, and values below the first edge.
  if (!(value >= lowest)) return 0;
  const double raw = std::log(value / lowest) / std::log(growth);
  std::size_t k = static_cast<std::size_t>(
      std::clamp(1.0 + std::floor(raw), 1.0, static_cast<double>(bins + 1)));
  // The log is inexact near edges; fix up against the exact pow-derived
  // boundaries so bucket membership is lower-inclusive to the bit.
  while (k > 1 && value < lower_edge(k)) --k;
  while (k <= bins && value >= lower_edge(k + 1)) ++k;
  return k;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    cumulative += buckets[k];
    if (cumulative >= target) {
      // Report the bucket's upper edge (the conservative bound); the
      // overflow bucket has no finite upper edge, fall back to its lower.
      return k + 1 < buckets.size() ? layout.lower_edge(k + 1)
                                    : layout.lower_edge(k);
    }
  }
  return layout.lower_edge(buckets.size() - 1);
}

HistogramShard::HistogramShard(HistogramLayout layout)
    : layout_(layout), buckets_(layout.bucket_count(), 0) {}

void HistogramShard::observe(double value) noexcept {
  buckets_[layout_.bucket_index(value)] += 1;
  count_ += 1;
  if (std::isfinite(value)) sum_ += value;
}

HistogramShard& HistogramShard::operator+=(
    const HistogramShard& other) noexcept {
  const std::size_t n = std::min(buckets_.size(), other.buckets_.size());
  for (std::size_t k = 0; k < n; ++k) buckets_[k] += other.buckets_[k];
  count_ += other.count_;
  sum_ += other.sum_;
  return *this;
}

HistogramSnapshot HistogramShard::snapshot() const {
  HistogramSnapshot snap;
  snap.layout = layout_;
  snap.buckets = buckets_;
  snap.count = count_;
  snap.sum = sum_;
  return snap;
}

Histogram::Histogram(HistogramLayout layout)
    : layout_(layout), buckets_(layout.bucket_count()) {}

void Histogram::observe(double value) noexcept {
  buckets_[layout_.bucket_index(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::merge(const HistogramShard& shard) noexcept {
  const std::size_t n = std::min(buckets_.size(), shard.buckets().size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t delta = shard.buckets()[k];
    if (delta != 0) buckets_[k].fetch_add(delta, std::memory_order_relaxed);
  }
  count_.fetch_add(shard.count(), std::memory_order_relaxed);
  sum_.fetch_add(shard.sum(), std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.layout = layout_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snap.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view key,
                                  std::string_view value) {
  return counter(labeled_metric(name, key, value));
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::vector<MetricLabel> labels) {
  return counter(labeled_metric(name, std::move(labels)));
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view key,
                              std::string_view value) {
  return gauge(labeled_metric(name, key, value));
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::vector<MetricLabel> labels) {
  return gauge(labeled_metric(name, std::move(labels)));
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      HistogramLayout layout) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(layout))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view key,
                                      std::string_view value,
                                      HistogramLayout layout) {
  return histogram(labeled_metric(name, key, value), layout);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<MetricLabel> labels,
                                      HistogramLayout layout) {
  return histogram(labeled_metric(name, std::move(labels)), layout);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->snapshot());
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string prometheus_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out.append("\\\\"); break;
      case '"': out.append("\\\""); break;
      case '\n': out.append("\\n"); break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string labeled_metric(std::string_view name, std::string_view key,
                           std::string_view value) {
  std::string identity;
  identity.reserve(name.size() + key.size() + value.size() + 6);
  identity.append(name);
  identity.push_back('{');
  identity.append(key);
  identity.append("=\"");
  identity.append(prometheus_escape(value));
  identity.append("\"}");
  return identity;
}

std::string labeled_metric(std::string_view name,
                           std::vector<MetricLabel> labels) {
  // Sort by key so identity is independent of caller label ordering; ties
  // break on value to keep the result deterministic even for (unusual)
  // duplicate keys.
  std::sort(labels.begin(), labels.end(),
            [](const MetricLabel& a, const MetricLabel& b) {
              return a.key != b.key ? a.key < b.key : a.value < b.value;
            });
  std::string identity;
  identity.append(name);
  identity.push_back('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) identity.push_back(',');
    identity.append(labels[i].key);
    identity.append("=\"");
    identity.append(prometheus_escape(labels[i].value));
    identity.push_back('"');
  }
  identity.push_back('}');
  return identity;
}

std::string to_prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_base;
  for (const auto& [identity, value] : snapshot.counters) {
    const auto [base, labels] = split_identity(identity);
    emit_type_line(out, base, "counter", last_base);
    append_series(out, base, "", labels, {});
    out.push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  last_base.clear();
  for (const auto& [identity, value] : snapshot.gauges) {
    const auto [base, labels] = split_identity(identity);
    emit_type_line(out, base, "gauge", last_base);
    append_series(out, base, "", labels, {});
    out.push_back(' ');
    out.append(format_double(value));
    out.push_back('\n');
  }
  last_base.clear();
  for (const auto& [identity, histogram] : snapshot.histograms) {
    const auto [base, labels] = split_identity(identity);
    emit_type_line(out, base, "histogram", last_base);
    // Prometheus buckets are cumulative with `le` upper bounds; our bins
    // are lower-inclusive, so an exact edge value sits one `le` higher
    // than Prometheus convention — a half-ULP detail the exports accept.
    std::uint64_t cumulative = 0;
    for (std::size_t k = 0; k + 1 < histogram.buckets.size(); ++k) {
      cumulative += histogram.buckets[k];
      const std::string le =
          "le=\"" + format_double(histogram.layout.lower_edge(k + 1)) + "\"";
      append_series(out, base, "_bucket", labels, le);
      out.push_back(' ');
      out.append(std::to_string(cumulative));
      out.push_back('\n');
    }
    append_series(out, base, "_bucket", labels, "le=\"+Inf\"");
    out.push_back(' ');
    out.append(std::to_string(histogram.count));
    out.push_back('\n');
    append_series(out, base, "_sum", labels, {});
    out.push_back(' ');
    out.append(format_double(histogram.sum));
    out.push_back('\n');
    append_series(out, base, "_count", labels, {});
    out.push_back(' ');
    out.append(std::to_string(histogram.count));
    out.push_back('\n');
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object().key("counters").begin_object();
  for (const auto& [identity, value] : snapshot.counters) {
    json.key(identity).integer(value);
  }
  json.end_object().key("gauges").begin_object();
  for (const auto& [identity, value] : snapshot.gauges) {
    json.key(identity).number(value);
  }
  json.end_object().key("histograms").begin_object();
  for (const auto& [identity, histogram] : snapshot.histograms) {
    json.key(identity).begin_object();
    json.key("count").integer(histogram.count);
    json.key("sum").number(histogram.sum);
    json.key("mean").number(histogram.mean());
    json.key("p50").number(histogram.quantile(0.5));
    json.key("p99").number(histogram.quantile(0.99));
    json.key("buckets").begin_array();
    for (const std::uint64_t count : histogram.buckets) json.integer(count);
    json.end_array().end_object();
  }
  json.end_object().end_object();
  return json.str();
}

std::string metrics_summary(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [identity, value] : snapshot.counters) {
    out.append("  ");
    out.append(identity);
    out.append(" = ");
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  for (const auto& [identity, value] : snapshot.gauges) {
    out.append("  ");
    out.append(identity);
    out.append(" = ");
    out.append(format_double(value));
    out.push_back('\n');
  }
  for (const auto& [identity, histogram] : snapshot.histograms) {
    out.append("  ");
    out.append(identity);
    out.append(" : count=");
    out.append(std::to_string(histogram.count));
    out.append(" mean=");
    out.append(format_double(histogram.mean()));
    out.append(" p50<=");
    out.append(format_double(histogram.quantile(0.5)));
    out.append(" p99<=");
    out.append(format_double(histogram.quantile(0.99)));
    out.push_back('\n');
  }
  return out;
}

bool write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path, std::string* error) {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = json ? to_json(snapshot)
                                : to_prometheus_text(snapshot);
  return write_file_atomic(path, body, error);
}

}  // namespace hm::common
