#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace hm::common {
namespace {

// --- Histogram bin boundaries -------------------------------------------

TEST(HistogramLayout, UnderflowCollectsUnplaceableValues) {
  const HistogramLayout layout;
  EXPECT_EQ(layout.bucket_index(0.0), 0u);
  EXPECT_EQ(layout.bucket_index(-1.0), 0u);
  EXPECT_EQ(layout.bucket_index(layout.lowest * 0.999), 0u);
  EXPECT_EQ(layout.bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(layout.bucket_index(-std::numeric_limits<double>::infinity()), 0u);
}

TEST(HistogramLayout, LowerEdgesAreInclusive) {
  const HistogramLayout layout;
  // The exact lower edge of every bucket belongs to that bucket, and the
  // largest representable value below it belongs to the previous one.
  for (std::size_t k = 1; k <= layout.bins; ++k) {
    const double edge = layout.lower_edge(k);
    EXPECT_EQ(layout.bucket_index(edge), k) << "edge of bucket " << k;
    const double below = std::nextafter(edge, 0.0);
    EXPECT_EQ(layout.bucket_index(below), k - 1) << "below edge of " << k;
  }
}

TEST(HistogramLayout, FirstAndOverflowBuckets) {
  const HistogramLayout layout;
  EXPECT_EQ(layout.bucket_index(layout.lowest), 1u);
  const double top = layout.lower_edge(layout.bins + 1);
  EXPECT_EQ(layout.bucket_index(std::nextafter(top, 0.0)), layout.bins);
  EXPECT_EQ(layout.bucket_index(top), layout.bins + 1);
  EXPECT_EQ(layout.bucket_index(top * 1e6), layout.bins + 1);
  EXPECT_EQ(layout.bucket_index(std::numeric_limits<double>::infinity()),
            layout.bins + 1);
}

TEST(HistogramLayout, MidBucketValuesLand) {
  const HistogramLayout layout;  // lowest=1e-7, growth=2.
  // 1.0 s: k is the unique bucket with lower_edge(k) <= 1.0 < lower_edge(k+1).
  const std::size_t k = layout.bucket_index(1.0);
  ASSERT_GE(k, 1u);
  ASSERT_LE(k, layout.bins);
  EXPECT_LE(layout.lower_edge(k), 1.0);
  EXPECT_GT(layout.lower_edge(k + 1), 1.0);
}

// --- Shard merge ---------------------------------------------------------

HistogramShard shard_of(std::initializer_list<double> values) {
  HistogramShard shard;
  for (const double v : values) shard.observe(v);
  return shard;
}

bool same_state(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  return a.buckets == b.buckets && a.count == b.count && a.sum == b.sum;
}

TEST(HistogramShard, MergeIsAssociative) {
  const auto a = shard_of({1e-3, 0.5, 7.0});
  const auto b = shard_of({2e-6, 2e-6, 1e9});
  const auto c = shard_of({0.0, -3.0, 0.25});

  HistogramShard left = a;   // (a + b) + c
  left += b;
  left += c;
  HistogramShard bc = b;     // a + (b + c)
  bc += c;
  HistogramShard right = a;
  right += bc;
  EXPECT_TRUE(same_state(left.snapshot(), right.snapshot()));
}

TEST(HistogramShard, MergeIsCommutative) {
  const auto a = shard_of({1e-3, 0.5, 7.0});
  const auto b = shard_of({2e-6, 1e9, 0.0});
  HistogramShard ab = a;
  ab += b;
  HistogramShard ba = b;
  ba += a;
  EXPECT_TRUE(same_state(ab.snapshot(), ba.snapshot()));
}

TEST(Histogram, ShardMergeMatchesDirectObserve) {
  Histogram direct;
  Histogram merged;
  HistogramShard shard_a;
  HistogramShard shard_b;
  const double values[] = {1e-8, 1e-7, 3e-4, 0.02, 0.02, 5.0, 1e5};
  std::size_t i = 0;
  for (const double v : values) {
    direct.observe(v);
    (i++ % 2 == 0 ? shard_a : shard_b).observe(v);
  }
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_TRUE(same_state(direct.snapshot(), merged.snapshot()));
}

TEST(Histogram, SnapshotCountSumMeanQuantile) {
  Histogram histogram;
  for (int i = 0; i < 10; ++i) histogram.observe(1.0);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 10u);
  EXPECT_DOUBLE_EQ(snap.sum, 10.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1.0);
  // Quantiles report the containing bucket's upper edge: a conservative
  // bound within one growth factor of the true value.
  for (const double q : {0.5, 0.99}) {
    EXPECT_GE(snap.quantile(q), 1.0);
    EXPECT_LE(snap.quantile(q), 2.0);
  }
}

TEST(Histogram, NonFiniteObservationsCountButDoNotPoisonSum) {
  Histogram histogram;
  histogram.observe(std::numeric_limits<double>::quiet_NaN());
  histogram.observe(std::numeric_limits<double>::infinity());
  histogram.observe(2.0);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
}

// --- Registry ------------------------------------------------------------

TEST(MetricsRegistry, SameNameResolvesToSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hm_test_total");
  Counter& b = registry.counter("hm_test_total");
  EXPECT_EQ(&a, &b);
  a.increment(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(MetricsRegistry, LabeledIdentity) {
  EXPECT_EQ(labeled_metric("hm_eval_outcomes_total", "status", "ok"),
            "hm_eval_outcomes_total{status=\"ok\"}");
  MetricsRegistry registry;
  Counter& labeled = registry.counter("hm_x_total", "kind", "a");
  EXPECT_EQ(&labeled, &registry.counter("hm_x_total{kind=\"a\"}"));
  EXPECT_NE(&labeled, &registry.counter("hm_x_total", "kind", "b"));
}

TEST(MetricsRegistry, MultiLabelIdentityIsSortedAndEscaped) {
  // Caller label order must not matter: both orders land on the same
  // canonical identity (and therefore the same metric).
  const std::string forward = labeled_metric(
      "hm_campaign_state", {{"campaign", "c-1"}, {"state", "running"}});
  const std::string reversed = labeled_metric(
      "hm_campaign_state", {{"state", "running"}, {"campaign", "c-1"}});
  EXPECT_EQ(forward, reversed);
  EXPECT_EQ(forward,
            "hm_campaign_state{campaign=\"c-1\",state=\"running\"}");
  MetricsRegistry registry;
  EXPECT_EQ(&registry.gauge("hm_campaign_state",
                            {{"campaign", "c-1"}, {"state", "running"}}),
            &registry.gauge("hm_campaign_state",
                            {{"state", "running"}, {"campaign", "c-1"}}));

  // Label values carrying quotes, backslashes, and newlines must render
  // in the escaped exposition form.
  EXPECT_EQ(prometheus_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(labeled_metric("m", "k", "he said \"hi\"\n"),
            "m{k=\"he said \\\"hi\\\"\\n\"}");
}

TEST(MetricsRegistry, SnapshotIsSortedByIdentity) {
  MetricsRegistry registry;
  // Register out of order; the snapshot must come back sorted (the
  // no-unordered-output-iteration invariant for exports).
  registry.counter("zeta_total").increment();
  registry.counter("alpha_total").increment(2);
  registry.counter("mid_total", "k", "v").increment(5);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha_total");
  EXPECT_EQ(snap.counters[1].first, "mid_total{k=\"v\"}");
  EXPECT_EQ(snap.counters[2].first, "zeta_total");
  EXPECT_EQ(snap.counters[1].second, 5u);
}

TEST(MetricsRegistry, SnapshotsAreDeterministic) {
  MetricsRegistry registry;
  registry.counter("b_total").increment();
  registry.gauge("a_gauge").set(1.5);
  registry.histogram("c_seconds").observe(0.01);
  const MetricsSnapshot first = registry.snapshot();
  const MetricsSnapshot second = registry.snapshot();
  EXPECT_EQ(to_prometheus_text(first), to_prometheus_text(second));
  EXPECT_EQ(to_json(first), to_json(second));
}

// --- Exposition formats --------------------------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsRegistry registry;
  registry.counter("hm_events_total", "kind", "a").increment(2);
  registry.counter("hm_events_total", "kind", "b").increment(3);
  registry.gauge("hm_front_size").set(7.0);
  Histogram& h = registry.histogram("hm_phase_seconds", "phase", "track");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(1e12);  // Overflow bucket.
  return registry.snapshot();
}

TEST(PrometheusText, TypeLinesAndLabeledSeries) {
  const std::string text = to_prometheus_text(sample_snapshot());
  EXPECT_NE(text.find("# TYPE hm_events_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("hm_events_total{kind=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("hm_events_total{kind=\"b\"} 3\n"), std::string::npos);
  // One TYPE line per base name even with two labeled series.
  EXPECT_EQ(text.find("# TYPE hm_events_total counter"),
            text.rfind("# TYPE hm_events_total counter"));
  EXPECT_NE(text.find("# TYPE hm_front_size gauge\n"), std::string::npos);
  EXPECT_NE(text.find("hm_front_size 7\n"), std::string::npos);
}

TEST(PrometheusText, HistogramSeriesAreCumulative) {
  const std::string text = to_prometheus_text(sample_snapshot());
  EXPECT_NE(text.find("# TYPE hm_phase_seconds histogram\n"),
            std::string::npos);
  // The final cumulative bucket and the count both equal 3 observations.
  EXPECT_NE(text.find(
                "hm_phase_seconds_bucket{phase=\"track\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hm_phase_seconds_count{phase=\"track\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hm_phase_seconds_sum{phase=\"track\"} "),
            std::string::npos);
  // Cumulative counts never decrease along the le series.
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  while ((pos = text.find("hm_phase_seconds_bucket", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::uint64_t value = std::stoull(text.substr(space + 1));
    EXPECT_GE(value, previous);
    previous = value;
    pos = space;
  }
}

TEST(JsonExport, EscapesAndStructure) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  const std::string json = to_json(sample_snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"hm_events_total{kind=\\\"a\\\"}\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
}

TEST(WriteMetricsFile, ExtensionSelectsFormat) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string dir = ::testing::TempDir();
  const std::string prom_path = dir + "/obs_metrics_test.txt";
  const std::string json_path = dir + "/obs_metrics_test.json";
  ASSERT_TRUE(write_metrics_file(snap, prom_path));
  ASSERT_TRUE(write_metrics_file(snap, json_path));

  const auto read_all = [](const std::string& path) {
    std::string content;
    if (std::FILE* file = std::fopen(path.c_str(), "rb")) {
      char buffer[4096];
      std::size_t n = 0;
      while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        content.append(buffer, n);
      }
      std::fclose(file);
    }
    return content;
  };
  EXPECT_EQ(read_all(prom_path), to_prometheus_text(snap));
  EXPECT_EQ(read_all(json_path), to_json(snap));
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

TEST(WriteMetricsFile, ReportsUnwritablePath) {
  std::string error;
  EXPECT_FALSE(write_metrics_file(sample_snapshot(),
                                  "/nonexistent-dir/metrics.txt", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace hm::common
