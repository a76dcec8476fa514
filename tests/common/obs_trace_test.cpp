#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"

namespace hm::common {
namespace {

/// Resets the global trace state around each test: the trace buffers and
/// the runtime toggle are process-wide.
class TraceGuard {
 public:
  TraceGuard() {
    set_trace_enabled(false);
    set_trace_request_only(false);
    clear_trace();
  }
  ~TraceGuard() {
    set_trace_enabled(false);
    set_trace_request_only(false);
    clear_trace();
  }
};

/// Asserts the Chrome-trace structural contract on a parsed document and
/// returns the traceEvents array.
const std::vector<JsonValue>& require_trace_shape(const JsonValue& document) {
  static const std::vector<JsonValue> empty;
  EXPECT_EQ(document.kind, JsonValue::Kind::kObject);
  const auto events = document.object.find("traceEvents");
  EXPECT_NE(events, document.object.end());
  if (events == document.object.end()) return empty;
  EXPECT_EQ(events->second.kind, JsonValue::Kind::kArray);
  for (const JsonValue& event : events->second.array) {
    EXPECT_EQ(event.kind, JsonValue::Kind::kObject);
    const auto field = [&event](const char* name) -> const JsonValue& {
      static const JsonValue missing;
      const auto it = event.object.find(name);
      EXPECT_NE(it, event.object.end()) << "missing field " << name;
      return it == event.object.end() ? missing : it->second;
    };
    EXPECT_EQ(field("name").kind, JsonValue::Kind::kString);
    EXPECT_EQ(field("cat").kind, JsonValue::Kind::kString);
    EXPECT_EQ(field("ph").string, "X");
    // pid is the real process (or remote-origin) pid since the merged
    // cross-process timeline landed; it just has to be a positive number.
    EXPECT_GE(field("pid").number, 1.0);
    EXPECT_EQ(field("tid").kind, JsonValue::Kind::kNumber);
    EXPECT_GE(field("ts").number, 0.0);
    EXPECT_GE(field("dur").number, 0.0);
  }
  return events->second.array;
}

// --- Span recording ------------------------------------------------------

TEST(Trace, EnabledToggleRoundTrip) {
  const TraceGuard guard;
  EXPECT_FALSE(trace_enabled());
  set_trace_enabled(true);
  EXPECT_TRUE(trace_enabled());
  set_trace_enabled(false);
  EXPECT_FALSE(trace_enabled());
}

TEST(Trace, DisabledSpansRecordNothing) {
  const TraceGuard guard;
  {
    const TraceSpan span("idle", "test");
  }
  EXPECT_TRUE(trace_snapshot().empty());
}

#if HM_TRACE_ENABLED

TEST(Trace, EnabledSpanRecordsNameCategoryAndDuration) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceSpan span("work", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GE(events[0].start_ns, 0);
  EXPECT_GE(events[0].duration_ns, 1'000'000);  // Slept >= 1 ms.
}

TEST(Trace, ClearDropsRecordedEvents) {
  const TraceGuard guard;
  set_trace_enabled(true);
  { const TraceSpan span("dropped", "test"); }
  ASSERT_FALSE(trace_snapshot().empty());
  clear_trace();
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST(Trace, SnapshotIsSortedByStartTime) {
  const TraceGuard guard;
  set_trace_enabled(true);
  for (int i = 0; i < 32; ++i) {
    const TraceSpan span("tick", "test");
  }
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 32u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

TEST(Trace, HistogramFeedingWorksWithTracingOff) {
  const TraceGuard guard;
  Histogram histogram;
  {
    const TraceSpan span("phase", "test", &histogram);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The span fed the histogram but — with the toggle off — recorded no
  // trace event, so phase metrics do not require trace capture.
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GT(snap.sum, 0.0);
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST(Trace, ThreadsGetDistinctTraceIds) {
  const TraceGuard guard;
  set_trace_enabled(true);
  const std::uint32_t main_tid = trace_thread_id();
  std::uint32_t other_tid = main_tid;
  // hm-lint: allow(no-raw-thread) exercises per-thread trace buffers directly
  std::thread worker([&other_tid] {
    const TraceSpan span("worker", "test");
    other_tid = trace_thread_id();
  });
  worker.join();
  EXPECT_NE(other_tid, main_tid);
  // The worker's buffer outlives the thread: its span is still in the
  // snapshot after join.
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, other_tid);
}

#else  // HM_TRACE_ENABLED == 0

TEST(Trace, CompiledOutSpansAreNoOps) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceSpan span("gone", "test");
  }
  EXPECT_TRUE(trace_snapshot().empty());
}

#endif  // HM_TRACE_ENABLED

// --- Chrome trace JSON ---------------------------------------------------

TEST(ChromeTraceJson, EmptyTraceParses) {
  const std::string json = chrome_trace_json(std::vector<RemoteTraceEvent>{});
  std::string error;
  const auto document = parse_json(json, &error);
  ASSERT_TRUE(document.has_value()) << error << "\n" << json;
  EXPECT_TRUE(require_trace_shape(*document).empty());
}

TEST(ChromeTraceJson, RoundTripPreservesEvents) {
  std::vector<RemoteTraceEvent> events;
  events.push_back({"alpha", "cat_a", 1, 0, 1'000, 2'500, 0});
  events.push_back({"beta \"quoted\"\\slash", "cat_b", 1, 3, 4'000'000, 1, 0});
  const std::string json = chrome_trace_json(events);

  std::string error;
  const auto document = parse_json(json, &error);
  ASSERT_TRUE(document.has_value()) << error << "\n" << json;
  const auto& parsed = require_trace_shape(*document);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].object.at("name").string, "alpha");
  EXPECT_EQ(parsed[0].object.at("cat").string, "cat_a");
  EXPECT_EQ(parsed[0].object.at("tid").number, 0.0);
  // ts/dur are microseconds; the inputs were 1000 ns / 2500 ns.
  EXPECT_DOUBLE_EQ(parsed[0].object.at("ts").number, 1.0);
  EXPECT_DOUBLE_EQ(parsed[0].object.at("dur").number, 2.5);
  // Escaped name survives the round trip.
  EXPECT_EQ(parsed[1].object.at("name").string, "beta \"quoted\"\\slash");
  EXPECT_EQ(parsed[1].object.at("tid").number, 3.0);
}

#if HM_TRACE_ENABLED

TEST(ChromeTraceJson, WriteChromeTraceProducesParsableFile) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceSpan outer("outer", "test");
    const TraceSpan inner("inner", "test");
  }
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(path));

  std::string content;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      content.append(buffer, n);
    }
    std::fclose(file);
  }
  std::remove(path.c_str());

  std::string error;
  const auto document = parse_json(content, &error);
  ASSERT_TRUE(document.has_value()) << error << "\n" << content;
  const auto& events = require_trace_shape(*document);
  ASSERT_EQ(events.size(), 2u);
  // Nested spans: sorted by start, the outer span starts first and fully
  // contains the inner one.
  EXPECT_EQ(events[0].object.at("name").string, "outer");
  EXPECT_EQ(events[1].object.at("name").string, "inner");
}

#endif  // HM_TRACE_ENABLED

TEST(ChromeTraceJson, WriteReportsUnwritablePath) {
  const TraceGuard guard;
  std::string error;
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

// --- Trace ids and cross-process span bundles ----------------------------

TEST(TraceId, GenerateIsNonzeroAndDistinct) {
  const std::uint64_t a = generate_trace_id();
  const std::uint64_t b = generate_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceId, ContextInstallsAndRestoresTheThreadLocalId) {
  set_current_trace_id(0);
  {
    const TraceContext outer(42);
    EXPECT_EQ(current_trace_id(), 42u);
    {
      const TraceContext inner(77);
      EXPECT_EQ(current_trace_id(), 77u);
    }
    EXPECT_EQ(current_trace_id(), 42u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

#if HM_TRACE_ENABLED

TEST(TraceId, SpansCarryTheCurrentTraceId) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceContext context(9001);
    const TraceSpan span("tagged", "test");
  }
  {
    const TraceSpan span("untagged", "test");
  }
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::uint64_t tagged = 0, untagged = 1;
  for (const TraceEvent& event : events) {
    if (std::string(event.name) == "tagged") tagged = event.trace_id;
    if (std::string(event.name) == "untagged") untagged = event.trace_id;
  }
  EXPECT_EQ(tagged, 9001u);
  EXPECT_EQ(untagged, 0u);
}

TEST(TraceId, RequestOnlyModeDropsSpansWithoutATraceId) {
  const TraceGuard guard;
  set_trace_enabled(true);
  set_trace_request_only(true);
  {
    const TraceContext context(4242);
    const TraceSpan span("tagged", "test");
  }
  {
    const TraceSpan span("untagged", "test");
  }
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "tagged");
  EXPECT_EQ(events[0].trace_id, 4242u);
}

TEST(TraceId, DropTraceSpansRemovesExactlyThatId) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceContext context(111);
    const TraceSpan span("first", "test");
  }
  {
    const TraceContext context(222);
    const TraceSpan span("second", "test");
  }
  // A foreign bundle for id 111 lands in the foreign store; the drop must
  // clear both homes of that id and neither home of the other.
  const std::string bundle = encode_span_bundle(111);
  ASSERT_TRUE(ingest_span_bundle(bundle));
  ASSERT_EQ(merged_trace_snapshot().size(), 3u);

  drop_trace_spans(111);
  const std::vector<RemoteTraceEvent> merged = merged_trace_snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "second");
  EXPECT_EQ(merged[0].trace_id, 222u);

  drop_trace_spans(0);  // No-op by contract, not a clear.
  EXPECT_EQ(merged_trace_snapshot().size(), 1u);
}

TEST(SpanBundle, RoundTripPreservesSpansAndProcessIds) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceContext context(31337);
    const TraceSpan span("bundled", "test");
  }
  const std::string bundle = encode_span_bundle();
  clear_trace();
  EXPECT_TRUE(merged_trace_snapshot().empty());

  ASSERT_TRUE(ingest_span_bundle(bundle));
  const std::vector<RemoteTraceEvent> merged = merged_trace_snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "bundled");
  EXPECT_EQ(merged[0].category, "test");
  EXPECT_EQ(merged[0].trace_id, 31337u);
  // Same-process round trip: the sender's epoch matches ours, so the
  // rebase shift is zero and the pid is preserved verbatim.
  EXPECT_GE(merged[0].process_id, 1u);
  EXPECT_GT(merged[0].duration_ns, 0);
}

TEST(SpanBundle, FilterKeepsOnlyTheRequestedTraceId) {
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceContext context(111);
    const TraceSpan span("wanted", "test");
  }
  {
    const TraceContext context(222);
    const TraceSpan span("unwanted", "test");
  }
  const std::string bundle = encode_span_bundle(111);
  clear_trace();
  ASSERT_TRUE(ingest_span_bundle(bundle));
  const std::vector<RemoteTraceEvent> merged = merged_trace_snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "wanted");
  EXPECT_EQ(merged[0].trace_id, 111u);
}

TEST(SpanBundle, IngestedForeignSpansShipOnwardInTheNextBundle) {
  // The daemon relays its sandbox workers' spans to the client: spans
  // ingested from one bundle must appear in a subsequently encoded one.
  const TraceGuard guard;
  set_trace_enabled(true);
  {
    const TraceContext context(5150);
    const TraceSpan span("origin", "test");
  }
  const std::string first = encode_span_bundle();
  clear_trace();
  ASSERT_TRUE(ingest_span_bundle(first));
  const std::string relayed = encode_span_bundle();
  clear_trace();
  ASSERT_TRUE(ingest_span_bundle(relayed));
  const std::vector<RemoteTraceEvent> merged = merged_trace_snapshot();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "origin");
  EXPECT_EQ(merged[0].trace_id, 5150u);
}

#endif  // HM_TRACE_ENABLED

TEST(SpanBundle, RejectsMalformedPayloads) {
  const TraceGuard guard;
  EXPECT_FALSE(ingest_span_bundle(""));
  EXPECT_FALSE(ingest_span_bundle("not a bundle"));
  EXPECT_FALSE(ingest_span_bundle("spans|1|2"));          // missing count
  EXPECT_FALSE(ingest_span_bundle("spans|1|2|1"));        // count without rows
  EXPECT_FALSE(ingest_span_bundle("spans|1|2|1|n|c|1"));  // truncated row
  EXPECT_TRUE(merged_trace_snapshot().empty());
}

TEST(ChromeTraceJson, RemoteEventsCarryPidAndTraceIdArgs) {
  std::vector<RemoteTraceEvent> events;
  events.push_back({"cross", "serve", 4242, 1, 1'000, 2'000, 987654321});
  events.push_back({"plain", "serve", 4242, 1, 5'000, 1'000, 0});
  const std::string json = chrome_trace_json(events);

  std::string error;
  const auto document = parse_json(json, &error);
  ASSERT_TRUE(document.has_value()) << error << "\n" << json;
  const auto& parsed = require_trace_shape(*document);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].object.at("pid").number, 4242.0);
  ASSERT_TRUE(parsed[0].object.count("args"));
  EXPECT_EQ(parsed[0].object.at("args").object.at("trace_id").string,
            "987654321");
  // A zero trace id stays out of the args so untagged spans render plain.
  EXPECT_FALSE(parsed[1].object.count("args") &&
               parsed[1].object.at("args").object.count("trace_id"));
}

}  // namespace
}  // namespace hm::common
