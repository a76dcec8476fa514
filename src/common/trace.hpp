// RAII trace spans recorded into per-thread buffers and exported as Chrome
// trace-event JSON (load in chrome://tracing or Perfetto). Tracing has two
// gates: a runtime toggle (`set_trace_enabled`, off by default — a disabled
// span costs one relaxed load) and a compile-time gate (`HM_TRACE_ENABLED`,
// set by the CMake option `HM_TRACE`; when 0 the span class is an empty
// no-op and every instrumentation site compiles away).
//
// Span names and categories must be string literals (or otherwise outlive
// the trace buffers): events store the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef HM_TRACE_ENABLED
#define HM_TRACE_ENABLED 1
#endif

namespace hm::common {

class Histogram;

/// One completed span. Times are nanoseconds on the process-local steady
/// timeline (zero at the first trace operation). `trace_id` is the
/// request-scoped correlation id that was current on the recording thread
/// (0 = no request context).
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
};

/// One span in a cross-process merged timeline: owned strings (the source
/// process's literals are not addressable here), an explicit process id,
/// and times rebased onto the receiving process's trace timeline.
struct RemoteTraceEvent {
  std::string name;
  std::string category;
  std::uint32_t process_id = 0;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
};

/// Runtime toggle for span recording. Off by default.
void set_trace_enabled(bool enabled) noexcept;
[[nodiscard]] bool trace_enabled() noexcept;

/// Runtime filter for request-scoped tracing: when set, spans recorded on
/// a thread whose current trace id is 0 are dropped instead of buffered.
/// Lets a long-lived daemon enable tracing on behalf of one traced request
/// without accumulating spans for every other unit of work it runs. Off by
/// default (all spans recorded).
void set_trace_request_only(bool enabled) noexcept;
[[nodiscard]] bool trace_request_only() noexcept;

/// Runtime toggle for the span -> duration-histogram feed. On by default
/// (phase duration metrics do not require trace capture); turning it off
/// makes HM_TRACE_SPAN sites skip the histogram-argument evaluation
/// entirely, collapsing a fully disabled span to two relaxed loads. Used
/// by the trace_overhead bench to separate histogram cost from trace
/// recording cost.
void set_span_histograms_enabled(bool enabled) noexcept;
[[nodiscard]] bool span_histograms_enabled() noexcept;

/// Small dense id of the calling thread on the trace timeline (assigned in
/// first-use order; the first tracing thread — normally main — gets 0).
[[nodiscard]] std::uint32_t trace_thread_id();

/// The trace id currently attached to the calling thread (0 = none). Spans
/// recorded on this thread carry it; propagate it across process hops so a
/// request's spans correlate end to end.
[[nodiscard]] std::uint64_t current_trace_id() noexcept;
void set_current_trace_id(std::uint64_t trace_id) noexcept;

/// Scoped trace context: installs `trace_id` as the calling thread's
/// current id for the guard's lifetime, restoring the previous id on exit.
/// Use around each unit of request-scoped work (a campaign evaluation, a
/// sandbox child's eval) so concurrent requests on a shared pool do not
/// bleed ids into each other's spans.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id) noexcept
      : saved_(current_trace_id()) {
    set_current_trace_id(trace_id);
  }
  ~TraceContext() { set_current_trace_id(saved_); }
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t saved_;
};

/// Generates a process-unique nonzero trace id (pid / wall-clock / counter
/// mix through an avalanche hash).
[[nodiscard]] std::uint64_t generate_trace_id() noexcept;

/// Forces trace-epoch capture now. Call before fork(): a forked child
/// inherits the parent's (steady, wall-clock) anchor pair, so cross-process
/// time rebasing degenerates to the identity for sandbox workers.
void init_trace_epoch() noexcept;

/// Drops all recorded events (buffers of live threads and the foreign-span
/// store included).
void clear_trace();

/// Drops every recorded event carrying `trace_id` — thread buffers and the
/// foreign-span store both — leaving other requests' spans intact. Call
/// after a request's bundle has been shipped so a long-lived process does
/// not retain spans forever. No-op for id 0 (use clear_trace for that).
void drop_trace_spans(std::uint64_t trace_id);

/// Merged copy of every thread's events, sorted by (start, tid, name) so
/// identical runs serialise identically.
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Serialises this process's spans — local buffers plus any already-ingested
/// foreign spans — into a self-describing bundle for shipping over the
/// framed pipe/socket protocols. When `trace_id_filter` is nonzero only
/// spans carrying that id are included. Times stay on the sender's
/// timeline; the bundle carries the sender's wall-clock anchor so the
/// receiver can rebase.
[[nodiscard]] std::string encode_span_bundle(std::uint64_t trace_id_filter = 0);

/// Decodes a bundle produced by `encode_span_bundle` in another process and
/// appends its spans to this process's foreign-span store, rebasing start
/// times onto the local trace timeline via the wall-clock anchors. Returns
/// false (ignoring the payload) on malformed input.
bool ingest_span_bundle(std::string_view payload);

/// Local events (tagged with this process's pid) plus ingested foreign
/// events, merged and sorted by (start, pid, tid, name).
[[nodiscard]] std::vector<RemoteTraceEvent> merged_trace_snapshot();

/// Chrome trace-event JSON (`{"traceEvents": [...]}`) for a cross-process
/// merged timeline: complete "X" events with microsecond timestamps that
/// keep their originating pid, and nonzero trace ids emitted as a
/// `"trace_id"` arg (decimal string) so Perfetto can group one request's
/// spans across processes.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<RemoteTraceEvent>& events);

/// Snapshots the merged timeline (local + ingested foreign spans) and
/// writes it atomically to `path`.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      std::string* error = nullptr);

namespace detail {
/// Nanoseconds since the process trace epoch (steady clock).
[[nodiscard]] std::int64_t trace_now_ns() noexcept;
/// Wall-clock time (unix nanoseconds) of the process trace epoch.
[[nodiscard]] std::int64_t trace_epoch_unix_ns() noexcept;
/// Appends a completed span (tagged with the thread's current trace id) to
/// the calling thread's buffer.
void record_span(const char* name, const char* category, std::int64_t start_ns,
                 std::int64_t duration_ns);
}  // namespace detail

#if HM_TRACE_ENABLED

/// Scoped span: records [construction, destruction) when tracing is on,
/// and/or feeds the elapsed seconds into `histogram` when one is given
/// (histogram feeding works even with the trace toggle off, so phase
/// duration metrics do not require trace capture).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "app",
                     Histogram* histogram = nullptr) noexcept
      // Check the cheap runtime toggle before the pointer: on the hot
      // disabled path this short-circuits to a single relaxed load.
      : name_(name), category_(category), histogram_(histogram),
        armed_(trace_enabled() || histogram != nullptr) {
    if (armed_) start_ns_ = detail::trace_now_ns();
  }
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  Histogram* histogram_;
  bool armed_;
  std::int64_t start_ns_ = 0;
};

#else  // HM_TRACE_ENABLED == 0: spans compile to nothing.

class TraceSpan {
 public:
  explicit TraceSpan(const char*, const char* = "app",
                     Histogram* = nullptr) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#endif  // HM_TRACE_ENABLED

}  // namespace hm::common

/// Hot-path span: evaluates `histogram_expr` only when the span can
/// actually use it — after the runtime toggles — so a fully disabled site
/// costs two relaxed loads and never touches the metrics registry. Use
/// this (rather than constructing TraceSpan directly) on per-frame and
/// per-kernel paths; one-per-evaluation spans can keep the plain form.
/// `var` names the scoped span object.
#if HM_TRACE_ENABLED
#define HM_TRACE_SPAN(var, name, category, histogram_expr)       \
  const hm::common::TraceSpan var(                               \
      name, category,                                            \
      hm::common::span_histograms_enabled() ? (histogram_expr)   \
                                            : nullptr)
#else
#define HM_TRACE_SPAN(var, name, category, histogram_expr) \
  const hm::common::TraceSpan var(name, category, nullptr)
#endif
