#include "common/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>

#include "common/atomic_file.hpp"
#include "common/checkpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"

namespace hm::common {
namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_trace_request_only{false};
std::atomic<bool> g_span_histograms_enabled{true};

thread_local std::uint64_t t_trace_id = 0;

/// One thread's span buffer. The owning thread appends under the buffer's
/// own (uncontended) mutex; snapshot/clear take the same mutex from
/// outside. Buffers are shared_ptr-owned by the collector so events
/// survive thread exit.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct Collector {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<RemoteTraceEvent> foreign;  // hm-guarded-by(mutex)
  std::uint32_t next_tid = 0;
};

/// Intentionally leaked: worker thread_locals may detach after static
/// destruction starts, and trace export can run from atexit paths.
Collector& collector() {
  static Collector* instance = new Collector;
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    created->tid = c.next_tid++;
    c.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

/// The process trace epoch: a (steady, wall-clock) anchor pair captured
/// once. The steady side defines span timestamps; the wall-clock side lets
/// another process rebase our timestamps onto its own timeline (clocks on
/// one machine agree; steady epochs do not).
struct TraceEpoch {
  std::chrono::steady_clock::time_point steady;
  std::int64_t unix_ns = 0;
};

const TraceEpoch& trace_epoch() noexcept {
  static const TraceEpoch epoch = [] {
    TraceEpoch anchor;
    anchor.steady = std::chrono::steady_clock::now();
    anchor.unix_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    return anchor;
  }();
  return epoch;
}

/// splitmix64 finaliser: full-avalanche mixing for trace-id generation.
std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void set_trace_enabled(bool enabled) noexcept {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_span_histograms_enabled(bool enabled) noexcept {
  g_span_histograms_enabled.store(enabled, std::memory_order_relaxed);
}

bool span_histograms_enabled() noexcept {
  return g_span_histograms_enabled.load(std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_request_only(bool enabled) noexcept {
  g_trace_request_only.store(enabled, std::memory_order_relaxed);
}

bool trace_request_only() noexcept {
  return g_trace_request_only.load(std::memory_order_relaxed);
}

std::uint32_t trace_thread_id() { return local_buffer().tid; }

std::uint64_t current_trace_id() noexcept { return t_trace_id; }

void set_current_trace_id(std::uint64_t trace_id) noexcept {
  t_trace_id = trace_id;
}

std::uint64_t generate_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(trace_epoch().unix_ns) ^
      (static_cast<std::uint64_t>(::getpid()) << 40) ^
      counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = mix_u64(seed);
  return id != 0 ? id : 1;  // 0 means "no trace context".
}

void init_trace_epoch() noexcept { (void)trace_epoch(); }

void clear_trace() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  c.foreign.clear();
}

void drop_trace_spans(std::uint64_t trace_id) {
  if (trace_id == 0) return;
  // Same collector-then-buffer lock order as clear_trace/trace_snapshot.
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.erase(
        std::remove_if(buffer->events.begin(), buffer->events.end(),
                       [trace_id](const TraceEvent& event) {
                         return event.trace_id == trace_id;
                       }),
        buffer->events.end());
  }
  c.foreign.erase(std::remove_if(c.foreign.begin(), c.foreign.end(),
                                 [trace_id](const RemoteTraceEvent& event) {
                                   return event.trace_id == trace_id;
                                 }),
                  c.foreign.end());
}

std::vector<TraceEvent> trace_snapshot() {
  std::vector<TraceEvent> merged;
  Collector& c = collector();
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    for (const auto& buffer : c.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              const int names = std::strcmp(a.name, b.name);
              if (names != 0) return names < 0;
              return a.duration_ns < b.duration_ns;
            });
  return merged;
}

namespace {

std::uint32_t local_pid() noexcept {
  return static_cast<std::uint32_t>(::getpid());
}

}  // namespace

std::string chrome_trace_json(const std::vector<RemoteTraceEvent>& events) {
  // Complete ("X") events with microsecond timestamps, keyed by (pid, tid);
  // nonzero trace ids become a decimal-string `trace_id` arg (doubles
  // cannot hold a full u64).
  JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  for (const RemoteTraceEvent& event : events) {
    json.begin_object();
    json.key("name").string(event.name);
    json.key("cat").string(event.category);
    json.key("ph").string("X");
    json.key("pid").integer(event.process_id);
    json.key("tid").integer(event.tid);
    json.key("ts").number(static_cast<double>(event.start_ns) / 1e3);
    json.key("dur").number(static_cast<double>(event.duration_ns) / 1e3);
    if (event.trace_id != 0) {
      json.key("args").begin_object().key("trace_id");
      json.string(std::to_string(event.trace_id)).end_object();
    }
    json.end_object();
  }
  json.end_array().key("displayTimeUnit").string("ms").end_object();
  return json.str();
}

std::vector<RemoteTraceEvent> merged_trace_snapshot() {
  std::vector<RemoteTraceEvent> merged;
  const std::uint32_t pid = local_pid();
  for (const TraceEvent& event : trace_snapshot()) {
    merged.push_back(RemoteTraceEvent{event.name, event.category, pid,
                                      event.tid, event.start_ns,
                                      event.duration_ns, event.trace_id});
  }
  {
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    merged.insert(merged.end(), c.foreign.begin(), c.foreign.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const RemoteTraceEvent& a, const RemoteTraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.process_id != b.process_id) {
                return a.process_id < b.process_id;
              }
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.name != b.name) return a.name < b.name;
              return a.duration_ns < b.duration_ns;
            });
  return merged;
}

std::string encode_span_bundle(std::uint64_t trace_id_filter) {
  std::vector<RemoteTraceEvent> events = merged_trace_snapshot();
  std::vector<std::string> fields;
  fields.reserve(4 + events.size() * 7);
  fields.emplace_back("spans");
  fields.push_back(encode_u64(local_pid()));
  fields.push_back(
      encode_u64(static_cast<std::uint64_t>(detail::trace_epoch_unix_ns())));
  std::size_t count = 0;
  const std::size_t count_slot = fields.size();
  fields.emplace_back();  // Patched with the filtered count below.
  for (const RemoteTraceEvent& event : events) {
    if (trace_id_filter != 0 && event.trace_id != trace_id_filter) continue;
    fields.push_back(event.name);
    fields.push_back(event.category);
    fields.push_back(encode_u64(event.process_id));
    fields.push_back(encode_u64(event.tid));
    fields.push_back(encode_u64(static_cast<std::uint64_t>(event.start_ns)));
    fields.push_back(
        encode_u64(static_cast<std::uint64_t>(event.duration_ns)));
    fields.push_back(encode_u64(event.trace_id));
    ++count;
  }
  fields[count_slot] = encode_u64(count);
  return encode_fields(fields);
}

bool ingest_span_bundle(std::string_view payload) {
  const std::optional<std::vector<std::string>> fields =
      decode_fields(payload);
  if (!fields || fields->size() < 4 || (*fields)[0] != "spans") return false;
  const std::optional<std::uint64_t> pid = decode_u64((*fields)[1]);
  const std::optional<std::uint64_t> sender_epoch = decode_u64((*fields)[2]);
  const std::optional<std::uint64_t> count = decode_u64((*fields)[3]);
  if (!pid || !sender_epoch || !count) return false;
  if (fields->size() != 4 + *count * 7) return false;
  // Rebase: sender timestamps are relative to the sender's epoch; shifting
  // by the wall-clock anchor difference lands them on our timeline. For a
  // forked child that inherited our epoch the shift is exactly zero.
  const std::int64_t shift_ns =
      static_cast<std::int64_t>(*sender_epoch) - detail::trace_epoch_unix_ns();
  std::vector<RemoteTraceEvent> decoded;
  decoded.reserve(*count);
  for (std::uint64_t k = 0; k < *count; ++k) {
    const std::size_t at = 4 + k * 7;
    RemoteTraceEvent event;
    event.name = (*fields)[at];
    event.category = (*fields)[at + 1];
    const std::optional<std::uint64_t> event_pid = decode_u64((*fields)[at + 2]);
    const std::optional<std::uint64_t> tid = decode_u64((*fields)[at + 3]);
    const std::optional<std::uint64_t> start = decode_u64((*fields)[at + 4]);
    const std::optional<std::uint64_t> duration =
        decode_u64((*fields)[at + 5]);
    const std::optional<std::uint64_t> trace_id =
        decode_u64((*fields)[at + 6]);
    if (!event_pid || !tid || !start || !duration || !trace_id) return false;
    event.process_id = static_cast<std::uint32_t>(*event_pid);
    event.tid = static_cast<std::uint32_t>(*tid);
    event.start_ns = static_cast<std::int64_t>(*start) + shift_ns;
    event.duration_ns = static_cast<std::int64_t>(*duration);
    event.trace_id = *trace_id;
    decoded.push_back(std::move(event));
  }
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.foreign.insert(c.foreign.end(),
                   std::make_move_iterator(decoded.begin()),
                   std::make_move_iterator(decoded.end()));
  return true;
}

bool write_chrome_trace(const std::string& path, std::string* error) {
  return write_file_atomic(path, chrome_trace_json(merged_trace_snapshot()),
                           error);
}

namespace detail {

std::int64_t trace_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch().steady)
      .count();
}

std::int64_t trace_epoch_unix_ns() noexcept { return trace_epoch().unix_ns; }

void record_span(const char* name, const char* category, std::int64_t start_ns,
                 std::int64_t duration_ns) {
  if (t_trace_id == 0 &&
      g_trace_request_only.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(TraceEvent{name, category, buffer.tid, start_ns,
                                     duration_ns, t_trace_id});
}

}  // namespace detail

#if HM_TRACE_ENABLED

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  const std::int64_t end_ns = detail::trace_now_ns();
  const std::int64_t duration_ns = end_ns - start_ns_;
  if (histogram_ != nullptr) {
    histogram_->observe(static_cast<double>(duration_ns) * 1e-9);
  }
  if (trace_enabled()) {
    detail::record_span(name_, category_, start_ns_, duration_ns);
  }
}

#endif  // HM_TRACE_ENABLED

}  // namespace hm::common
