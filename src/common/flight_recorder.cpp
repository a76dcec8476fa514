#include "common/flight_recorder.hpp"

#include <fcntl.h>

#include <chrono>
#include <csignal>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace hm::common {
namespace {

std::int64_t unix_now_ms() noexcept {
  // Wall-clock on purpose: flight-recorder timestamps are correlated with
  // log lines and journal mtimes during post-mortems.
  // hm-lint: allow(no-adhoc-instrumentation) wall-clock event timestamp, not a measurement
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             now.time_since_epoch())
      .count();
}

// Crash-dump destination. Plain static storage: the signal handler must
// not allocate, so the path is copied here at install time.
char g_crash_path[240] = {};
std::atomic<bool> g_crash_path_set{false};

/// Appends the decimal rendering of `value` to `out` at `pos` (bounded by
/// `cap`). Async-signal-safe: fixed stack buffer, no locale, no stdio.
void append_u64(char* out, std::size_t& pos, std::size_t cap,
                std::uint64_t value) noexcept {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0 && n < sizeof(digits));
  while (n > 0 && pos < cap) out[pos++] = digits[--n];
}

void append_str(char* out, std::size_t& pos, std::size_t cap,
                const char* text) noexcept {
  while (*text != '\0' && pos < cap) out[pos++] = *text++;
}

}  // namespace

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kPark: return "park";
    case FlightEventKind::kResume: return "resume";
    case FlightEventKind::kDone: return "done";
    case FlightEventKind::kEvalDelivered: return "eval";
    case FlightEventKind::kWorkerKill: return "worker_kill";
    case FlightEventKind::kWorkerDeath: return "worker_death";
    case FlightEventKind::kCircuitTrip: return "circuit_trip";
    case FlightEventKind::kDrain: return "drain";
    case FlightEventKind::kCrashSignal: return "crash_signal";
    case FlightEventKind::kHttpScrape: return "http_scrape";
  }
  return "unknown";
}

FlightEvent FlightRecorder::Slot::load() const noexcept {
  FlightEvent event;
  event.unix_ms = unix_ms.load(std::memory_order_relaxed);
  event.seq = seq.load(std::memory_order_relaxed);
  event.kind =
      static_cast<FlightEventKind>(kind.load(std::memory_order_relaxed));
  event.a = a.load(std::memory_order_relaxed);
  event.b = b.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < sizeof(event.detail); ++i) {
    event.detail[i] = detail[i].load(std::memory_order_relaxed);
  }
  // A copy mixing two generations could in principle miss both NULs; a
  // mixed copy is discarded by the commit re-check, but keep the string
  // bounded regardless (the signal-dump path checks commit only once).
  event.detail[sizeof(event.detail) - 1] = '\0';
  return event;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view detail,
                            std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % kCapacity];
  // Invalidate first so a racing reader discards the half-rewritten slot
  // rather than mixing generations. The release fence is what orders the
  // invalidation *before* the payload stores below (a release store only
  // orders its predecessors); it pairs with the reader's acquire fence
  // ahead of the commit re-check, so a reader that saw any new payload
  // byte cannot still see the stale generation stamp.
  slot.commit.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.unix_ms.store(unix_now_ms(), std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint32_t>(kind),
                  std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  const std::size_t cap = sizeof(FlightEvent{}.detail);
  const std::size_t n = detail.size() < cap - 1 ? detail.size() : cap - 1;
  for (std::size_t i = 0; i < n; ++i) {
    slot.detail[i].store(detail[i], std::memory_order_relaxed);
  }
  slot.detail[n].store('\0', std::memory_order_relaxed);
  slot.commit.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t total = next_seq_.load(std::memory_order_acquire);
  const std::uint64_t start = total > kCapacity ? total - kCapacity : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<std::size_t>(total - start));
  for (std::uint64_t seq = start; seq < total; ++seq) {
    const Slot& slot = slots_[seq % kCapacity];
    if (slot.commit.load(std::memory_order_acquire) != seq + 1) continue;
    const FlightEvent copy = slot.load();
    // Seqlock validation: a writer that re-claimed the slot mid-copy
    // changed the stamp; drop the torn copy. The acquire fence orders the
    // payload loads above before the re-check.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.commit.load(std::memory_order_relaxed) != seq + 1) continue;
    events.push_back(copy);
  }
  return events;
}

std::string FlightRecorder::to_json() const {
  JsonWriter json;
  json.begin_object().key("recorded").integer(recorded());
  json.key("events").begin_array();
  for (const FlightEvent& event : snapshot()) {
    json.begin_object();
    json.key("seq").integer(event.seq);
    json.key("t_ms").integer(event.unix_ms);
    json.key("kind").string(to_string(event.kind));
    json.key("a").integer(event.a);
    json.key("b").integer(event.b);
    json.key("detail").string(event.detail).end_object();
  }
  json.end_array().end_object();
  return json.str();
}

bool FlightRecorder::dump(const std::string& path, std::string* error) const {
  return write_file_atomic(path, to_json(), error);
}

FlightRecorder& FlightRecorder::global() {
  // Leaked like the trace collector: the crash handler may fire during
  // static destruction and must still find a live ring.
  static FlightRecorder* recorder = new FlightRecorder;
  return *recorder;
}

/// The crash-signal dump path. Async-signal-safe by construction: reads
/// lock-free atomics, formats into a stack buffer with the manual
/// append_* helpers, and uses only open/write/fsync/close (each on the
/// POSIX async-signal-safe list; the *_retry wrappers add only EINTR
/// loops). No allocation, no stdio, no locks.
// hm-signal-safe
// hm-lint: allow(fork-child-safety) FlightRecorder::record is wait-free by construction: one fetch_add plus relaxed atomic stores into a fixed-width slot — no allocation, locks, or stdio
void flight_recorder_signal_dump(int signal_number) noexcept {
  if (!g_crash_path_set.load(std::memory_order_acquire)) {
    ::raise(signal_number);
    return;
  }
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.record(FlightEventKind::kCrashSignal, "crash",
                  static_cast<std::uint64_t>(signal_number));
  const int fd = open_retry(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char line[256];
    std::size_t pos = 0;
    append_str(line, pos, sizeof(line), "flight-recorder crash dump signal=");
    append_u64(line, pos, sizeof(line),
               static_cast<std::uint64_t>(signal_number));
    append_str(line, pos, sizeof(line), "\n");
    (void)write_fd_all(fd, std::string_view(line, pos));
    const std::uint64_t total =
        recorder.next_seq_.load(std::memory_order_acquire);
    const std::uint64_t start =
        total > FlightRecorder::kCapacity ? total - FlightRecorder::kCapacity
                                          : 0;
    for (std::uint64_t seq = start; seq < total; ++seq) {
      const FlightRecorder::Slot& slot =
          recorder.slots_[seq % FlightRecorder::kCapacity];
      if (slot.commit.load(std::memory_order_acquire) != seq + 1) continue;
      const FlightEvent event = slot.load();
      pos = 0;
      append_str(line, pos, sizeof(line), "seq=");
      append_u64(line, pos, sizeof(line), event.seq);
      append_str(line, pos, sizeof(line), " t_ms=");
      append_u64(line, pos, sizeof(line),
                 static_cast<std::uint64_t>(event.unix_ms));
      append_str(line, pos, sizeof(line), " kind=");
      append_str(line, pos, sizeof(line), to_string(event.kind));
      append_str(line, pos, sizeof(line), " a=");
      append_u64(line, pos, sizeof(line), event.a);
      append_str(line, pos, sizeof(line), " b=");
      append_u64(line, pos, sizeof(line), event.b);
      append_str(line, pos, sizeof(line), " detail=");
      append_str(line, pos, sizeof(line), event.detail);
      append_str(line, pos, sizeof(line), "\n");
      (void)write_fd_all(fd, std::string_view(line, pos));
    }
    (void)fsync_retry(fd);
    (void)close_relaxed(fd);
  }
  // Handlers were installed with SA_RESETHAND: re-raising now takes the
  // default disposition (terminate / core), preserving the crash cause.
  ::raise(signal_number);
}

bool install_crash_recorder(const std::string& path) {
  std::size_t n = path.size() < sizeof(g_crash_path) - 1
                      ? path.size()
                      : sizeof(g_crash_path) - 1;
  for (std::size_t i = 0; i < n; ++i) g_crash_path[i] = path[i];
  g_crash_path[n] = '\0';
  g_crash_path_set.store(true, std::memory_order_release);

  struct sigaction action = {};
  action.sa_handler = flight_recorder_signal_dump;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  const int fatal[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (const int sig : fatal) {
    if (sigaction(sig, &action, nullptr) != 0) return false;
  }
  return true;
}

}  // namespace hm::common
