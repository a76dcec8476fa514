// Crash flight recorder: a fixed-size lock-free ring of structured events
// (admissions, parks, sheds, worker kills, ...) that survives long past the
// scroll-back. Three dump paths:
//
//   - on demand (`to_json` / `dump`) — e.g. hm_serve's `GET /events`;
//   - on orderly shutdown (SIGTERM drain) via `dump`, which goes through
//     `write_file_atomic`;
//   - on a crash signal (SIGSEGV/SIGABRT/...) via the handler installed by
//     `install_crash_recorder`, which formats with async-signal-safe
//     primitives only (no allocation, no stdio, no locks) into a
//     pre-registered path.
//
// Recording is wait-free: one atomic fetch_add to claim a slot plus
// relaxed per-word stores and a release publish. Readers (including the
// signal handler)
// validate each slot's commit stamp and skip torn slots, so a reader
// racing a wrapped writer sees a consistent — if slightly shortened —
// history, never garbage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hm::common {

/// What happened. Codes are append-only: dumps are read by post-mortem
/// tooling and renumbering would silently re-label history.
enum class FlightEventKind : std::uint32_t {
  kAdmit = 1,        ///< Campaign admitted (a = slot count in use).
  kShed = 2,         ///< Admission shed (a = campaigns in flight).
  kPark = 3,         ///< Campaign parked (a = iteration).
  kResume = 4,       ///< Campaign resumed (a = sample count recovered).
  kDone = 5,         ///< Campaign completed (a = sample count).
  kEvalDelivered = 6,///< Evaluation result folded in (a = iteration, b = samples).
  kWorkerKill = 7,   ///< Sandbox worker hard-killed (a = pid).
  kWorkerDeath = 8,  ///< Sandbox worker died on its own (a = pid).
  kCircuitTrip = 9,  ///< Sandbox circuit breaker opened (a = failure count).
  kDrain = 10,       ///< Drain started/finished (a = done, b = parked).
  kCrashSignal = 11, ///< Crash handler fired (a = signal number).
  kHttpScrape = 12,  ///< Observability endpoint served (a = status code).
};

/// Human-readable tag for a kind, used in dumps ("admit", "shed", ...).
[[nodiscard]] const char* to_string(FlightEventKind kind) noexcept;

/// One fixed-width ring slot. `detail` is a short NUL-terminated tag
/// (campaign id, reason) copied at record time — nothing on the record
/// path allocates.
struct FlightEvent {
  std::int64_t unix_ms = 0;   ///< Wall-clock record time.
  std::uint64_t seq = 0;      ///< Global record order (monotonic).
  FlightEventKind kind{};
  std::uint64_t a = 0;        ///< Kind-specific payload (see enum docs).
  std::uint64_t b = 0;
  char detail[48] = {};
};

class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 1024;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event. Wait-free; truncates `detail` to the slot width.
  void record(FlightEventKind kind, std::string_view detail,
              std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

  /// Consistent copy of the ring, oldest first. Slots being concurrently
  /// rewritten are skipped.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// `{"recorded": N, "events": [{"seq": .., "t_ms": .., "kind": "admit",
  /// "a": .., "b": .., "detail": ".."}, ...]}` — oldest first.
  [[nodiscard]] std::string to_json() const;

  /// Writes `to_json()` atomically to `path`.
  [[nodiscard]] bool dump(const std::string& path,
                          std::string* error = nullptr) const;

  /// Total events ever recorded (>= ring occupancy once wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// The process-wide recorder used by hm_serve and the crash handler.
  [[nodiscard]] static FlightRecorder& global();

 private:
  struct Slot {
    // 0 = empty; seq + 1 once the event payload is fully written. A writer
    // re-claiming a wrapped slot zeroes this first, so readers can detect
    // and discard torn slots (seqlock-style, one generation deep).
    std::atomic<std::uint64_t> commit{0};
    // Payload words are individually relaxed atomics: a writer lapping the
    // ring shares this slot with the writer kCapacity records behind it,
    // and readers overlap both. The commit stamp decides whether a copied
    // payload is kept; per-word atomicity keeps every access defined.
    std::atomic<std::int64_t> unix_ms{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint32_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<char> detail[sizeof(FlightEvent{}.detail)]{};

    /// Relaxed copy of the payload; pair with a commit re-check.
    [[nodiscard]] FlightEvent load() const noexcept;
  };

  friend void flight_recorder_signal_dump(int) noexcept;

  std::atomic<std::uint64_t> next_seq_{0};
  Slot slots_[kCapacity];
};

/// Installs handlers for fatal signals (SIGSEGV, SIGBUS, SIGFPE, SIGILL,
/// SIGABRT) that dump the global recorder to `path` using only
/// async-signal-safe calls, then re-raise with the default disposition.
/// `path` is copied into static storage (truncated past ~230 bytes).
/// Returns false if any sigaction fails.
bool install_crash_recorder(const std::string& path);

}  // namespace hm::common
