#include "sandbox/sandbox.hpp"

#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <string>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/flight_recorder.hpp"
#include "common/frame.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "sandbox/protocol.hpp"

namespace hm::sandbox {

namespace {

using hm::common::FrameStatus;
using hm::common::read_frame;
using hm::common::write_frame;
using hm::hypermapper::Configuration;
using hm::hypermapper::EvaluationError;
using hm::hypermapper::EvaluationTimeout;

/// Set only inside a worker process, for fault-injection tests.
int g_worker_response_fd = -1;

/// "sandbox_worker_<index>", interned for the life of the process: trace
/// events keep span names as raw pointers until the trace is written.
const char* worker_span_name(std::size_t index) {
  static std::mutex mutex;
  static std::deque<std::string> names;  // hm-guarded-by(mutex)
  const std::lock_guard<std::mutex> lock(mutex);
  while (names.size() <= index) {
    names.push_back("sandbox_worker_" + std::to_string(names.size()));
  }
  return names[index].c_str();  // deque growth never moves elements.
}

/// Global-registry handles resolved once; the registry owns the metrics.
struct SandboxMetrics {
  hm::common::Counter* spawns = nullptr;
  hm::common::Counter* requests = nullptr;
  hm::common::Counter* kills = nullptr;
  hm::common::Counter* timeouts = nullptr;
  hm::common::Counter* worker_deaths = nullptr;
  hm::common::Counter* protocol_errors = nullptr;
  hm::common::Counter* recycles = nullptr;
  hm::common::Counter* backoffs = nullptr;
  hm::common::Counter* fallbacks = nullptr;
  hm::common::Counter* circuit_trips = nullptr;
  hm::common::Gauge* circuit_open = nullptr;
  hm::common::Histogram* eval_seconds = nullptr;
};

const SandboxMetrics& sandbox_metrics() {
  static const SandboxMetrics metrics = [] {
    auto& registry = hm::common::MetricsRegistry::global();
    SandboxMetrics resolved;
    resolved.spawns = &registry.counter("hm_sandbox_spawns_total");
    resolved.requests = &registry.counter("hm_sandbox_requests_total");
    resolved.kills = &registry.counter("hm_sandbox_kills_total");
    resolved.timeouts = &registry.counter("hm_sandbox_timeouts_total");
    resolved.worker_deaths = &registry.counter("hm_sandbox_worker_deaths_total");
    resolved.protocol_errors =
        &registry.counter("hm_sandbox_protocol_errors_total");
    resolved.recycles = &registry.counter("hm_sandbox_recycles_total");
    resolved.backoffs = &registry.counter("hm_sandbox_backoffs_total");
    resolved.fallbacks = &registry.counter("hm_sandbox_fallbacks_total");
    resolved.circuit_trips =
        &registry.counter("hm_sandbox_circuit_trips_total");
    resolved.circuit_open = &registry.gauge("hm_sandbox_circuit_open");
    resolved.eval_seconds = &registry.histogram("hm_sandbox_eval_seconds");
    return resolved;
  }();
  return metrics;
}

/// EINTR-safe sleep (the supervisor takes SIGCHLD/SIGTERM mid-backoff).
void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  struct timespec remaining{};
  remaining.tv_sec = static_cast<time_t>(seconds);
  remaining.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(remaining.tv_sec)) * 1e9);
  while (::nanosleep(&remaining, &remaining) != 0 && errno == EINTR) {
  }
}

/// A write into a dead worker's pipe must surface as EPIPE (handled and
/// classified), not kill the supervisor. Process-wide and idempotent.
void ignore_sigpipe_once() {
  static const bool installed = [] {
    struct sigaction action{};
    action.sa_handler = SIG_IGN;
    return ::sigaction(SIGPIPE, &action, nullptr) == 0;
  }();
  (void)installed;
}

/// Deterministic, time-free description of a wait() status — it is
/// journaled in quarantine records and must be byte-identical on resume.
[[nodiscard]] std::string describe_worker_death(int status) {
  if (WIFSIGNALED(status)) {
    return "sandbox: worker killed by signal " +
           std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "sandbox: worker exited with status " +
           std::to_string(WEXITSTATUS(status)) + " before responding";
  }
  return "sandbox: worker died before responding";
}

using CounterSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

[[nodiscard]] CounterSnapshot counter_snapshot() {
  return hm::common::MetricsRegistry::global().snapshot().counters;
}

/// Per-name counter increments since `before`. Both snapshots are sorted
/// by name (the registry guarantees it), so a single merge pass suffices.
[[nodiscard]] CounterSnapshot counter_deltas_since(
    const CounterSnapshot& before) {
  const CounterSnapshot after = counter_snapshot();
  CounterSnapshot deltas;
  std::size_t j = 0;
  for (const auto& [name, value] : after) {
    while (j < before.size() && before[j].first < name) ++j;
    const std::uint64_t prior =
        (j < before.size() && before[j].first == name) ? before[j].second : 0;
    if (value > prior) deltas.emplace_back(name, value - prior);
  }
  return deltas;
}

/// Worker exit codes for protocol-level failures (distinct from evaluator
/// exit paths so the supervisor's death messages stay diagnosable).
constexpr int kWorkerExitBadRequest = 12;
constexpr int kWorkerExitWriteFailed = 13;

}  // namespace

double backoff_delay_seconds(const SandboxPolicy& policy,
                             std::uint64_t attempt) {
  if (attempt == 0) return 0.0;
  double delay = policy.backoff_base_seconds;
  for (std::uint64_t i = 1; i < attempt && delay < policy.backoff_max_seconds;
       ++i) {
    delay *= 2.0;
  }
  if (delay > policy.backoff_max_seconds) delay = policy.backoff_max_seconds;
  // Jitter in [0.5, 1.0): seeded, so recovery schedules are reproducible.
  std::uint64_t state = policy.backoff_seed ^ (attempt * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t bits = hm::common::splitmix64_next(state);
  const double unit =
      static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
  return delay * (0.5 + 0.5 * unit);
}

int worker_response_fd() noexcept { return g_worker_response_fd; }

/// Releases the leased worker slot and wakes waiters on scope exit (also
/// on the exception paths that classify worker deaths).
class SandboxedEvaluator::Lease {
 public:
  Lease(SandboxedEvaluator& owner, Worker& worker)
      : owner_(owner), worker_(worker) {}
  ~Lease() {
    const std::lock_guard<std::mutex> lock(owner_.mutex_);
    worker_.busy = false;
    owner_.worker_available_.notify_all();
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

 private:
  SandboxedEvaluator& owner_;
  Worker& worker_;
};

SandboxedEvaluator::SandboxedEvaluator(hm::hypermapper::Evaluator& inner,
                                       SandboxPolicy policy)
    : inner_(inner), policy_(policy) {
  if (policy_.workers < 1) policy_.workers = 1;
  ignore_sigpipe_once();
  workers_.reserve(policy_.workers);
  for (std::size_t i = 0; i < policy_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->span_name = worker_span_name(i);
    workers_.push_back(std::move(worker));
  }
}

SandboxedEvaluator::~SandboxedEvaluator() { shutdown(); }

std::vector<double> SandboxedEvaluator::evaluate(const Configuration& config) {
  return supervised(config, 0);
}

std::vector<double> SandboxedEvaluator::evaluate_retry(
    const Configuration& config, std::uint64_t retry_nonce) {
  return supervised(config, retry_nonce);
}

void SandboxedEvaluator::set_dispatch_hook(
    std::function<void(std::size_t)> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  dispatch_hook_ = std::move(hook);
}

bool SandboxedEvaluator::circuit_open() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return circuit_open_;
}

SandboxStats SandboxedEvaluator::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SandboxedEvaluator::shutdown() {
  // hm-lint: allow(guarded-by) the workers_ vector is structurally frozen after construction; only the pointed-to Workers mutate, and destroy_worker locks mutex_ around those field updates
  for (auto& worker : workers_) {
    destroy_worker(*worker, /*force_kill=*/false);
  }
}

void SandboxedEvaluator::trip_circuit_locked() {
  if (circuit_open_) return;
  circuit_open_ = true;
  hm::common::FlightRecorder::global().record(
      hm::common::FlightEventKind::kCircuitTrip, "sandbox",
      spawn_failures_in_a_row_);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.circuit_open = true;
  }
  sandbox_metrics().circuit_trips->increment();
  sandbox_metrics().circuit_open->set(1.0);
  hm::common::log_warn()
      << "sandbox circuit breaker tripped after " << spawn_failures_in_a_row_
      << " consecutive infrastructure failures; degrading to in-process "
         "evaluation (hard deadlines and memory caps no longer enforced)";
  worker_available_.notify_all();
}

std::vector<double> SandboxedEvaluator::fallback_evaluate(
    const Configuration& config, std::uint64_t nonce) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.fallbacks;
  }
  sandbox_metrics().fallbacks->increment();
  if (inner_.thread_safe()) {
    return nonce == 0 ? inner_.evaluate(config)
                      : inner_.evaluate_retry(config, nonce);
  }
  // The optimizer saw thread_safe() == true and dispatches concurrently;
  // a non-thread-safe inner evaluator must be serialized here.
  const std::lock_guard<std::mutex> lock(fallback_mutex_);
  // hm-lint: allow(blocking-under-lock) fallback_mutex_ exists precisely to serialize the blocking evaluation of a non-thread-safe inner evaluator
  return nonce == 0 ? inner_.evaluate(config)
                    // hm-lint: allow(blocking-under-lock) same serialization contract as the line above
                    : inner_.evaluate_retry(config, nonce);
}

namespace {

/// Closes descriptors first..last (close_range, or a plain close loop up to
/// the descriptor table's size where the kernel lacks it).
// hm-signal-safe runs in the fork child: close_range and sysconf(_SC_OPEN_MAX) are single system calls (no allocation, locks or stdio), and the fallback loop only calls close
void close_fd_range(unsigned first, unsigned last) {
  if (::close_range(first, last, 0) == 0) return;
  const long limit = ::sysconf(_SC_OPEN_MAX);
  const unsigned table = limit > 0 ? static_cast<unsigned>(limit) - 1 : 1023u;
  for (unsigned fd = first; fd <= last && fd <= table; ++fd) {
    hm::common::close_relaxed(static_cast<int>(fd));
  }
}

/// In a freshly forked worker: closes every inherited descriptor except
/// stdio and the worker's own two pipe ends. Any other copy the child kept
/// -- a sibling worker's pipes, another evaluator's workers' pipes, the
/// daemon's sockets and journals -- would hold that descriptor open for as
/// long as this worker lives, so a worker whose request pipe the supervisor
/// closes would never see EOF.
void close_inherited_fds(int keep_a, int keep_b) {
  const int keep[2] = {keep_a < keep_b ? keep_a : keep_b,
                       keep_a < keep_b ? keep_b : keep_a};
  unsigned first = 3;
  for (const int fd : keep) {
    const auto k = static_cast<unsigned>(fd);
    if (k < first) continue;  // A pipe end may reuse a closed stdio slot.
    if (k > first) close_fd_range(first, k - 1);
    first = k + 1;
  }
  close_fd_range(first, ~0u);
}

}  // namespace

bool SandboxedEvaluator::spawn_worker(Worker& worker, std::uint64_t attempt) {
  if (policy_.inject_spawn_failures_for_test > 0) {
    --policy_.inject_spawn_failures_for_test;
    return false;
  }
  int request_pipe[2] = {-1, -1};
  int response_pipe[2] = {-1, -1};
  if (::pipe(request_pipe) != 0) return false;
  if (::pipe(response_pipe) != 0) {
    hm::common::close_relaxed(request_pipe[0]);
    hm::common::close_relaxed(request_pipe[1]);
    return false;
  }
  // Capture the trace epoch before forking: the child inherits the
  // (steady, wall-clock) anchor pair, so its span timestamps land on the
  // supervisor's timeline without any rebase error.
  hm::common::init_trace_epoch();
  const pid_t pid = ::fork();
  if (pid < 0) {
    hm::common::close_relaxed(request_pipe[0]);
    hm::common::close_relaxed(request_pipe[1]);
    hm::common::close_relaxed(response_pipe[0]);
    hm::common::close_relaxed(response_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Keep only stdio and this worker's own pipe ends: a response
    // pipe held open here would defeat the supervisor's EOF-based death
    // detection, and a request pipe would keep its worker from ever seeing
    // EOF on shutdown.
    close_inherited_fds(request_pipe[0], response_pipe[1]);
    worker_main(request_pipe[0], response_pipe[1]);
  }
  hm::common::close_relaxed(request_pipe[0]);
  hm::common::close_relaxed(response_pipe[1]);
  worker.pid = pid;
  worker.to_child = request_pipe[1];
  worker.from_child = response_pipe[0];
  worker.served = 0;
  worker.fresh = true;
  (void)attempt;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.spawns;
  }
  sandbox_metrics().spawns->increment();
  return true;
}

// hm-signal-safe [[noreturn]] child entry point: single-threaded after
// fork, never returns (every path ends in ::_exit), and the evaluator it
// drives was constructed before any sibling thread could hold a lock the
// child would inherit frozen.
void SandboxedEvaluator::worker_main(int request_fd, int response_fd) {
  g_worker_response_fd = response_fd;
  // Lifecycle belongs to the supervisor: ignore the cooperative SIGINT /
  // SIGTERM so an interrupted run drains in-flight evaluations instead of
  // tearing them; only the supervisor's SIGKILL (or a resource limit)
  // stops a worker early.
  struct sigaction action{};
  action.sa_handler = SIG_IGN;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  if (policy_.memory_limit_mb > 0) {
    struct rlimit limit{};
    limit.rlim_cur = static_cast<rlim_t>(policy_.memory_limit_mb) * 1024 * 1024;
    limit.rlim_max = limit.rlim_cur;
    ::setrlimit(RLIMIT_AS, &limit);
  }
  for (;;) {
    std::string payload;
    const FrameStatus status = read_frame(request_fd, &payload, 0.0);
    if (status == FrameStatus::kEof) ::_exit(0);  // Orderly shutdown.
    if (status != FrameStatus::kOk) ::_exit(kWorkerExitBadRequest);
    const auto request = decode_request(payload);
    if (!request) ::_exit(kWorkerExitBadRequest);

    EvalResponse response;
    CounterSnapshot before;
    if (policy_.forward_metrics) {
      try {
        before = counter_snapshot();
      } catch (...) {
        before.clear();
      }
    }
    // A traced request turns span recording on for exactly this
    // evaluation; the buffer is cleared first so the shipped bundle holds
    // only this request's spans (single-purpose process, nothing else
    // records here).
    const bool traced = request->trace_id != 0;
    if (traced) {
      hm::common::clear_trace();
      hm::common::set_trace_enabled(true);
    }
    {
      const hm::common::TraceContext trace_context(request->trace_id);
      const hm::common::TraceSpan span("worker_eval", "sandbox");
      try {
        response.objectives =
            request->nonce == 0
                ? inner_.evaluate(request->config)
                : inner_.evaluate_retry(request->config, request->nonce);
        response.ok = true;
      } catch (const EvaluationError& error) {
        response.ok = false;
        response.transient = error.transient();
        response.message = error.what();
      } catch (const std::exception& error) {
        response.ok = false;
        response.transient = false;
        response.message = error.what();
      } catch (...) {
        response.ok = false;
        response.transient = false;
        response.message = "unknown exception";
      }
    }
    if (traced) {
      try {
        response.span_bundle =
            hm::common::encode_span_bundle(request->trace_id);
      } catch (...) {
        response.span_bundle.clear();
      }
      hm::common::set_trace_enabled(false);
      hm::common::clear_trace();
    }
    if (policy_.forward_metrics) {
      // Best-effort: under a tight RLIMIT_AS the snapshot itself can run
      // out of memory; the objectives still ship without deltas.
      try {
        response.counter_deltas = counter_deltas_since(before);
      } catch (...) {
        response.counter_deltas.clear();
      }
    }
    if (!write_frame(response_fd, encode_response(response))) {
      ::_exit(kWorkerExitWriteFailed);
    }
  }
}

int SandboxedEvaluator::destroy_worker(Worker& worker, bool force_kill) {
  pid_t pid = -1;
  {
    // Field updates are serialized with spawn_worker, which runs under
    // mutex_ and fills the same fields.
    const std::lock_guard<std::mutex> lock(mutex_);
    pid = worker.pid;
    if (worker.to_child >= 0) hm::common::close_relaxed(worker.to_child);
    if (worker.from_child >= 0) hm::common::close_relaxed(worker.from_child);
    worker.pid = -1;
    worker.to_child = -1;
    worker.from_child = -1;
    worker.fresh = true;
    worker.served = 0;
  }
  if (pid <= 0) return 0;

  int status = 0;
  bool killed = false;
  if (!force_kill) {
    // The closed request pipe EOFs an idle worker out; give it a short
    // grace period before escalating.
    for (int i = 0; i < 500; ++i) {
      const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped == pid) return status;
      if (reaped < 0 && errno != EINTR) return 0;
      sleep_seconds(0.001);
    }
  }
  killed = ::kill(pid, SIGKILL) == 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      status = 0;
      break;
    }
  }
  if (killed) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.kills;
    }
    sandbox_metrics().kills->increment();
  }
  return status;
}

std::vector<double> SandboxedEvaluator::supervised(const Configuration& config,
                                                   std::uint64_t nonce) {
  const SandboxMetrics& metrics = sandbox_metrics();
  for (;;) {
    // Lease a worker: prefer a live idle one, else spawn into a dead
    // slot (with seeded backoff after infrastructure failures), else wait.
    Worker* leased = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (leased == nullptr && !circuit_open_) {
        Worker* dead_slot = nullptr;
        for (auto& worker : workers_) {
          if (worker->busy) continue;
          if (worker->pid > 0) {
            leased = worker.get();
            break;
          }
          if (dead_slot == nullptr) dead_slot = worker.get();
        }
        if (leased != nullptr) {
          leased->busy = true;
          break;
        }
        if (dead_slot == nullptr) {
          worker_available_.wait(lock);
          continue;
        }
        dead_slot->busy = true;  // Reserve the slot across the spawn.
        const std::uint64_t attempt = spawn_failures_in_a_row_;
        if (attempt > 0) {
          {
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.backoffs;
          }
          metrics.backoffs->increment();
          lock.unlock();
          sleep_seconds(backoff_delay_seconds(policy_, attempt));
          lock.lock();
        }
        if (spawn_worker(*dead_slot, attempt)) {
          spawn_failures_in_a_row_ = 0;
          leased = dead_slot;  // Stays busy: this is our lease.
          break;
        }
        dead_slot->busy = false;
        ++spawn_failures_in_a_row_;
        if (spawn_failures_in_a_row_ >= policy_.circuit_failure_threshold) {
          trip_circuit_locked();
        }
        worker_available_.notify_all();
      }
    }
    if (leased == nullptr) return fallback_evaluate(config, nonce);
    Worker& worker = *leased;
    const Lease lease(*this, worker);

    {
      std::function<void(std::size_t)> hook;
      std::size_t ordinal = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ordinal = ++dispatch_count_;
        hook = dispatch_hook_;
      }
      if (hook) hook(ordinal);
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests;
    }
    metrics.requests->increment();
    const hm::common::TraceSpan span(worker.span_name, "sandbox",
                                     metrics.eval_seconds);

    EvalRequest request;
    request.config = config;
    request.nonce = nonce;
    request.trace_id = hm::common::current_trace_id();
    if (!write_frame(worker.to_child, encode_request(request))) {
      // The worker died *between* evaluations (EPIPE before the request
      // was delivered) — not attributable to this configuration. Replace
      // it and retry internally. A worker dead before its very first
      // request counts as an infrastructure failure for the breaker.
      const bool infrastructure = worker.fresh;
      destroy_worker(worker, /*force_kill=*/true);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (infrastructure) {
        ++spawn_failures_in_a_row_;
        if (spawn_failures_in_a_row_ >= policy_.circuit_failure_threshold) {
          trip_circuit_locked();
        }
      }
      continue;
    }
    worker.fresh = false;

    std::string payload;
    const FrameStatus status =
        read_frame(worker.from_child, &payload, policy_.deadline_seconds);
    if (status == FrameStatus::kTimeout) {
      // hm-lint: allow(guarded-by) leased worker: the busy flag keeps pid stable until this thread destroys or releases it
      const auto killed_pid = static_cast<std::uint64_t>(worker.pid);
      hm::common::FlightRecorder::global().record(
          hm::common::FlightEventKind::kWorkerKill, worker.span_name,
          killed_pid);
      destroy_worker(worker, /*force_kill=*/true);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.timeouts;
      }
      metrics.timeouts->increment();
      // Deterministic message: mentions the configured deadline, never
      // the measured elapsed time (journaled quarantine records must
      // resume byte-identically).
      throw EvaluationTimeout(
          "sandbox: evaluation exceeded the hard deadline (" +
          std::to_string(policy_.deadline_seconds) + " s); worker killed");
    }
    if (status == FrameStatus::kEof) {
      // hm-lint: allow(guarded-by) leased worker: the busy flag keeps pid stable until this thread destroys or releases it
      const auto dead_pid = static_cast<std::uint64_t>(worker.pid);
      hm::common::FlightRecorder::global().record(
          hm::common::FlightEventKind::kWorkerDeath, worker.span_name,
          dead_pid);
      const int wait_status = destroy_worker(worker, /*force_kill=*/true);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.worker_deaths;
      }
      metrics.worker_deaths->increment();
      // A deterministic evaluator that crashed on this configuration will
      // crash again: permanent, quarantined on the first attempt.
      throw EvaluationError(describe_worker_death(wait_status),
                            /*transient=*/false);
    }
    if (status == FrameStatus::kCorrupt || status == FrameStatus::kError) {
      const std::string detail =
          status == FrameStatus::kCorrupt
              ? "sandbox: protocol corruption from worker (bad frame)"
              : std::string("sandbox: read from worker failed: ") +
                    std::strerror(errno);
      destroy_worker(worker, /*force_kill=*/true);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      metrics.protocol_errors->increment();
      // Transient: a one-off torn stream is retried (deterministically
      // corrupt evaluators exhaust max_attempts and quarantine).
      throw EvaluationError(detail, /*transient=*/true);
    }

    const auto response = decode_response(payload);
    if (!response) {
      destroy_worker(worker, /*force_kill=*/true);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      metrics.protocol_errors->increment();
      throw EvaluationError(
          "sandbox: protocol corruption from worker (undecodable response)",
          /*transient=*/true);
    }

    // A complete, well-formed response (even a failure report) proves the
    // sandbox infrastructure works: reset the breaker's failure streak and
    // retire the worker if it reached its recycling age.
    bool recycle = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      spawn_failures_in_a_row_ = 0;
      ++worker.served;
      recycle = policy_.max_evals_per_worker > 0 &&
                worker.served >= policy_.max_evals_per_worker;
    }
    if (recycle) {
      destroy_worker(worker, /*force_kill=*/false);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.recycles;
      }
      metrics.recycles->increment();
    }

    if (!response->span_bundle.empty()) {
      // Fold the worker's spans for this request into our merged timeline;
      // a malformed bundle is dropped (observability must never fail an
      // evaluation that produced valid objectives).
      (void)hm::common::ingest_span_bundle(response->span_bundle);
    }
    if (!response->ok) {
      throw EvaluationError(response->message, response->transient);
    }
    if (policy_.forward_metrics) {
      auto& registry = hm::common::MetricsRegistry::global();
      for (const auto& [name, delta] : response->counter_deltas) {
        registry.counter(name).increment(delta);
      }
    }
    return response->objectives;
  }
}

}  // namespace hm::sandbox
