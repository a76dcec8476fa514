// One hosted tuning campaign: a journaled batch-async optimizer run plus
// the durable state that makes it survivable. On admission the submitted
// scenario text is persisted atomically as `<dir>/<id>.scenario.json` and
// the run journals into `<dir>/<id>.wal`; from those two files alone a
// campaign can be re-opened after a daemon crash, a park, or a client
// death, and — because the optimizer merges outcomes in journal seq order —
// the recovered run's final report is byte-identical to an uninterrupted
// one.
//
// Lifecycle (DESIGN.md §11):
//
//   admitted -> running -> done
//                  |
//                  +-> parked  (drain, dead client, campaign deadline,
//                  |     |      daemon restart)
//                  |     +-> running  (client `resume` re-opens the journal)
//                  +-> shed happens before admission (typed `busy` reply)
//
// Two drivers: the server's event loop multiplexes campaigns through
// pump()/deliver(); a single in-process campaign (hm_tune, crowd_transfer)
// calls run(), which is hypermapper::drive over the same session.
//
// Threading: every method except evaluate() is driver-thread-only (the
// server's event loop, or run()'s caller). evaluate() is the pool-thread
// entry point; it only touches the supervision wrapper, which is
// thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "hypermapper/optimizer.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/scenario.hpp"

namespace hm::serve {

class Campaign {
 public:
  enum class State : std::uint8_t {
    kAdmitted,  ///< Persisted, not yet proposing.
    kRunning,   ///< Proposing batches / evaluations in flight.
    kParking,   ///< Park requested; draining in-flight evaluations.
    kParked,    ///< Journal closed, resumable; no session live.
    kDone,      ///< Finished; final report rendered.
  };

  /// One evaluation the server must dispatch: a slot of the current batch.
  struct Dispatch {
    std::size_t slot = 0;
    hm::hypermapper::Configuration config;
  };

  /// Admits a fresh campaign: persists the scenario sidecar, opens a new
  /// journal, and starts the batch-async session. Returns nullptr with
  /// `error` set on any failure (the journal directory is left clean).
  [[nodiscard]] static std::unique_ptr<Campaign> open(
      const std::string& journal_dir, Scenario scenario, std::string* error);

  /// Re-opens a parked or crashed campaign from its sidecar + journal.
  /// The campaign resumes running immediately. A campaign whose journal
  /// already holds a completed run comes back in the done state with its
  /// report rendered — byte-identical to the uninterrupted one.
  [[nodiscard]] static std::unique_ptr<Campaign> recover(
      const std::string& journal_dir, const std::string& id,
      std::string* error);

  ~Campaign();
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] const std::string& id() const noexcept {
    return scenario_->name;
  }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] static const char* to_string(State state);

  /// Drives the session forward: commits a resolved batch and proposes the
  /// next one. Returns the evaluations to dispatch (possibly none: waiting
  /// on in-flight slots, parked, or done). Transitions to kDone/kParked
  /// internally. Driver thread only.
  [[nodiscard]] std::vector<Dispatch> pump();

  /// Runs the campaign in this process until it settles: drives the
  /// session through hypermapper::drive, evaluating each batch on `pool`
  /// (serially when null) through evaluate(). Parks with "campaign
  /// deadline" once the deadline expires and with "interrupted" when
  /// `stop` fires; either may skip the rest of the batch in flight, which
  /// the journal makes up on resume. Otherwise ends done. Logs one line per
  /// committed iteration. Driver thread only.
  void run(hm::common::ThreadPool* pool, const std::function<bool()>& stop);

  /// Pool-thread entry point: one supervised evaluation (never throws).
  [[nodiscard]] hm::hypermapper::EvaluationOutcome evaluate(
      const hm::hypermapper::Configuration& config);

  /// Folds a completed evaluation back in. Driver thread only (the server
  /// funnels pool completions through its queue).
  void deliver(std::size_t slot, hm::hypermapper::EvaluationOutcome outcome);

  /// Requests a park: stop proposing, drain in-flight evaluations, close
  /// the journal resumably. Takes effect immediately when nothing is in
  /// flight. `reason` is reported to the client and logged.
  void park(const std::string& reason);

  /// Request-scoped trace id propagated from the submitting client's
  /// frames; evaluations for this campaign (and their sandbox workers)
  /// record spans under it. 0 = untraced.
  void set_trace_id(std::uint64_t trace_id) noexcept { trace_id_ = trace_id; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }

  /// Evaluations dispatched but not yet delivered.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }
  /// True once the campaign's wall-clock deadline (if any) has expired.
  [[nodiscard]] bool deadline_expired() const;
  [[nodiscard]] const std::string& park_reason() const noexcept {
    return park_reason_;
  }

  /// Appends this campaign's `/status` entry (id, state, progress and
  /// delivery counters, trace id, park reason) as one JSON object.
  void write_status(hm::common::JsonWriter& json) const;

  /// Progress counters for `progress` frames.
  [[nodiscard]] std::size_t iteration() const;
  [[nodiscard]] std::size_t sample_count() const;
  [[nodiscard]] std::size_t front_size() const;

  /// Delivered-evaluation counters for the per-campaign metric labels:
  /// outcomes folded in, and retry attempts consumed beyond each first try.
  [[nodiscard]] std::size_t evals_delivered() const noexcept {
    return evals_delivered_;
  }
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }

  /// The final rendered report (valid once state() == kDone): samples CSV +
  /// front CSV + quarantine CSV + random-phase front indices + per-iteration
  /// stat records — the same rendering the crash harness compares
  /// byte-for-byte.
  [[nodiscard]] const std::string& report() const noexcept { return report_; }
  [[nodiscard]] bool interrupted() const noexcept {
    return result_ && result_->interrupted;
  }
  /// The scenario and, once done, the result the report renders — for
  /// drivers that export more than the report (e.g. a front CSV).
  [[nodiscard]] const Scenario& scenario() const noexcept {
    return *scenario_;
  }
  [[nodiscard]] const std::optional<hm::hypermapper::OptimizationResult>&
  result() const noexcept {
    return result_;
  }

  /// Renders a result the way Campaign does (shared with tests).
  [[nodiscard]] static std::string render_report(
      const hm::hypermapper::DesignSpace& space,
      const hm::hypermapper::OptimizationResult& result,
      const std::vector<std::string>& objective_names);

  [[nodiscard]] static std::string journal_path(const std::string& dir,
                                                const std::string& id);
  [[nodiscard]] static std::string sidecar_path(const std::string& dir,
                                                const std::string& id);
  /// Campaign ids with a scenario sidecar in `dir` (restart recovery scan).
  [[nodiscard]] static std::vector<std::string> scan(const std::string& dir);

 private:
  Campaign() = default;

  /// Builds the evaluator chain + optimizer and opens the journal; shared
  /// by open() and recover().
  [[nodiscard]] bool build(const std::string& journal_dir, bool fresh,
                           std::string* error);
  void finalize_done();
  void finalize_parked();
  /// Destroys the optimizer and evaluator chain, stopping sandbox workers.
  void release_evaluators();

  std::unique_ptr<Scenario> scenario_;  ///< Stable address for evaluator_.
  std::unique_ptr<hm::hypermapper::Evaluator> evaluator_;
  std::unique_ptr<hm::sandbox::SandboxedEvaluator> sandboxed_;
  std::unique_ptr<hm::common::JournalWriter> writer_;
  std::unique_ptr<hm::hypermapper::Optimizer> optimizer_;
  std::unique_ptr<hm::hypermapper::Optimizer::AsyncRun> session_;
  hm::common::Timer clock_;  ///< Started at open/recover (deadline base).

  State state_ = State::kAdmitted;
  std::size_t outstanding_ = 0;
  std::uint64_t trace_id_ = 0;
  std::size_t evals_delivered_ = 0;
  std::size_t retries_ = 0;
  std::string park_reason_;
  std::string report_;
  std::optional<hm::hypermapper::OptimizationResult> result_;
};

}  // namespace hm::serve
