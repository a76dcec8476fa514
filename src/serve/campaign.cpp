#include "serve/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/flight_recorder.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"
#include "hypermapper/report.hpp"
#include "hypermapper/run_journal.hpp"

namespace hm::serve {

namespace {

using hm::hypermapper::EvaluationOutcome;
using hm::hypermapper::OptimizationResult;

constexpr const char* kSidecarSuffix = ".scenario.json";

[[nodiscard]] std::optional<std::string> read_text_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

}  // namespace

const char* Campaign::to_string(State state) {
  switch (state) {
    case State::kAdmitted: return "admitted";
    case State::kRunning: return "running";
    case State::kParking: return "parking";
    case State::kParked: return "parked";
    case State::kDone: return "done";
  }
  return "unknown";
}

std::string Campaign::journal_path(const std::string& dir,
                                   const std::string& id) {
  return dir + "/" + id + ".wal";
}

std::string Campaign::sidecar_path(const std::string& dir,
                                   const std::string& id) {
  return dir + "/" + id + kSidecarSuffix;
}

std::vector<std::string> Campaign::scan(const std::string& dir) {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::string_view suffix(kSidecarSuffix);
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ids.push_back(name.substr(0, name.size() - suffix.size()));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string Campaign::render_report(
    const hm::hypermapper::DesignSpace& space, const OptimizationResult& result,
    const std::vector<std::string>& objective_names) {
  std::string out;
  out += hm::common::to_csv(
      hm::hypermapper::samples_to_csv(space, result, objective_names));
  out += hm::common::to_csv(
      hm::hypermapper::front_to_csv(space, result, objective_names));
  out += hm::common::to_csv(hm::hypermapper::quarantine_to_csv(space, result));
  for (const std::size_t i : result.random_phase_pareto) {
    out += std::to_string(i) + ",";
  }
  out += "\n";
  for (const auto& stats : result.iterations) {
    out += hm::hypermapper::encode_stat_record(stats) + "\n";
  }
  return out;
}

std::unique_ptr<Campaign> Campaign::open(const std::string& journal_dir,
                                         Scenario scenario,
                                         std::string* error) {
  std::unique_ptr<Campaign> campaign(new Campaign());
  campaign->scenario_ = std::make_unique<Scenario>(std::move(scenario));
  // Sidecar first: once the scenario text is durable, a daemon crash at any
  // later point leaves a recoverable campaign (an empty journal recovers as
  // a fresh run).
  const std::string sidecar =
      sidecar_path(journal_dir, campaign->scenario_->name);
  if (!hm::common::write_file_atomic(sidecar, campaign->scenario_->raw,
                                     error)) {
    return nullptr;
  }
  (void)hm::common::sync_parent_directory(sidecar);
  if (!campaign->build(journal_dir, /*fresh=*/true, error)) return nullptr;
  return campaign;
}

std::unique_ptr<Campaign> Campaign::recover(const std::string& journal_dir,
                                            const std::string& id,
                                            std::string* error) {
  const auto text = read_text_file(sidecar_path(journal_dir, id));
  if (!text) {
    if (error != nullptr) *error = "no scenario sidecar for campaign " + id;
    return nullptr;
  }
  auto scenario = parse_scenario(*text, error);
  if (!scenario) return nullptr;
  if (scenario->name != id) {
    if (error != nullptr) {
      *error = "sidecar name '" + scenario->name + "' does not match id " + id;
    }
    return nullptr;
  }
  std::unique_ptr<Campaign> campaign(new Campaign());
  campaign->scenario_ = std::make_unique<Scenario>(std::move(*scenario));
  if (!campaign->build(journal_dir, /*fresh=*/false, error)) return nullptr;
  return campaign;
}

bool Campaign::build(const std::string& journal_dir, bool fresh,
                     std::string* error) {
  const Scenario& scenario = *scenario_;
  evaluator_ = make_scenario_evaluator(scenario);
  if (evaluator_ == nullptr) {
    if (error != nullptr) {
      *error = "unknown evaluator kind '" + scenario.evaluator_kind + "'";
    }
    return false;
  }
  hm::hypermapper::Evaluator* chain = evaluator_.get();
  hm::hypermapper::OptimizerConfig config = scenario.config;
  if (scenario.sandbox) {
    hm::sandbox::SandboxPolicy policy;
    policy.workers = 2;
    policy.deadline_seconds = scenario.eval_deadline_seconds;
    sandboxed_ =
        std::make_unique<hm::sandbox::SandboxedEvaluator>(*chain, policy);
    chain = sandboxed_.get();
  } else {
    config.resilience.deadline_seconds = scenario.eval_deadline_seconds;
  }

  const std::string wal = journal_path(journal_dir, scenario.name);
  writer_ = std::make_unique<hm::common::JournalWriter>();
  if (!writer_->open(wal, error)) return false;
  optimizer_ = std::make_unique<hm::hypermapper::Optimizer>(scenario.space,
                                                            *chain, config);
  optimizer_->attach_journal(writer_.get());

  // A fresh journal file is indistinguishable from "crashed before the run
  // record landed": recover() treats it as a fresh start.
  const bool journal_has_content =
      !fresh && hm::common::read_journal(wal).records.size() > 0;
  if (journal_has_content) {
    session_ = optimizer_->resume_async(wal);
    if (session_ == nullptr) {
      if (error != nullptr) {
        *error = "journal for campaign " + scenario.name + " is unusable";
      }
      return false;
    }
  } else {
    session_ = optimizer_->start_async();
  }
  state_ = State::kRunning;
  if (session_->done()) {
    // Resume of a completed run: render immediately.
    finalize_done();
  }
  return true;
}

Campaign::~Campaign() = default;

std::vector<Campaign::Dispatch> Campaign::pump() {
  std::vector<Dispatch> dispatches;
  if (state_ == State::kParking && outstanding_ == 0) {
    finalize_parked();
    return dispatches;
  }
  if (state_ != State::kRunning || outstanding_ > 0) return dispatches;
  // Propose until a batch actually needs work: a fully-replayed batch (all
  // slots restored from the journal tail) resolves without dispatching.
  while (true) {
    auto batch = session_->next_batch();
    if (!batch) {
      finalize_done();
      return dispatches;
    }
    if (batch->pending.empty()) continue;
    dispatches.reserve(batch->pending.size());
    for (const std::size_t slot : batch->pending) {
      dispatches.push_back(Dispatch{slot, batch->configs[slot]});
    }
    outstanding_ = dispatches.size();
    return dispatches;
  }
}

void Campaign::run(hm::common::ThreadPool* pool,
                   const std::function<bool()>& stop) {
  if (state_ != State::kRunning) return;
  const hm::common::LogContextScope log_context(id());
  optimizer_->set_progress([this](const hm::hypermapper::IterationStats& s) {
    hm::common::log_info() << "iteration " << s.iteration << ": "
                           << s.new_samples << " new samples, "
                           << s.failed_samples << " failed, front "
                           << s.measured_front_size << " ("
                           << static_cast<long>(clock_.seconds()) << "s)";
  });
  hm::hypermapper::drive(
      *session_, pool,
      [this](const hm::hypermapper::Configuration& config) {
        return evaluate(config);
      },
      [this, &stop] { return deadline_expired() || (stop && stop()); });
  if (session_->interrupted()) {
    park(deadline_expired() ? "campaign deadline" : "interrupted");
  } else {
    finalize_done();
  }
}

EvaluationOutcome Campaign::evaluate(
    const hm::hypermapper::Configuration& config) {
  // Pool-thread context: stamp the campaign's trace id on every span this
  // evaluation records (sandbox dispatch propagates it to the worker), and
  // tag log lines with the campaign id.
  const hm::common::TraceContext trace_context(trace_id_);
  const hm::common::LogContextScope log_context(id());
  const hm::common::TraceSpan span("campaign_eval", "serve");
  return optimizer_->supervised_evaluator().evaluate_outcome(config);
}

void Campaign::deliver(std::size_t slot, EvaluationOutcome outcome) {
  if (session_ == nullptr || outstanding_ == 0) return;
  ++evals_delivered_;
  if (outcome.attempts > 1) retries_ += outcome.attempts - 1;
  session_->ingest(slot, std::move(outcome));
  --outstanding_;
  hm::common::FlightRecorder::global().record(
      hm::common::FlightEventKind::kEvalDelivered, id(), iteration(),
      sample_count());
  if (state_ == State::kParking && outstanding_ == 0) finalize_parked();
}

void Campaign::park(const std::string& reason) {
  if (state_ != State::kRunning && state_ != State::kParking) return;
  if (park_reason_.empty()) park_reason_ = reason;
  state_ = State::kParking;
  if (outstanding_ == 0) finalize_parked();
}

bool Campaign::deadline_expired() const {
  const double limit = scenario_->campaign_deadline_seconds;
  return limit > 0.0 && clock_.seconds() > limit;
}

std::size_t Campaign::iteration() const {
  return session_ != nullptr ? session_->iteration() : 0;
}

std::size_t Campaign::sample_count() const {
  return session_ != nullptr ? session_->sample_count() : 0;
}

std::size_t Campaign::front_size() const {
  return session_ != nullptr ? session_->front_size() : 0;
}

void Campaign::write_status(hm::common::JsonWriter& json) const {
  json.begin_object().key("id").string(id());
  json.key("state").string(to_string(state_));
  json.key("iteration").integer(iteration());
  json.key("samples").integer(sample_count());
  json.key("front").integer(front_size());
  json.key("outstanding").integer(outstanding_);
  json.key("evals_delivered").integer(evals_delivered());
  json.key("retries").integer(retries());
  json.key("trace_id").string(std::to_string(trace_id_));
  if (!park_reason_.empty()) json.key("park_reason").string(park_reason_);
  json.end_object();
}

void Campaign::release_evaluators() {
  // Nothing is in flight once a campaign settles, and a resume builds a new
  // Campaign, so the evaluator chain can go now: the sandbox's workers exit
  // here instead of idling until the daemon does. The optimizer refers to
  // the chain, so it goes first.
  optimizer_.reset();
  sandboxed_.reset();
  evaluator_.reset();
}

void Campaign::finalize_done() {
  const hm::common::LogContextScope log_context(id());
  result_ = session_->finish();
  const OptimizationResult& result = *result_;
  report_ = render_report(scenario_->space, result,
                          scenario_->objective_names);
  session_.reset();
  release_evaluators();
  writer_->close();
  state_ = State::kDone;
  hm::common::log_info() << "campaign " << id() << " done: "
                         << result.samples.size() << " samples, "
                         << result.pareto.size() << " front points";
}

void Campaign::finalize_parked() {
  const hm::common::LogContextScope log_context(id());
  // interrupt() + finish() journal nothing new for unresolved slots; the
  // journal's committed prefix is exactly what resume_async replays, so a
  // parked campaign re-opens byte-identically.
  session_->interrupt();
  (void)session_->finish();
  session_.reset();
  release_evaluators();
  writer_->close();
  state_ = State::kParked;
  hm::common::log_info() << "campaign " << id() << " parked ("
                         << park_reason_ << ")";
}

}  // namespace hm::serve
