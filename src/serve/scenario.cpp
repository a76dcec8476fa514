#include "serve/scenario.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/json.hpp"
#include "dataset/sequence.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "slambench/adapters.hpp"

namespace hm::serve {

namespace {

using hm::common::JsonValue;
using hm::hypermapper::Configuration;
using hm::hypermapper::DesignSpace;
using hm::hypermapper::EvaluationError;
using hm::hypermapper::Evaluator;
using hm::hypermapper::Parameter;

constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// Bounds on a SLAM scenario's sequence length: a client cannot make the
/// daemon render an unbounded sequence, and the paper's 400 frames fit.
constexpr std::size_t kMinFrames = 2;
constexpr std::size_t kMaxFrames = 1000;

[[nodiscard]] bool is_slam_kind(const std::string& kind) {
  return kind == "kfusion" || kind == "elasticfusion";
}

/// The device models a scenario may name — exactly these three, with no
/// fallback for an unknown name.
[[nodiscard]] std::optional<hm::slambench::DeviceModel> scenario_device(
    const std::string& name) {
  if (name == "odroid") return hm::slambench::odroid_xu3();
  if (name == "asus") return hm::slambench::asus_t200ta();
  if (name == "nvidia") return hm::slambench::nvidia_gtx780ti();
  return std::nullopt;
}

/// Scenario-decode helpers: every failure path sets `error` exactly once.
[[nodiscard]] bool get_number(const JsonValue& object, const std::string& key,
                              double* out, std::string* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;  // Optional key; keep the default.
  if (value->kind != JsonValue::Kind::kNumber) {
    *error = "'" + key + "' must be a number";
    return false;
  }
  *out = value->number;
  return true;
}

[[nodiscard]] bool get_count(const JsonValue& object, const std::string& key,
                             std::size_t* out, std::string* error) {
  double number = static_cast<double>(*out);
  if (!get_number(object, key, &number, error)) return false;
  if (number < 0.0 || number != std::floor(number) || number > 1e9) {
    *error = "'" + key + "' must be a small non-negative integer";
    return false;
  }
  *out = static_cast<std::size_t>(number);
  return true;
}

[[nodiscard]] bool get_u64(const JsonValue& object, const std::string& key,
                           std::uint64_t* out, std::string* error) {
  double number = static_cast<double>(*out);
  if (!get_number(object, key, &number, error)) return false;
  if (number < 0.0 || number != std::floor(number) || number > 1e15) {
    *error = "'" + key + "' must be a non-negative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(number);
  return true;
}

[[nodiscard]] bool valid_campaign_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

[[nodiscard]] bool parse_parameter(const JsonValue& spec, DesignSpace* space,
                                   std::string* error) {
  if (spec.kind != JsonValue::Kind::kObject) {
    *error = "space entries must be objects";
    return false;
  }
  const JsonValue* kind = spec.find("kind");
  const JsonValue* name = spec.find("name");
  if (kind == nullptr || kind->kind != JsonValue::Kind::kString ||
      name == nullptr || name->kind != JsonValue::Kind::kString ||
      name->string.empty()) {
    *error = "parameter needs string 'kind' and 'name'";
    return false;
  }
  if (space->index_of(name->string).has_value()) {
    *error = "duplicate parameter name '" + name->string + "'";
    return false;
  }
  const JsonValue* log = spec.find("log");
  const bool log_feature =
      log != nullptr && log->kind == JsonValue::Kind::kBool && log->boolean;
  if (kind->string == "integer") {
    double lo = 0.0;
    double hi = -1.0;
    if (!get_number(spec, "lo", &lo, error) ||
        !get_number(spec, "hi", &hi, error)) {
      return false;
    }
    if (lo != std::floor(lo) || hi != std::floor(hi) || hi < lo) {
      *error = "integer parameter '" + name->string + "' needs lo <= hi";
      return false;
    }
    // Beyond 2^53 a double no longer holds every integer, and the int64
    // cast below would be undefined past 2^63.
    if (std::fabs(lo) > kMaxExactInteger || std::fabs(hi) > kMaxExactInteger) {
      *error = "integer parameter '" + name->string +
               "' needs bounds within +-2^53";
      return false;
    }
    space->add(Parameter::integer_range(name->string,
                                        static_cast<std::int64_t>(lo),
                                        static_cast<std::int64_t>(hi)));
    return true;
  }
  if (kind->string == "ordinal") {
    const JsonValue* values = spec.find("values");
    if (values == nullptr || values->kind != JsonValue::Kind::kArray ||
        values->array.empty()) {
      *error = "ordinal parameter '" + name->string + "' needs 'values'";
      return false;
    }
    std::vector<double> list;
    list.reserve(values->array.size());
    for (const JsonValue& entry : values->array) {
      if (entry.kind != JsonValue::Kind::kNumber) {
        *error = "ordinal values must be numbers";
        return false;
      }
      if (!list.empty() && !(list.back() < entry.number)) {
        *error = "ordinal parameter '" + name->string +
                 "' needs strictly increasing values";
        return false;
      }
      list.push_back(entry.number);
    }
    space->add(Parameter::ordinal(name->string, std::move(list), log_feature));
    return true;
  }
  if (kind->string == "boolean") {
    space->add(Parameter::boolean(name->string));
    return true;
  }
  if (kind->string == "categorical") {
    const JsonValue* labels = spec.find("labels");
    if (labels == nullptr || labels->kind != JsonValue::Kind::kArray ||
        labels->array.empty()) {
      *error = "categorical parameter '" + name->string + "' needs 'labels'";
      return false;
    }
    std::vector<std::string> list;
    list.reserve(labels->array.size());
    for (const JsonValue& entry : labels->array) {
      if (entry.kind != JsonValue::Kind::kString) {
        *error = "categorical labels must be strings";
        return false;
      }
      list.push_back(entry.string);
    }
    space->add(Parameter::categorical(name->string, std::move(list)));
    return true;
  }
  if (kind->string == "real") {
    double lo = 0.0;
    double hi = -1.0;
    if (!get_number(spec, "lo", &lo, error) ||
        !get_number(spec, "hi", &hi, error)) {
      return false;
    }
    if (!(lo < hi)) {
      *error = "real parameter '" + name->string + "' needs lo < hi";
      return false;
    }
    space->add(Parameter::real(name->string, lo, hi, log_feature));
    return true;
  }
  *error = "unknown parameter kind '" + kind->string + "'";
  return false;
}

[[nodiscard]] bool get_string(const JsonValue& object, const std::string& key,
                              std::string* out, std::string* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;  // Optional key; keep the default.
  if (value->kind != JsonValue::Kind::kString) {
    *error = "'" + key + "' must be a string";
    return false;
  }
  *out = value->string;
  return true;
}

/// Decodes the optional "evaluator" object into `scenario`: the kind, the
/// failure/hang injection knobs, and a SLAM kind's device and frame count.
[[nodiscard]] bool parse_evaluator(const JsonValue* evaluator,
                                   Scenario* scenario, std::string* error) {
  JsonValue absent;
  absent.kind = JsonValue::Kind::kObject;
  const JsonValue& spec = evaluator != nullptr ? *evaluator : absent;
  if (spec.kind != JsonValue::Kind::kObject) {
    *error = "'evaluator' must be an object";
    return false;
  }
  if (!get_string(spec, "kind", &scenario->evaluator_kind, error)) {
    return false;
  }
  const std::string& name = scenario->evaluator_kind;
  const bool slam = is_slam_kind(name);
  if (!slam && name != "grid" && name != "synthetic") {
    *error = "unknown evaluator kind '" + name + "'";
    return false;
  }
  if (!slam && (spec.find("device") != nullptr ||
                spec.find("frames") != nullptr)) {
    *error = "'device' and 'frames' apply only to the kfusion and "
             "elasticfusion evaluators";
    return false;
  }
  if (slam) {
    // The defaults of the paper's two campaigns (Fig. 3, Table I).
    const bool ef = name == "elasticfusion";
    scenario->device = ef ? "nvidia" : "odroid";
    scenario->frames = ef ? 40 : 30;
  }
  if (!get_u64(spec, "fail_modulo", &scenario->fail_modulo, error) ||
      !get_u64(spec, "fail_remainder", &scenario->fail_remainder, error) ||
      !get_u64(spec, "hang_modulo", &scenario->hang_modulo, error) ||
      !get_u64(spec, "hang_remainder", &scenario->hang_remainder, error) ||
      !get_number(spec, "hang_seconds", &scenario->hang_seconds, error) ||
      !get_string(spec, "device", &scenario->device, error) ||
      !get_count(spec, "frames", &scenario->frames, error)) {
    return false;
  }
  if (slam && !scenario_device(scenario->device)) {
    *error = "unknown device '" + scenario->device +
             "' (expected odroid, asus or nvidia)";
    return false;
  }
  if (slam && (scenario->frames < kMinFrames || scenario->frames > kMaxFrames)) {
    *error = "'frames' must be in [" + std::to_string(kMinFrames) + ", " +
             std::to_string(kMaxFrames) + "]";
    return false;
  }
  return true;
}

/// The "grid" evaluator: the crash_test problem, generalized to any space.
/// Objectives are smooth functions of the first two features, with a
/// deterministic permanent-failure band keyed by configuration (and an
/// optional hang band for chaos tests). Deterministic and thread-safe.
class GridEvaluator final : public Evaluator {
 public:
  GridEvaluator(const DesignSpace& space, const Scenario& scenario)
      : space_(space),
        objective_count_(scenario.objective_names.size()),
        fail_modulo_(scenario.fail_modulo),
        fail_remainder_(scenario.fail_remainder),
        hang_modulo_(scenario.hang_modulo),
        hang_remainder_(scenario.hang_remainder),
        hang_seconds_(scenario.hang_seconds) {}

  [[nodiscard]] std::size_t objective_count() const override {
    return objective_count_;
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    const std::uint64_t key = space_.cardinality() > 0
                                  ? space_.key(config)
                                  : hm::hypermapper::config_hash(config);
    if (hang_modulo_ != 0 && key % hang_modulo_ == hang_remainder_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(hang_seconds_));
    }
    if (fail_modulo_ != 0 && key % fail_modulo_ == fail_remainder_) {
      throw EvaluationError(
          "deterministic failure for key " + std::to_string(key),
          /*transient=*/false);
    }
    const std::vector<double> features = space_.features(config);
    const double x = features[0];
    const double y = features.size() > 1 ? features[1] : 0.0;
    std::vector<double> objectives;
    objectives.push_back(x + 0.01 * y);
    if (objective_count_ > 1) {
      objectives.push_back((1.0 - x) * (1.0 - x) +
                           0.4 * (y - 0.3) * (y - 0.3));
    }
    return objectives;
  }

 private:
  const DesignSpace& space_;
  std::size_t objective_count_;
  std::uint64_t fail_modulo_;
  std::uint64_t fail_remainder_;
  std::uint64_t hang_modulo_;
  std::uint64_t hang_remainder_;
  double hang_seconds_;
};

/// The "synthetic" evaluator: a smooth multimodal surface over all features
/// (no failure injection unless requested). Deterministic and thread-safe.
class SyntheticEvaluator final : public Evaluator {
 public:
  SyntheticEvaluator(const DesignSpace& space, const Scenario& scenario)
      : space_(space),
        objective_count_(scenario.objective_names.size()),
        fail_modulo_(scenario.fail_modulo),
        fail_remainder_(scenario.fail_remainder) {}

  [[nodiscard]] std::size_t objective_count() const override {
    return objective_count_;
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    const std::uint64_t key = space_.cardinality() > 0
                                  ? space_.key(config)
                                  : hm::hypermapper::config_hash(config);
    if (fail_modulo_ != 0 && key % fail_modulo_ == fail_remainder_) {
      throw EvaluationError(
          "deterministic failure for key " + std::to_string(key),
          /*transient=*/false);
    }
    const std::vector<double> features = space_.features(config);
    double sum = 0.0;
    double ripple = 0.0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      const double f = features[i];
      sum += f;
      ripple += 0.5 * (1.0 + std::sin(6.28318 * f * double(i + 1))) /
                double(features.size());
    }
    const double mean = sum / double(features.size());
    std::vector<double> objectives;
    objectives.push_back(mean + 0.1 * ripple);
    if (objective_count_ > 1) {
      objectives.push_back((1.0 - mean) * (1.0 - mean) + 0.1 * ripple);
    }
    return objectives;
  }

 private:
  const DesignSpace& space_;
  std::size_t objective_count_;
  std::uint64_t fail_modulo_;
  std::uint64_t fail_remainder_;
};

}  // namespace

std::optional<Scenario> parse_scenario(std::string_view text,
                                       std::string* error) {
  std::string parse_error;
  const auto document = hm::common::parse_json(text, &parse_error);
  if (!document) {
    if (error != nullptr) *error = "invalid JSON: " + parse_error;
    return std::nullopt;
  }
  if (document->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "scenario must be a JSON object";
    return std::nullopt;
  }
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;

  Scenario scenario;
  scenario.raw.assign(text);

  const JsonValue* name = document->find("name");
  if (name == nullptr || name->kind != JsonValue::Kind::kString ||
      !valid_campaign_name(name->string)) {
    *err = "scenario needs a 'name' matching [A-Za-z0-9._-]{1,64}";
    return std::nullopt;
  }
  scenario.name = name->string;

  // The evaluator comes first: a SLAM kind brings its own space and
  // objective names.
  if (!parse_evaluator(document->find("evaluator"), &scenario, err)) {
    return std::nullopt;
  }
  const bool slam = is_slam_kind(scenario.evaluator_kind);
  const bool ef = scenario.evaluator_kind == "elasticfusion";

  const JsonValue* space = document->find("space");
  if (slam) {
    if (space != nullptr) {
      *err = "the " + scenario.evaluator_kind +
             " evaluator has a built-in space; drop 'space'";
      return std::nullopt;
    }
    scenario.space = ef ? hm::slambench::build_elasticfusion_space()
                        : hm::slambench::build_kfusion_space();
  } else {
    if (space == nullptr || space->kind != JsonValue::Kind::kArray ||
        space->array.empty()) {
      *err = "scenario needs a non-empty 'space' array";
      return std::nullopt;
    }
    for (const JsonValue& spec : space->array) {
      if (!parse_parameter(spec, &scenario.space, err)) return std::nullopt;
    }
  }

  scenario.objective_names = {"f0", "f1"};
  if (slam) {
    scenario.objective_names = {"runtime_s", ef ? "mean_ate_m" : "max_ate_m"};
  }
  if (const JsonValue* objectives = document->find("objectives")) {
    if (objectives->kind != JsonValue::Kind::kArray ||
        objectives->array.empty() || objectives->array.size() > 2) {
      *err = "'objectives' must list 1 or 2 names";
      return std::nullopt;
    }
    if (slam && objectives->array.size() != 2) {
      *err = "the " + scenario.evaluator_kind + " evaluator has 2 objectives";
      return std::nullopt;
    }
    scenario.objective_names.clear();
    for (const JsonValue& entry : objectives->array) {
      if (entry.kind != JsonValue::Kind::kString || entry.string.empty()) {
        *err = "objective names must be non-empty strings";
        return std::nullopt;
      }
      scenario.objective_names.push_back(entry.string);
    }
  }

  // Small-by-default budget: a served smoke campaign should finish in
  // seconds; clients opt into larger budgets explicitly.
  scenario.config.random_samples = 40;
  scenario.config.max_iterations = 4;
  scenario.config.max_samples_per_iteration = 15;
  scenario.config.pool_size = 200;
  scenario.config.forest.tree_count = 8;
  if (!get_u64(*document, "seed", &scenario.config.seed, err)) {
    return std::nullopt;
  }
  if (const JsonValue* budget = document->find("budget")) {
    if (budget->kind != JsonValue::Kind::kObject) {
      *err = "'budget' must be an object";
      return std::nullopt;
    }
    if (!get_count(*budget, "random_samples", &scenario.config.random_samples,
                   err) ||
        !get_count(*budget, "max_iterations", &scenario.config.max_iterations,
                   err) ||
        !get_count(*budget, "max_samples_per_iteration",
                   &scenario.config.max_samples_per_iteration, err) ||
        !get_count(*budget, "pool_size", &scenario.config.pool_size, err) ||
        !get_count(*budget, "tree_count", &scenario.config.forest.tree_count,
                   err)) {
      return std::nullopt;
    }
    if (scenario.config.random_samples == 0) {
      *err = "'random_samples' must be >= 1";
      return std::nullopt;
    }
  }

  if (const JsonValue* sandbox = document->find("sandbox")) {
    if (sandbox->kind != JsonValue::Kind::kBool) {
      *err = "'sandbox' must be a boolean";
      return std::nullopt;
    }
    scenario.sandbox = sandbox->boolean;
  }
  if (const JsonValue* deadlines = document->find("deadlines")) {
    if (deadlines->kind != JsonValue::Kind::kObject) {
      *err = "'deadlines' must be an object";
      return std::nullopt;
    }
    if (!get_number(*deadlines, "eval_seconds",
                    &scenario.eval_deadline_seconds, err) ||
        !get_number(*deadlines, "campaign_seconds",
                    &scenario.campaign_deadline_seconds, err)) {
      return std::nullopt;
    }
    if (scenario.eval_deadline_seconds < 0.0 ||
        scenario.campaign_deadline_seconds < 0.0) {
      *err = "deadlines must be non-negative";
      return std::nullopt;
    }
  }
  return scenario;
}

std::unique_ptr<hm::hypermapper::Evaluator> make_scenario_evaluator(
    const Scenario& scenario) {
  if (scenario.evaluator_kind == "grid") {
    return std::make_unique<GridEvaluator>(scenario.space, scenario);
  }
  if (scenario.evaluator_kind == "synthetic") {
    return std::make_unique<SyntheticEvaluator>(scenario.space, scenario);
  }
  const auto device = scenario_device(scenario.device);
  if (!is_slam_kind(scenario.evaluator_kind) || !device ||
      scenario.frames < kMinFrames || scenario.frames > kMaxFrames) {
    return nullptr;
  }
  const bool ef = scenario.evaluator_kind == "elasticfusion";
  const auto sequence = hm::dataset::make_benchmark_sequence(
      scenario.frames, 80, 60, nullptr, /*with_intensity=*/ef);
  if (ef) {
    return std::make_unique<hm::slambench::ElasticFusionEvaluator>(sequence,
                                                                   *device);
  }
  return std::make_unique<hm::slambench::KFusionEvaluator>(sequence, *device);
}

}  // namespace hm::serve
