#include "slambench/adapters.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace hm::slambench {

using hm::hypermapper::Configuration;
using hm::hypermapper::DesignSpace;
using hm::hypermapper::EvaluationError;
using hm::hypermapper::Parameter;

std::optional<EvaluationError> classify_run(const RunMetrics& metrics,
                                            const SlamFailureModel& model) {
  if (!model.enabled) return std::nullopt;
  if (!std::isfinite(metrics.ate.mean) || !std::isfinite(metrics.ate.max)) {
    // Parameter-infeasible run: the error metric itself degenerated. No
    // retry can fix the configuration.
    return EvaluationError("non-finite ATE (parameter-infeasible run)",
                           /*transient=*/false);
  }
  if (metrics.frames > 0) {
    const double failed_fraction =
        static_cast<double>(metrics.tracking_failures) /
        static_cast<double>(metrics.frames);
    if (failed_fraction > model.max_tracking_failure_fraction) {
      // Tracking loss: a different seed/schedule may re-lock, so transient.
      return EvaluationError(
          "tracking lost on " + std::to_string(metrics.tracking_failures) +
              "/" + std::to_string(metrics.frames) + " frames",
          /*transient=*/true);
    }
  }
  return std::nullopt;
}

DesignSpace build_kfusion_space() {
  DesignSpace space;
  space.add(Parameter::ordinal("volume_resolution", {64, 128, 256}));
  space.add(Parameter::ordinal("mu", {0.025, 0.05, 0.1, 0.2, 0.3, 0.4}));
  space.add(Parameter::ordinal("icp_iterations_l0", {4, 6, 8, 10, 12, 16}));
  space.add(Parameter::ordinal("icp_iterations_l1", {2, 3, 4, 5, 6}));
  space.add(Parameter::ordinal("icp_iterations_l2", {1, 2, 3, 4}));
  space.add(Parameter::ordinal("compute_size_ratio", {1, 2, 4, 8}));
  space.add(Parameter::integer_range("tracking_rate", 1, 5));
  space.add(Parameter::integer_range("integration_rate", 1, 5));
  space.add(Parameter::ordinal(
      "icp_threshold",
      {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}, /*log_feature=*/true));
  assert(space.cardinality() == 1'728'000ULL);
  return space;
}

DesignSpace build_elasticfusion_space() {
  DesignSpace space;
  space.add(Parameter::integer_range("icp_rgb_weight", 1, 25));
  space.add(Parameter::integer_range("depth_cutoff", 1, 18));
  space.add(Parameter::integer_range("confidence_threshold", 1, 32));
  space.add(Parameter::boolean("so3_prealign"));
  space.add(Parameter::boolean("open_loop"));
  space.add(Parameter::boolean("relocalisation"));
  space.add(Parameter::boolean("fast_odometry"));
  space.add(Parameter::boolean("frame_to_frame_rgb"));
  assert(space.cardinality() == 460'800ULL);
  return space;
}

namespace {

double value_of(const DesignSpace& space, const Configuration& config,
                std::string_view name) {
  const auto index = space.index_of(name);
  assert(index.has_value());
  return config[*index];
}

void set_value(const DesignSpace& space, Configuration& config,
               std::string_view name, double value) {
  const auto index = space.index_of(name);
  assert(index.has_value());
  config[*index] = value;
}

}  // namespace

hm::kfusion::KFusionParams kfusion_params_from_config(const DesignSpace& space,
                                                      const Configuration& raw) {
  const Configuration config = space.snap(raw);
  hm::kfusion::KFusionParams params;
  params.volume_resolution =
      static_cast<int>(value_of(space, config, "volume_resolution"));
  params.mu = value_of(space, config, "mu");
  params.icp_iterations = {
      static_cast<int>(value_of(space, config, "icp_iterations_l0")),
      static_cast<int>(value_of(space, config, "icp_iterations_l1")),
      static_cast<int>(value_of(space, config, "icp_iterations_l2"))};
  params.compute_size_ratio =
      static_cast<int>(value_of(space, config, "compute_size_ratio"));
  params.tracking_rate = static_cast<int>(value_of(space, config, "tracking_rate"));
  params.integration_rate =
      static_cast<int>(value_of(space, config, "integration_rate"));
  params.icp_threshold = value_of(space, config, "icp_threshold");
  return params;
}

Configuration kfusion_config_from_params(const DesignSpace& space,
                                         const hm::kfusion::KFusionParams& params) {
  Configuration config(space.parameter_count(), 0.0);
  set_value(space, config, "volume_resolution", params.volume_resolution);
  set_value(space, config, "mu", params.mu);
  set_value(space, config, "icp_iterations_l0", params.icp_iterations[0]);
  set_value(space, config, "icp_iterations_l1", params.icp_iterations[1]);
  set_value(space, config, "icp_iterations_l2", params.icp_iterations[2]);
  set_value(space, config, "compute_size_ratio", params.compute_size_ratio);
  set_value(space, config, "tracking_rate", params.tracking_rate);
  set_value(space, config, "integration_rate", params.integration_rate);
  set_value(space, config, "icp_threshold", params.icp_threshold);
  return space.snap(config);
}

hm::elasticfusion::EFParams ef_params_from_config(const DesignSpace& space,
                                                  const Configuration& raw) {
  const Configuration config = space.snap(raw);
  hm::elasticfusion::EFParams params;
  params.icp_rgb_weight = value_of(space, config, "icp_rgb_weight");
  params.depth_cutoff = value_of(space, config, "depth_cutoff");
  params.confidence_threshold = value_of(space, config, "confidence_threshold");
  // hm-lint: allow(no-float-equality) snapped boolean values are exact 0.0/1.0
  params.so3_prealign = value_of(space, config, "so3_prealign") != 0.0;
  // hm-lint: allow(no-float-equality) snapped boolean values are exact 0.0/1.0
  params.open_loop = value_of(space, config, "open_loop") != 0.0;
  // hm-lint: allow(no-float-equality) snapped boolean values are exact 0.0/1.0
  params.relocalisation = value_of(space, config, "relocalisation") != 0.0;
  // hm-lint: allow(no-float-equality) snapped boolean values are exact 0.0/1.0
  params.fast_odometry = value_of(space, config, "fast_odometry") != 0.0;
  params.frame_to_frame_rgb =
      // hm-lint: allow(no-float-equality) snapped boolean values are exact 0.0/1.0
      value_of(space, config, "frame_to_frame_rgb") != 0.0;
  return params;
}

Configuration ef_config_from_params(const DesignSpace& space,
                                    const hm::elasticfusion::EFParams& params) {
  Configuration config(space.parameter_count(), 0.0);
  set_value(space, config, "icp_rgb_weight", params.icp_rgb_weight);
  set_value(space, config, "depth_cutoff", params.depth_cutoff);
  set_value(space, config, "confidence_threshold", params.confidence_threshold);
  set_value(space, config, "so3_prealign", params.so3_prealign ? 1.0 : 0.0);
  set_value(space, config, "open_loop", params.open_loop ? 1.0 : 0.0);
  set_value(space, config, "relocalisation", params.relocalisation ? 1.0 : 0.0);
  set_value(space, config, "fast_odometry", params.fast_odometry ? 1.0 : 0.0);
  set_value(space, config, "frame_to_frame_rgb",
            params.frame_to_frame_rgb ? 1.0 : 0.0);
  return space.snap(config);
}

bool EvaluationCache::lookup(std::uint64_t key, RunMetrics& out) const {
  const std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = it->second;
  return true;
}

std::vector<std::pair<std::uint64_t, RunMetrics>>
EvaluationCache::snapshot_sorted() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::pair<std::uint64_t, RunMetrics>> entries;
  entries.reserve(entries_.size());
  for (const auto& [key, metrics] : entries_) {
    entries.emplace_back(key, metrics);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

bool EvaluationCache::store(std::uint64_t key, const RunMetrics& metrics) {
  const std::lock_guard lock(mutex_);
  return entries_.try_emplace(key, metrics).second;
}

std::size_t EvaluationCache::restore(
    const std::vector<std::pair<std::uint64_t, RunMetrics>>& entries) {
  const std::lock_guard lock(mutex_);
  std::size_t inserted = 0;
  for (const auto& [key, metrics] : entries) {
    inserted += entries_.try_emplace(key, metrics).second ? 1 : 0;
  }
  return inserted;
}

std::size_t EvaluationCache::size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

KFusionEvaluator::KFusionEvaluator(
    std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
    DeviceModel device, AteKind ate_kind, std::shared_ptr<EvaluationCache> cache)
    : space_(build_kfusion_space()),
      sequence_(std::move(sequence)),
      device_(std::move(device)),
      ate_kind_(ate_kind),
      cache_(cache ? std::move(cache) : std::make_shared<EvaluationCache>()) {}

RunMetrics KFusionEvaluator::measure(const Configuration& config) {
  const std::uint64_t key = space_.key(config);
  RunMetrics metrics;
  if (cache_->lookup(key, metrics)) return metrics;
  const hm::kfusion::KFusionParams params =
      kfusion_params_from_config(space_, config);
  metrics = run_kfusion(*sequence_, params);
  cache_->store(key, metrics);
  return metrics;
}

std::vector<double> KFusionEvaluator::evaluate(const Configuration& config) {
  ++evaluations_;
  const RunMetrics metrics = measure(config);
  if (auto failure = classify_run(metrics, failures_)) throw *failure;
  const double ate =
      ate_kind_ == AteKind::kMax ? metrics.ate.max : metrics.ate.mean;
  return {device_.seconds_per_frame(metrics.stats, metrics.frames), ate};
}

KFusionEnergyEvaluator::KFusionEnergyEvaluator(
    std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
    DeviceModel device, AteKind ate_kind, std::shared_ptr<EvaluationCache> cache)
    : space_(build_kfusion_space()),
      sequence_(std::move(sequence)),
      device_(std::move(device)),
      ate_kind_(ate_kind),
      cache_(cache ? std::move(cache) : std::make_shared<EvaluationCache>()) {}

RunMetrics KFusionEnergyEvaluator::measure(const Configuration& config) {
  const std::uint64_t key = space_.key(config);
  RunMetrics metrics;
  if (cache_->lookup(key, metrics)) return metrics;
  metrics = run_kfusion(*sequence_, kfusion_params_from_config(space_, config));
  cache_->store(key, metrics);
  return metrics;
}

std::vector<double> KFusionEnergyEvaluator::evaluate(const Configuration& config) {
  const RunMetrics metrics = measure(config);
  const double ate =
      ate_kind_ == AteKind::kMax ? metrics.ate.max : metrics.ate.mean;
  return {device_.seconds_per_frame(metrics.stats, metrics.frames), ate,
          device_.average_watts(metrics.stats, metrics.frames)};
}

ElasticFusionEvaluator::ElasticFusionEvaluator(
    std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
    DeviceModel device, AteKind ate_kind, std::shared_ptr<EvaluationCache> cache)
    : space_(build_elasticfusion_space()),
      sequence_(std::move(sequence)),
      device_(std::move(device)),
      ate_kind_(ate_kind),
      cache_(cache ? std::move(cache) : std::make_shared<EvaluationCache>()) {}

RunMetrics ElasticFusionEvaluator::measure(const Configuration& config) {
  const std::uint64_t key = space_.key(config);
  RunMetrics metrics;
  if (cache_->lookup(key, metrics)) return metrics;
  const hm::elasticfusion::EFParams params = ef_params_from_config(space_, config);
  metrics = run_elasticfusion(*sequence_, params);
  cache_->store(key, metrics);
  return metrics;
}

std::vector<double> ElasticFusionEvaluator::evaluate(const Configuration& config) {
  ++evaluations_;
  const RunMetrics metrics = measure(config);
  if (auto failure = classify_run(metrics, failures_)) throw *failure;
  const double ate =
      ate_kind_ == AteKind::kMax ? metrics.ate.max : metrics.ate.mean;
  return {device_.seconds_per_frame(metrics.stats, metrics.frames), ate};
}

}  // namespace hm::slambench
