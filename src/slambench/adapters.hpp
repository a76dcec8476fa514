// Glue between the SLAM substrates and the HyperMapper optimizer: the two
// algorithmic design spaces exactly as explored in the paper (Sections
// III-B and III-C), configuration <-> parameter-struct conversion, and
// caching evaluators. The cache is keyed by configuration and stores the
// device-independent measurement (ATE + kernel counts); runtime for a
// specific device is derived on lookup, which lets multi-device experiments
// (Fig. 3a/3b, Fig. 5) reuse evaluations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataset/sequence.hpp"
#include "elasticfusion/params.hpp"
#include "hypermapper/evaluator.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "hypermapper/space.hpp"
#include "kfusion/params.hpp"
#include "slambench/device.hpp"
#include "slambench/harness.hpp"

namespace hm::slambench {

/// The KFusion algorithmic space (cardinality 1,728,000 — "roughly
/// 1,800,000" in the paper).
[[nodiscard]] hm::hypermapper::DesignSpace build_kfusion_space();

/// The ElasticFusion algorithmic space (cardinality 460,800 — "roughly
/// 450,000" in the paper).
[[nodiscard]] hm::hypermapper::DesignSpace build_elasticfusion_space();

/// Conversions between optimizer configurations and parameter structs.
/// Configurations must come from the matching space (values are snapped).
[[nodiscard]] hm::kfusion::KFusionParams kfusion_params_from_config(
    const hm::hypermapper::DesignSpace& space,
    const hm::hypermapper::Configuration& config);
[[nodiscard]] hm::hypermapper::Configuration kfusion_config_from_params(
    const hm::hypermapper::DesignSpace& space,
    const hm::kfusion::KFusionParams& params);

[[nodiscard]] hm::elasticfusion::EFParams ef_params_from_config(
    const hm::hypermapper::DesignSpace& space,
    const hm::hypermapper::Configuration& config);
[[nodiscard]] hm::hypermapper::Configuration ef_config_from_params(
    const hm::hypermapper::DesignSpace& space,
    const hm::elasticfusion::EFParams& params);

/// Which ATE statistic drives the accuracy objective (the KFusion figures
/// plot max ATE; the ElasticFusion table reports the mean).
enum class AteKind { kMean, kMax };

/// Declares which SLAM run outcomes count as evaluation failures for the
/// supervision layer, and which of those are transient. Disabled by
/// default: a failed run then simply reports its (large) ATE, as before.
struct SlamFailureModel {
  bool enabled = false;
  /// Tracking lost on more than this fraction of frames => a *transient*
  /// "tracking loss" failure: a retry with a perturbed seed (different
  /// noise schedule / frame subset) may re-lock, so it is worth retrying.
  double max_tracking_failure_fraction = 0.5;
  /// Non-finite ATE is always a *permanent* failure when enabled: it means
  /// the configuration itself is infeasible (e.g. a volume the trajectory
  /// leaves immediately), and no retry can fix the parameters.
};

/// Maps run metrics to a classified evaluation failure under `model`, or
/// nullopt if the run is acceptable. Used by the evaluators below; exposed
/// for tests and custom adapters.
[[nodiscard]] std::optional<hm::hypermapper::EvaluationError> classify_run(
    const RunMetrics& metrics, const SlamFailureModel& model);

/// Device-independent evaluation cache, shareable across evaluators.
class EvaluationCache {
 public:
  [[nodiscard]] bool lookup(std::uint64_t key, RunMetrics& out) const;

  /// Inserts `metrics` under `key` unless the key is already present —
  /// first-wins. This matters on resume: entries restored from a journal
  /// are the canonical measurements, and a live re-measurement of the same
  /// configuration (e.g. the in-flight iteration racing a replay) must not
  /// displace them, or the resumed report drifts from the original run.
  /// Returns true when the entry was inserted, false when an existing
  /// entry won.
  bool store(std::uint64_t key, const RunMetrics& metrics);

  /// Bulk first-wins load, for restoring a journaled cache before a
  /// resumed run starts. Returns the number of entries actually inserted
  /// (keys already present keep their existing metrics).
  std::size_t restore(
      const std::vector<std::pair<std::uint64_t, RunMetrics>>& entries);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }

  /// Snapshot of the cache contents in ascending key order. The backing
  /// map is unordered, so this sorted view is the only sanctioned way to
  /// iterate entries for CSV/report export — exports must be byte-stable
  /// across reruns (enforced by hm-lint's no-unordered-output-iteration).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, RunMetrics>>
  snapshot_sorted() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, RunMetrics> entries_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Objectives returned by both evaluators: [0] = runtime per frame (s) on
/// the evaluator's device, [1] = ATE (m). Both minimized.
class KFusionEvaluator final : public hm::hypermapper::Evaluator {
 public:
  KFusionEvaluator(std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
                   DeviceModel device, AteKind ate_kind = AteKind::kMax,
                   std::shared_ptr<EvaluationCache> cache = nullptr);

  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::vector<double> evaluate(
      const hm::hypermapper::Configuration& config) override;
  [[nodiscard]] bool thread_safe() const override { return true; }

  /// Full metrics for one configuration (cached like evaluate()).
  [[nodiscard]] RunMetrics measure(const hm::hypermapper::Configuration& config);

  [[nodiscard]] const hm::hypermapper::DesignSpace& space() const {
    return space_;
  }
  [[nodiscard]] const DeviceModel& device() const { return device_; }
  [[nodiscard]] std::size_t evaluation_count() const { return evaluations_; }
  [[nodiscard]] const std::shared_ptr<EvaluationCache>& cache() const {
    return cache_;
  }

  /// Enables failure classification: evaluate() throws EvaluationError for
  /// runs the model rejects (set before the optimizer starts).
  void set_failure_model(const SlamFailureModel& model) { failures_ = model; }
  [[nodiscard]] const SlamFailureModel& failure_model() const {
    return failures_;
  }

 private:
  hm::hypermapper::DesignSpace space_;
  std::shared_ptr<const hm::dataset::RGBDSequence> sequence_;
  DeviceModel device_;
  AteKind ate_kind_;
  std::shared_ptr<EvaluationCache> cache_;
  SlamFailureModel failures_;
  std::atomic<std::size_t> evaluations_{0};
};

/// Three-objective KFusion evaluator: [0] runtime per frame (s),
/// [1] max ATE (m), [2] average power (W). Reproduces the
/// runtime/accuracy/power exploration of the paper's predecessor [40],
/// whose Pareto points (11.92 FPS at 0.65 W; 29.09 FPS under 1 W) the
/// paper quotes in its introduction. Shares the device-independent cache
/// with the two-objective evaluator.
class KFusionEnergyEvaluator final : public hm::hypermapper::Evaluator {
 public:
  KFusionEnergyEvaluator(
      std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
      DeviceModel device, AteKind ate_kind = AteKind::kMax,
      std::shared_ptr<EvaluationCache> cache = nullptr);

  [[nodiscard]] std::size_t objective_count() const override { return 3; }
  [[nodiscard]] std::vector<double> evaluate(
      const hm::hypermapper::Configuration& config) override;
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] RunMetrics measure(const hm::hypermapper::Configuration& config);

  [[nodiscard]] const hm::hypermapper::DesignSpace& space() const {
    return space_;
  }
  [[nodiscard]] const DeviceModel& device() const { return device_; }

 private:
  hm::hypermapper::DesignSpace space_;
  std::shared_ptr<const hm::dataset::RGBDSequence> sequence_;
  DeviceModel device_;
  AteKind ate_kind_;
  std::shared_ptr<EvaluationCache> cache_;
};

class ElasticFusionEvaluator final : public hm::hypermapper::Evaluator {
 public:
  ElasticFusionEvaluator(
      std::shared_ptr<const hm::dataset::RGBDSequence> sequence,
      DeviceModel device, AteKind ate_kind = AteKind::kMean,
      std::shared_ptr<EvaluationCache> cache = nullptr);

  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::vector<double> evaluate(
      const hm::hypermapper::Configuration& config) override;
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] RunMetrics measure(const hm::hypermapper::Configuration& config);

  [[nodiscard]] const hm::hypermapper::DesignSpace& space() const {
    return space_;
  }
  [[nodiscard]] const DeviceModel& device() const { return device_; }
  [[nodiscard]] std::size_t evaluation_count() const { return evaluations_; }

  /// Enables failure classification: evaluate() throws EvaluationError for
  /// runs the model rejects (set before the optimizer starts).
  void set_failure_model(const SlamFailureModel& model) { failures_ = model; }
  [[nodiscard]] const SlamFailureModel& failure_model() const {
    return failures_;
  }

 private:
  hm::hypermapper::DesignSpace space_;
  std::shared_ptr<const hm::dataset::RGBDSequence> sequence_;
  DeviceModel device_;
  AteKind ate_kind_;
  std::shared_ptr<EvaluationCache> cache_;
  SlamFailureModel failures_;
  std::atomic<std::size_t> evaluations_{0};
};

}  // namespace hm::slambench
