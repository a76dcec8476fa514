// Dynamic adaptation: the deployment story from the paper's introduction.
// The Pareto front computed offline is "stored on the machine to support
// dynamic adaptation, automatically selecting the best combination of
// algorithmic parameters for a given scene and accuracy-performance
// objective". This example computes (or loads) a front and then serves
// runtime requests: "give me the most accurate configuration that sustains
// N FPS" and "give me the fastest configuration under E cm error".
//
//   ./adaptive_runtime [--front front.csv] [--frames N]
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "dataset/sequence.hpp"
#include "hypermapper/optimizer.hpp"
#include "hypermapper/report.hpp"
#include "slambench/adapters.hpp"

namespace {

using hm::hypermapper::Configuration;

struct FrontPoint {
  Configuration config;
  double runtime = 0.0;
  double ate = 0.0;
};

/// The on-device "policy": pick the most accurate point meeting an FPS
/// floor, or the fastest point meeting an accuracy ceiling.
class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(std::vector<FrontPoint> front) : front_(std::move(front)) {
    std::sort(front_.begin(), front_.end(),
              [](const FrontPoint& a, const FrontPoint& b) {
                return a.runtime < b.runtime;
              });
  }

  [[nodiscard]] std::optional<FrontPoint> most_accurate_at_fps(double fps) const {
    const double budget = 1.0 / fps;
    std::optional<FrontPoint> best;
    for (const FrontPoint& point : front_) {
      if (point.runtime > budget) break;
      if (!best || point.ate < best->ate) best = point;
    }
    return best;
  }

  [[nodiscard]] std::optional<FrontPoint> fastest_under_error(double ate) const {
    for (const FrontPoint& point : front_) {
      if (point.ate <= ate) return point;  // Sorted by runtime: first wins.
    }
    return std::nullopt;
  }

 private:
  std::vector<FrontPoint> front_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hm;
  const common::CliArgs args(argc, argv);
  const auto frames =
      static_cast<std::size_t>(args.get_or("frames", std::int64_t{25}));

  const auto sequence =
      dataset::make_benchmark_sequence(frames, 80, 60, nullptr, false);
  slambench::KFusionEvaluator evaluator(sequence, slambench::odroid_xu3());

  std::vector<FrontPoint> front;
  if (const auto path = args.get("front")) {
    // Load a front written by `hm_tune --out` for a kfusion scenario and
    // re-measure it.
    const auto table = common::read_csv_file(*path);
    if (!table) {
      hm::common::log_error() << "cannot read " << *path;
      return 1;
    }
    for (const Configuration& config :
         hypermapper::front_from_csv(evaluator.space(), *table)) {
      const auto objectives = evaluator.evaluate(config);
      front.push_back({config, objectives[0], objectives[1]});
    }
    std::printf("loaded %zu front points from %s\n", front.size(), path->c_str());
  } else {
    std::printf("no --front given; computing a small front in-process...\n");
    hypermapper::OptimizerConfig config;
    config.random_samples = 60;
    config.max_iterations = 2;
    config.max_samples_per_iteration = 40;
    config.pool_size = 10'000;
    config.forest.tree_count = 32;
    hypermapper::Optimizer optimizer(evaluator.space(), evaluator, config);
    const auto result = optimizer.run();
    for (const std::size_t i : result.pareto) {
      front.push_back({result.samples[i].config,
                       result.samples[i].objectives[0],
                       result.samples[i].objectives[1]});
    }
    std::printf("computed a %zu-point front\n", front.size());
  }
  if (front.empty()) {
    hm::common::log_error() << "empty front";
    return 1;
  }

  const AdaptivePolicy policy(std::move(front));

  std::printf("\nscenario A: augmented reality, needs 30 FPS\n");
  if (const auto choice = policy.most_accurate_at_fps(30.0)) {
    std::printf("  -> %.1f FPS, max ATE %.1f cm\n     %s\n",
                1.0 / choice->runtime, choice->ate * 100.0,
                evaluator.space().to_string(choice->config).c_str());
  } else {
    std::printf("  -> no configuration sustains 30 FPS on this device\n");
  }

  std::printf("\nscenario B: robot path planning, needs error under 4 cm\n");
  if (const auto choice = policy.fastest_under_error(0.04)) {
    std::printf("  -> %.1f FPS, max ATE %.1f cm\n     %s\n",
                1.0 / choice->runtime, choice->ate * 100.0,
                evaluator.space().to_string(choice->config).c_str());
  } else {
    std::printf("  -> no configuration meets 4 cm on this device\n");
  }

  std::printf("\nscenario C: battery saver, anything at 10 FPS\n");
  if (const auto choice = policy.most_accurate_at_fps(10.0)) {
    std::printf("  -> %.1f FPS, max ATE %.1f cm\n     %s\n",
                1.0 / choice->runtime, choice->ate * 100.0,
                evaluator.space().to_string(choice->config).c_str());
  }
  return 0;
}
