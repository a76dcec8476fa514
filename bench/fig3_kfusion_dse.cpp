// Fig. 3 (a, b): algorithmic design-space exploration on the KFusion
// benchmark — random sampling vs. active learning — on the ODROID-XU3 and
// ASUS T200TA device models. Reproduces the quantities the paper reads off
// the figure: valid-configuration counts (max ATE < 5 cm) per phase, the
// Pareto-point counts, and the dominance of the active-learning front.
//
//   ./fig3_kfusion_dse [--device odroid|asus|both] [--paper-scale]
//                      [--out-prefix fig3]
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "examples/kernel_report.hpp"

namespace {

using namespace hm;

struct PaperNumbers {
  const char* valid_random;
  const char* valid_active;
  const char* pareto_points;
};

void run_device(const std::string& device_name, const bench::Scale& scale,
                std::shared_ptr<const dataset::RGBDSequence> sequence,
                std::shared_ptr<slambench::EvaluationCache> cache,
                const PaperNumbers& paper,
                const std::optional<std::string>& out_prefix) {
  const auto device = slambench::device_by_name(device_name);
  std::printf("\n--- %s ---\n", device.name.c_str());
  slambench::KFusionEvaluator evaluator(sequence, device, slambench::AteKind::kMax,
                                        cache);

  const auto default_config = slambench::kfusion_config_from_params(
      evaluator.space(), kfusion::KFusionParams::defaults());
  const auto default_objectives = evaluator.evaluate(default_config);
  std::printf("default configuration: %.2f FPS, max ATE %.2f cm\n",
              1.0 / default_objectives[0], default_objectives[1] * 100.0);

  common::Timer timer;
  hypermapper::Optimizer optimizer(evaluator.space(), evaluator,
                                   bench::optimizer_config(scale));
  bench::attach_progress(optimizer, timer);
  const auto result = optimizer.run();
  std::printf("explored %zu configurations (%zu random + %zu active) in %.0fs\n",
              result.samples.size(), result.random_sample_count(),
              result.active_sample_count(), timer.seconds());

  // --- The Fig. 3 read-offs. ---
  const auto valid = hypermapper::count_valid(result, 1, 0.05);
  const auto random_front = hypermapper::front_of_phase(result, true);
  const auto full_front = result.pareto;

  const double random_yield =
      static_cast<double>(valid.random_phase) /
      static_cast<double>(result.random_sample_count());
  const double active_yield =
      result.active_sample_count() == 0
          ? 0.0
          : static_cast<double>(valid.active_phase) /
                static_cast<double>(result.active_sample_count());

  bench::report("valid configs (max ATE < 5 cm), random phase",
                paper.valid_random,
                std::to_string(valid.random_phase) + " of " +
                    std::to_string(result.random_sample_count()) +
                    bench::fmt(" (%.0f%%)", 100.0 * random_yield));
  bench::report("valid configs, active-learning phase", paper.valid_active,
                std::to_string(valid.active_phase) + " of " +
                    std::to_string(result.active_sample_count()) +
                    bench::fmt(" (%.0f%%)", 100.0 * active_yield));
  bench::report("active yield / random yield", "~2x valid at ~1/3 samples",
                bench::fmt("%.1fx", active_yield / std::max(1e-9, random_yield)));
  bench::report("Pareto points (all samples)", paper.pareto_points,
                std::to_string(full_front.size()));

  // Hypervolume: the AL front must dominate (or equal) the random front.
  std::vector<hypermapper::Objectives> random_points, all_points;
  for (const auto& sample : result.samples) {
    if (sample.iteration == 0) random_points.push_back(sample.objectives);
    all_points.push_back(sample.objectives);
  }
  const hypermapper::Objectives reference{0.5, 0.06};  // Fig. 3 axis box.
  const double hv_random =
      hypermapper::pareto_hypervolume_2d(random_points, reference);
  const double hv_all = hypermapper::pareto_hypervolume_2d(all_points, reference);
  bench::report("front hypervolume, AL vs random-only",
                "AL dominates (black under red)",
                bench::fmt("+%.1f%%", 100.0 * (hv_all / hv_random - 1.0)));

  // Best-speed-within-band headline (paper: 29.09 FPS at < 5 cm, 6.35x).
  const auto best = hypermapper::best_under_constraint(result, 0, 1, 0.05);
  if (best) {
    const auto& sample = result.samples[*best];
    bench::report("best FPS within the 5 cm band",
                  device_name == "odroid" ? "29.09 FPS" : "(not reported)",
                  bench::fmt("%.1f FPS", 1.0 / sample.objectives[0]));
    bench::report("speed improvement over default",
                  device_name == "odroid" ? "6.35x" : "(not reported)",
                  bench::fmt("%.2fx", default_objectives[0] / sample.objectives[0]));
    // The winning configuration's counted kernel work (cached, so free).
    examples::print_kernel_stats("best configuration",
                                 evaluator.measure(sample.config).stats);
  }

  if (out_prefix) {
    const auto table = hypermapper::samples_to_csv(evaluator.space(), result,
                                                   {"runtime_s", "max_ate_m"});
    const std::string path = *out_prefix + "_" + device_name + ".csv";
    if (common::write_csv_file(path, table)) {
      std::printf("samples written to %s\n", path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv, {"paper-scale"});
  const bool paper_scale = args.flag("paper-scale");
  const std::string device = args.get_or("device", std::string("both"));
  const auto out_prefix = args.get("out-prefix");

  bench::print_header(
      "Fig. 3 — KFusion DSE: random sampling vs active learning");
  const bench::Scale scale = bench::kfusion_scale(paper_scale);
  std::printf("scale: %zu frames, %zu random samples, %zu AL iterations%s\n",
              scale.frames, scale.random_samples, scale.al_iterations,
              paper_scale ? " (paper scale)" : " (reduced; --paper-scale for full)");

  const auto sequence =
      dataset::make_benchmark_sequence(scale.frames, 80, 60, nullptr, false);
  // One cache shared across devices: ATE and kernel counts are
  // device-independent, so the ASUS run reuses the ODROID pipeline runs.
  auto cache = std::make_shared<slambench::EvaluationCache>();

  if (device == "odroid" || device == "both") {
    run_device("odroid", scale, sequence, cache,
               {"333 of 3000", "642 of 1142", "36"}, out_prefix);
  }
  if (device == "asus" || device == "both") {
    run_device("asus", scale, sequence, cache,
               {"291 of 3000", "665 of 1392", "167"}, out_prefix);
  }
  std::printf("\ncache: %zu pipeline runs for %zu evaluations\n",
              cache->misses(), cache->misses() + cache->hits());
  return 0;
}
