// Fig. 4 and Table I: algorithmic DSE on the ElasticFusion benchmark on the
// NVIDIA GTX 780 Ti model. Fig. 4 shows random sampling vs active learning;
// Table I lists the Pareto-efficiency points against the hand-tuned default
// (best speed: 1.52x faster while more accurate; best accuracy: 2.07x more
// accurate at 1.25x speedup).
//
//   ./fig4_table1_elasticfusion_dse [--paper-scale] [--out samples.csv]
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "examples/kernel_report.hpp"

namespace {

using namespace hm;

void print_table_row(const char* label, double error_m, double runtime_s,
                     const elasticfusion::EFParams& params) {
  std::printf("| %-13s | %8.4f | %8.1f | %3.0f | %5.0f | %10.0f | %3d | %5d | %5d | %8d | %7d |\n",
              label, error_m, runtime_s, params.icp_rgb_weight,
              params.depth_cutoff, params.confidence_threshold,
              params.so3_prealign ? 1 : 0, params.open_loop ? 1 : 0,
              params.relocalisation ? 1 : 0, params.fast_odometry ? 1 : 0,
              params.frame_to_frame_rgb ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv, {"paper-scale"});
  const bool paper_scale = args.flag("paper-scale");

  bench::print_header(
      "Fig. 4 + Table I — ElasticFusion DSE on the NVIDIA GTX 780 Ti model");
  const bench::Scale scale = bench::elasticfusion_scale(paper_scale);
  std::printf("scale: %zu frames, %zu random samples, %zu AL iterations%s\n",
              scale.frames, scale.random_samples, scale.al_iterations,
              paper_scale ? " (paper scale)" : " (reduced; --paper-scale for full)");

  const auto sequence =
      dataset::make_benchmark_sequence(scale.frames, 80, 60, nullptr, true);
  slambench::ElasticFusionEvaluator evaluator(sequence,
                                              slambench::nvidia_gtx780ti());

  const auto default_params = elasticfusion::EFParams::defaults();
  const auto default_config =
      slambench::ef_config_from_params(evaluator.space(), default_params);
  const auto default_objectives = evaluator.evaluate(default_config);
  bench::report("default configuration frame rate", "45 FPS",
                bench::fmt("%.1f FPS", 1.0 / default_objectives[0]));

  common::Timer timer;
  hypermapper::Optimizer optimizer(evaluator.space(), evaluator,
                                   bench::optimizer_config(scale, 4242));
  bench::attach_progress(optimizer, timer);
  const auto result = optimizer.run();
  std::printf("explored %zu configurations (%zu random + %zu active) in %.0fs\n",
              result.samples.size(), result.random_sample_count(),
              result.active_sample_count(), timer.seconds());
  bench::report("random / active sample counts", "2400 / 999",
                std::to_string(result.random_sample_count()) + " / " +
                    std::to_string(result.active_sample_count()));

  // --- Fig. 4: the AL front dominates the random-sampling front. ---
  std::vector<hypermapper::Objectives> random_points, all_points;
  for (const auto& sample : result.samples) {
    if (sample.iteration == 0) random_points.push_back(sample.objectives);
    all_points.push_back(sample.objectives);
  }
  const hypermapper::Objectives reference{default_objectives[0] * 2.0,
                                          default_objectives[1] * 3.0};
  const double hv_random =
      hypermapper::pareto_hypervolume_2d(random_points, reference);
  const double hv_all = hypermapper::pareto_hypervolume_2d(all_points, reference);
  bench::report("front hypervolume, AL vs random-only",
                "AL dominates (black under red)",
                bench::fmt("+%.1f%%", 100.0 * (hv_all / hv_random - 1.0)));

  // --- Table I. ---
  const auto frames_d = static_cast<double>(scale.frames);
  std::printf("\nTable I analogue (runtime = modeled seconds for the whole %zu-frame sequence):\n",
              scale.frames);
  std::printf("| %-13s | %-8s | %-8s | %-3s | %-5s | %-10s | %-3s | %-5s | %-5s | %-8s | %-7s |\n",
              "", "Error(m)", "Time(s)", "ICP", "Depth", "Confidence", "SO3",
              "OpenL", "Reloc", "FastOdom", "FtfRGB");
  print_table_row("Default", default_objectives[1],
                  default_objectives[0] * frames_d, default_params);

  const auto best_speed =
      hypermapper::best_under_constraint(result, 0, 1, default_objectives[1]);
  if (best_speed) {
    const auto& sample = result.samples[*best_speed];
    print_table_row("Best speed", sample.objectives[1],
                    sample.objectives[0] * frames_d,
                    slambench::ef_params_from_config(evaluator.space(),
                                                     sample.config));
    bench::report("best speed vs default (no accuracy loss)",
                  "1.52x faster, 1.33x more accurate",
                  bench::fmt("%.2fx faster, ", default_objectives[0] /
                                                   sample.objectives[0]) +
                      bench::fmt("%.2fx more accurate",
                                 default_objectives[1] / sample.objectives[1]));
  }

  const auto best_accuracy = hypermapper::best_objective(result, 1);
  if (best_accuracy) {
    const auto& sample = result.samples[*best_accuracy];
    print_table_row("Best accuracy", sample.objectives[1],
                    sample.objectives[0] * frames_d,
                    slambench::ef_params_from_config(evaluator.space(),
                                                     sample.config));
    bench::report("best accuracy vs default",
                  "2.07x more accurate at 1.25x speedup",
                  bench::fmt("%.2fx more accurate at ",
                             default_objectives[1] / sample.objectives[1]) +
                      bench::fmt("%.2fx speedup",
                                 default_objectives[0] / sample.objectives[0]));
    examples::print_kernel_stats("best-accuracy configuration",
                                 evaluator.measure(sample.config).stats);
  }

  // Intermediate front points between best speed and best accuracy, like
  // the middle rows of Table I.
  std::printf("\nfull Pareto front (%zu points):\n", result.pareto.size());
  for (const std::size_t i : result.pareto) {
    const auto& sample = result.samples[i];
    print_table_row("", sample.objectives[1], sample.objectives[0] * frames_d,
                    slambench::ef_params_from_config(evaluator.space(),
                                                     sample.config));
  }

  if (const auto out = args.get("out")) {
    const auto table = hypermapper::samples_to_csv(evaluator.space(), result,
                                                   {"runtime_s", "mean_ate_m"});
    if (common::write_csv_file(*out, table)) {
      std::printf("samples written to %s\n", out->c_str());
    }
  }
  return 0;
}
