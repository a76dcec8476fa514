// Microbenchmarks of the compute kernels underlying both pipelines.
//
// Default mode times the three vectorized kernels (bilateral filter, TSDF
// integrate, ICP track) once with KernelPath::kScalar and once with
// KernelPath::kSimd on a 320x240 rendered frame, prints the speedups, times
// the raycast (a single scalar path), and emits BENCH_micro_kernels.json
// (crash-atomic) with the build's provenance. Acceptance: >= 2.0x on all
// 3 vectorized kernels (DESIGN.md §9).
//
// --gbench instead runs the original google-benchmark suite (kernels,
// ElasticFusion's surfel fusion, and the forest fit/predict paths of the
// optimizer), which besides performance
// tracking validates the cost-model substitution (DESIGN.md): counted work
// per kernel must correlate with wall time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "dataset/renderer.hpp"
#include "dataset/sdf_scene.hpp"
#include "dataset/sequence.hpp"
#include "dataset/trajectory.hpp"
#include "elasticfusion/surfel_map.hpp"
#include "kfusion/icp.hpp"
#include "kfusion/preprocess.hpp"
#include "kfusion/pyramid.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/tsdf_volume.hpp"
#include "rf/forest.hpp"

namespace {

using namespace hm;
using geometry::Intrinsics;
using geometry::SE3;

struct RenderedFrame {
  Intrinsics camera = Intrinsics::kinect(80, 60);
  geometry::DepthImage depth;
  SE3 pose;

  RenderedFrame() {
    static const dataset::Scene scene = dataset::build_living_room();
    pose = dataset::look_at({2.4, 1.3, 3.6}, {2.4, 1.6, 1.0});
    depth = dataset::render_depth(scene, camera, pose);
  }
};

const RenderedFrame& frame() {
  static const RenderedFrame instance;
  return instance;
}

void BM_BilateralFilter(benchmark::State& state) {
  kfusion::KernelStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kfusion::bilateral_filter(frame().depth, {}, stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.count(
      kfusion::Kernel::kBilateral)));
}
BENCHMARK(BM_BilateralFilter)->Unit(benchmark::kMicrosecond);

void BM_DownsampleDepth(benchmark::State& state) {
  const int ratio = static_cast<int>(state.range(0));
  kfusion::KernelStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kfusion::downsample_depth(frame().depth, ratio, stats));
  }
}
BENCHMARK(BM_DownsampleDepth)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_BuildPyramid(benchmark::State& state) {
  kfusion::KernelStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kfusion::build_pyramid(frame().depth, frame().camera, 3, stats));
  }
}
BENCHMARK(BM_BuildPyramid)->Unit(benchmark::kMicrosecond);

void BM_TsdfIntegrate(benchmark::State& state) {
  const int resolution = static_cast<int>(state.range(0));
  kfusion::TsdfVolume volume(resolution, 4.8);
  kfusion::KernelStats stats;
  for (auto _ : state) {
    volume.integrate(frame().depth, frame().camera, frame().pose, 0.1, stats);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(stats.count(kfusion::Kernel::kIntegrate)));
}
BENCHMARK(BM_TsdfIntegrate)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Raycast(benchmark::State& state) {
  const int resolution = static_cast<int>(state.range(0));
  kfusion::TsdfVolume volume(resolution, 4.8);
  kfusion::KernelStats stats;
  for (int i = 0; i < 3; ++i) {
    volume.integrate(frame().depth, frame().camera, frame().pose, 0.1, stats);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kfusion::raycast(volume, frame().camera,
                                              frame().pose, 0.1, {}, stats));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(stats.count(kfusion::Kernel::kRaycast)));
}
BENCHMARK(BM_Raycast)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_IcpTrack(benchmark::State& state) {
  kfusion::KernelStats stats;
  kfusion::TsdfVolume volume(128, 4.8);
  for (int i = 0; i < 3; ++i) {
    volume.integrate(frame().depth, frame().camera, frame().pose, 0.15, stats);
  }
  const auto reference = kfusion::raycast(volume, frame().camera, frame().pose,
                                          0.15, {}, stats);
  const auto pyramid =
      kfusion::build_pyramid(frame().depth, frame().camera, 3, stats);
  kfusion::IcpConfig config;
  config.update_threshold = 0.0;  // Fixed iteration budget.
  for (auto _ : state) {
    benchmark::DoNotOptimize(kfusion::icp_track(pyramid, reference,
                                                frame().camera, frame().pose,
                                                frame().pose, config, stats));
  }
}
BENCHMARK(BM_IcpTrack)->Unit(benchmark::kMillisecond);

/// Fuses the last frame of a rendered 80x60 sequence into a map warmed on
/// the frames before it, all at ground-truth poses (the association search
/// over a populated map is what ElasticFusion's fusion phase spends).
void BM_SurfelFusion(benchmark::State& state) {
  constexpr std::size_t kFrames = 24;
  const auto sequence =
      dataset::make_benchmark_sequence(kFrames, 80, 60, nullptr, true);
  kfusion::KernelStats stats;
  std::vector<kfusion::PyramidLevel> levels;
  for (std::size_t i = 0; i < kFrames; ++i) {
    levels.push_back(kfusion::build_pyramid(sequence->frame(i).depth,
                                            sequence->intrinsics(), 1, stats)[0]);
  }
  elasticfusion::SurfelMap warmed;
  for (std::size_t i = 0; i + 1 < kFrames; ++i) {
    warmed.fuse(levels[i].vertices, levels[i].normals,
                sequence->frame(i).intensity, sequence->frame(i).ground_truth_pose,
                static_cast<std::uint32_t>(i), {}, stats);
  }
  const auto& last = sequence->frame(kFrames - 1);
  for (auto _ : state) {
    state.PauseTiming();
    elasticfusion::SurfelMap map = warmed;
    state.ResumeTiming();
    map.fuse(levels.back().vertices, levels.back().normals, last.intensity,
             last.ground_truth_pose, static_cast<std::uint32_t>(kFrames - 1),
             {}, stats);
    benchmark::DoNotOptimize(map.size());
  }
}
BENCHMARK(BM_SurfelFusion)->Unit(benchmark::kMicrosecond);

void BM_SceneSdfEvaluation(benchmark::State& state) {
  static const dataset::Scene scene = dataset::build_living_room();
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.distance(
        {rng.uniform(0, 4.8), rng.uniform(0, 2.6), rng.uniform(0, 4.8)}));
  }
}
BENCHMARK(BM_SceneSdfEvaluation);

void BM_RenderDepthFrame(benchmark::State& state) {
  static const dataset::Scene scene = dataset::build_living_room();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset::render_depth(scene, frame().camera, frame().pose));
  }
}
BENCHMARK(BM_RenderDepthFrame)->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  common::Rng rng(7);
  rf::FeatureMatrix x(9);
  std::vector<double> y;
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<double> row(9);
    for (double& value : row) value = rng.uniform();
    y.push_back(row[0] * row[1] + std::sin(6.0 * row[2]));
    x.add_row(row);
  }
  rf::ForestConfig config;
  config.tree_count = 64;
  for (auto _ : state) {
    rf::RandomForest forest(config);
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest.trained());
  }
}
BENCHMARK(BM_ForestFit)->Arg(300)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ForestPredictPool(benchmark::State& state) {
  common::Rng rng(8);
  rf::FeatureMatrix train_x(9), pool_x(9);
  std::vector<double> y;
  for (std::size_t i = 0; i < 500; ++i) {
    std::vector<double> row(9);
    for (double& value : row) value = rng.uniform();
    y.push_back(row[0] + row[3] * row[4]);
    train_x.add_row(row);
  }
  for (std::size_t i = 0; i < 50'000; ++i) {
    std::vector<double> row(9);
    for (double& value : row) value = rng.uniform();
    pool_x.add_row(row);
  }
  rf::RandomForest forest;
  forest.fit(train_x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_batch(pool_x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pool_x.rows()));
}
BENCHMARK(BM_ForestPredictPool)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD comparison (default mode)
// ---------------------------------------------------------------------------

using kfusion::KernelPath;

/// Minimum wall time over `repeats` calls — the least-noise estimator on a
/// shared machine (any interference only ever adds time).
template <typename Fn>
double best_seconds(std::size_t repeats, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    common::Timer timer;
    fn();
    const double seconds = timer.seconds();
    if (seconds < best) best = seconds;
  }
  return best;
}

struct SimdRow {
  const char* kernel;
  double scalar_seconds;
  double simd_seconds;
  [[nodiscard]] double speedup() const {
    return simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
  }
};

/// Build facts every checked-in result carries, so a baseline can be told
/// apart from a run on another compiler, flag set or machine.
void write_provenance(common::JsonWriter& json) {
  json.begin_object().key("commit").string(HM_BENCH_COMMIT);
  json.key("compiler").string(HM_BENCH_COMPILER);
  json.key("cxx_flags").string(HM_BENCH_CXX_FLAGS);
  json.key("simd_backend").string(simd::backend_name());
  // hm-lint: allow(no-raw-thread) queries hardware_concurrency only; no thread is created
  json.key("nproc").integer(std::thread::hardware_concurrency()).end_object();
}

int run_simd_comparison(const common::CliArgs& args) {
  const auto repeats = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_or("repeats", std::int64_t{7})));
  const std::string out =
      args.get_or("out", std::string("BENCH_micro_kernels.json"));

  hm::bench::print_header(
      "micro_kernels: scalar vs SIMD kernel timings (single-threaded)");
  std::printf("  backend: %s (width %d), repeats per point: %zu\n\n",
              simd::backend_name(), simd::kWidth, repeats);

  // A 320x240 frame: large enough that per-row vector work dominates loop
  // overhead, small enough that a full comparison stays under a minute.
  const Intrinsics camera = Intrinsics::kinect(320, 240);
  const dataset::Scene scene = dataset::build_living_room();
  const SE3 pose = dataset::look_at({2.4, 1.3, 3.6}, {2.4, 1.6, 1.0});
  const geometry::DepthImage depth = dataset::render_depth(scene, camera, pose);
  constexpr int kResolution = 128;
  constexpr double kMu = 0.1;

  kfusion::KernelStats stats;
  std::vector<SimdRow> rows;

  {
    SimdRow row{"bilateral", 0.0, 0.0};
    for (const KernelPath path : {KernelPath::kScalar, KernelPath::kSimd}) {
      const double seconds = best_seconds(repeats, [&] {
        benchmark::DoNotOptimize(
            kfusion::bilateral_filter(depth, {}, stats, nullptr, path));
      });
      (path == KernelPath::kScalar ? row.scalar_seconds : row.simd_seconds) =
          seconds;
    }
    rows.push_back(row);
  }

  {
    SimdRow row{"tsdf_integrate", 0.0, 0.0};
    for (const KernelPath path : {KernelPath::kScalar, KernelPath::kSimd}) {
      kfusion::TsdfVolume volume(kResolution, 4.8);
      volume.integrate(depth, camera, pose, kMu, stats, nullptr, path);  // Warm.
      const double seconds = best_seconds(repeats, [&] {
        volume.integrate(depth, camera, pose, kMu, stats, nullptr, path);
      });
      (path == KernelPath::kScalar ? row.scalar_seconds : row.simd_seconds) =
          seconds;
    }
    rows.push_back(row);
  }

  // Raycast and ICP read a shared volume built once (integration path does
  // not matter for the read-only comparison: both paths produce bit-identical
  // voxels — see tests/kfusion/simd_equivalence_test.cpp).
  kfusion::TsdfVolume volume(kResolution, 4.8);
  for (int i = 0; i < 3; ++i) {
    volume.integrate(depth, camera, pose, 0.15, stats);
  }

  // Raycast has one (scalar) path: its SIMD trilinear sampler measured
  // slower than the scalar one and was removed.
  const double raycast_seconds = best_seconds(repeats, [&] {
    benchmark::DoNotOptimize(
        kfusion::raycast(volume, camera, pose, 0.15, {}, stats));
  });

  {
    const auto reference =
        kfusion::raycast(volume, camera, pose, 0.15, {}, stats);
    const auto pyramid = kfusion::build_pyramid(depth, camera, 3, stats);
    kfusion::IcpConfig config;
    config.update_threshold = 0.0;  // Fixed iteration budget.
    SimdRow row{"icp_track", 0.0, 0.0};
    for (const KernelPath path : {KernelPath::kScalar, KernelPath::kSimd}) {
      const double seconds = best_seconds(repeats, [&] {
        benchmark::DoNotOptimize(kfusion::icp_track(pyramid, reference, camera,
                                                    pose, pose, config, stats,
                                                    nullptr, path));
      });
      (path == KernelPath::kScalar ? row.scalar_seconds : row.simd_seconds) =
          seconds;
    }
    rows.push_back(row);
  }

  std::printf("  %-16s %12s %12s %9s\n", "kernel", "scalar(ms)", "simd(ms)",
              "speedup");
  std::size_t at_least_2x = 0;
  for (const SimdRow& row : rows) {
    std::printf("  %-16s %12.3f %12.3f %8.2fx\n", row.kernel,
                row.scalar_seconds * 1e3, row.simd_seconds * 1e3,
                row.speedup());
    if (row.speedup() >= 2.0) ++at_least_2x;
  }
  std::printf("  %-16s %12.3f\n\n", "raycast", raycast_seconds * 1e3);
  hm::bench::report(
      "kernels at >= 2.0x SIMD speedup", ">= 3 of 3 (acceptance)",
      std::to_string(at_least_2x) + " of " + std::to_string(rows.size()));

  common::JsonWriter json;
  json.begin_object().key("bench").string("micro_kernels_simd");
  json.key("provenance");
  write_provenance(json);
  json.key("backend").string(simd::backend_name());
  json.key("width").integer(simd::kWidth);
  json.key("frame").begin_object().key("width").integer(camera.width);
  json.key("height").integer(camera.height).end_object();
  json.key("volume_resolution").integer(kResolution);
  json.key("repeats").integer(repeats);
  json.key("results").begin_array();
  for (const SimdRow& row : rows) {
    json.begin_object().key("kernel").string(row.kernel);
    json.key("scalar_seconds").number(row.scalar_seconds);
    json.key("simd_seconds").number(row.simd_seconds);
    json.key("speedup").number(row.speedup()).end_object();
  }
  json.begin_object().key("kernel").string("raycast");
  json.key("seconds").number(raycast_seconds).end_object();
  json.end_array().end_object();
  std::string error;
  if (!hm::common::write_file_atomic(out, json.str(), &error)) {
    hm::common::log_error() << "failed to write " << out << ": " << error;
    return 1;
  }
  std::printf("  wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const hm::common::CliArgs args(argc, argv, {"gbench"});
  if (args.flag("gbench")) {
    int gbench_argc = 1;  // Strip our flags; gbench sees only argv[0].
    benchmark::Initialize(&gbench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  return run_simd_comparison(args);
}
