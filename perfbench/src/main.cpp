// e2e_bench: one end-to-end DSE campaign workload per invocation.
//
//   e2e_bench --workload kfusion_dse|elasticfusion_dse
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints provenance, human-readable metric lines, and as its last line one
// JSON object {correct, attempted, failed, metrics}. Exits 1 when a
// correctness check failed, 2 on bad arguments, 3 on a non-optimised build.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

namespace perfbench {

std::size_t eval_thread_count() {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min<std::size_t>(4, nproc) - 1);
}

std::size_t pool_workers() {
  return std::max<std::size_t>(1, eval_thread_count() - 1);
}

void EndToEnd::emit(Result& result) const {
  result.metric("setup_s", setup_s, "s");
  result.metric("campaign_s", campaign_s, "s");
  result.metric("campaign_p50_s", campaign_p50_s, "s");
  result.metric("campaign_p90_s", campaign_p90_s, "s");
  result.metric("campaigns_per_s", campaigns_per_s, "1/s");
  result.metric("evals_per_s", evals_per_s, "1/s");
  result.metric("front_hv", front_hv, "hv");
  result.metric("speedup_at_5cm", speedup_at_5cm, "x");
  result.metric("ok_fraction", ok_fraction, "ratio");
  result.metric("peak_rss_mb", peak_rss_mb, "MiB");
}

void Layers::add_campaign(const CampaignRun& run, std::size_t threads) {
  for (const Interval& i : run.propose) propose_s += i.length();
  propose_s += run.finish.length();
  batch_idle_s += batch_idle_seconds(run.batches, threads);
  batches += static_cast<double>(run.batches.size());
  evals += static_cast<double>(run.evals_attempted);
  eval_seconds.insert(eval_seconds.end(), run.eval_seconds.begin(),
                      run.eval_seconds.end());
  pool_tasks += static_cast<double>(run.scheduler.tasks_executed);
  pool_steals += static_cast<double>(run.scheduler.steals);
  pool_help_joins += static_cast<double>(run.scheduler.help_joins);
  unattributed_s += run.unattributed();
}

void Layers::emit(Result& result) const {
  double evaluate_s = 0.0;
  for (const double s : eval_seconds) evaluate_s += s;
  result.metric("dataset.render_s", dataset_render_s, "s");
  result.metric("hypermapper.propose_s", propose_s, "s");
  result.metric("hypermapper.batch_idle_s", batch_idle_s, "s");
  result.metric("hypermapper.batches", batches, "count");
  result.metric("hypermapper.evals", evals, "count");
  result.metric("slambench.evaluate_s", evaluate_s, "s");
  result.metric("slambench.eval_p50_ms",
                1e3 * percentile(eval_seconds, 50.0).value, "ms");
  result.metric("slambench.eval_p90_ms",
                1e3 * percentile(eval_seconds, 90.0).value, "ms");
  result.metric("slambench.cache_hit_ratio", cache_hit_ratio, "ratio");
  result.metric("slambench.cache_lookups", cache_lookups, "count");
  result.metric("kfusion.preprocess_s", kf_preprocess_s, "s");
  result.metric("kfusion.pyramid_s", kf_pyramid_s, "s");
  result.metric("kfusion.raycast_s", kf_raycast_s, "s");
  result.metric("kfusion.icp_s", kf_icp_s, "s");
  result.metric("kfusion.integrate_s", kf_integrate_s, "s");
  result.metric("kfusion.ops.bilateral", kf_ops_bilateral, "count");
  result.metric("kfusion.ops.raycast", kf_ops_raycast, "count");
  result.metric("kfusion.ops.icp", kf_ops_icp, "count");
  result.metric("kfusion.ops.integrate", kf_ops_integrate, "count");
  result.metric("elasticfusion.frame_ms", ef_frame_ms, "ms");
  result.metric("elasticfusion.ops.surfel_fusion", ef_ops_surfel_fusion, "count");
  result.metric("elasticfusion.ops.rgb_track", ef_ops_rgb_track, "count");
  result.metric("elasticfusion.ops.so3_prealign", ef_ops_so3_prealign, "count");
  result.metric("elasticfusion.ops.loop_closure", ef_ops_loop_closure, "count");
  result.metric("rf.fit_s", rf_fit_s, "s");
  result.metric("rf.predict_s", rf_predict_s, "s");
  result.metric("thread_pool.tasks", pool_tasks, "count");
  result.metric("thread_pool.steals", pool_steals, "count");
  result.metric("thread_pool.help_joins", pool_help_joins, "count");
  result.metric("journal.records", static_cast<double>(journal.records), "count");
  result.metric("journal.bytes", static_cast<double>(journal.bytes), "B");
  result.metric("journal.append_p50_us",
                1e6 * percentile(journal.append_seconds, 50.0).value, "us");
  result.metric("journal.append_p90_us",
                1e6 * percentile(journal.append_seconds, 90.0).value, "us");
  result.metric("sandbox.roundtrip_p50_us", sandbox_roundtrip_p50_us, "us");
  result.metric("sandbox.roundtrip_p90_us", sandbox_roundtrip_p90_us, "us");
  result.metric("sandbox.spawns", sandbox_spawns, "count");
  result.metric("sandbox.recycles", sandbox_recycles, "count");
  result.metric("serve.overhead_ms", serve_overhead_ms, "ms");
  result.metric("serve.progress_frames", serve_progress_frames, "count");
  result.metric("serve.busy_sheds", serve_busy_sheds, "count");
  result.metric("unattributed_s", unattributed_s, "s");
  result.metric("traced.campaign_s", traced_campaign_s, "s");
  result.metric("traced.campaign_raw_s", traced_campaign_raw_s, "s");
  result.metric("host.steal_share", host_steal_share, "ratio");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const hm::common::CliArgs args(argc, argv, {});
  Options options;
  options.workload = args.get_or("workload", std::string());
  options.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{1}));
  options.seconds = args.get_or("seconds", 10.0);
  options.trace = args.get_or("trace", std::int64_t{0}) != 0;
  options.work_dir = args.get_or("work-dir", std::string());
  if (options.work_dir.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr, "e2e_bench: --work-dir and --seconds > 0 are required\n");
    return 2;
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "e2e_bench: refusing to measure a non-optimised build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  // Program warnings go to stderr; stdout carries the result.
  hm::common::set_log_level(hm::common::LogLevel::kWarn);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("provenance %s\n",
              provenance_json(options.work_dir, eval_thread_count()).c_str());
  std::fflush(stdout);

  // Start with the checkout's filesystem clean: dirty pages left by the
  // build would otherwise be written back inside the first fsyncs timed.
  if (const int fd = ::open(options.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  const CpuTicks before = read_cpu_ticks();
  Result result;
  if (options.workload == "kfusion_dse") {
    result = run_dse(options, true);
  } else if (options.workload == "elasticfusion_dse") {
    result = run_dse(options, false);
  } else {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  print_host_share(before, read_cpu_ticks());
  result.print();
  return result.correct() ? 0 : 1;
}
