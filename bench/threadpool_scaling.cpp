// Nested DSE-batch throughput of the work-stealing scheduler.
//
// The shape mirrors the repository's dominant cost: Optimizer::evaluate_batch
// fans an outer parallel_for over a batch of configurations, and every
// configuration evaluation is itself a SLAM run whose kernels (TSDF
// integration, ICP reductions, raycast) issue inner parallel loops on the
// same pool. Configuration costs in a real DSE batch are highly skewed
// (volume resolution and pyramid iterations swing per-config work by an
// order of magnitude), so without composable nesting the worker stuck with
// the expensive config runs its inner kernels serially while the rest of the
// pool idles — exactly the old scheduler's "nested calls fall back to
// serial" behavior, which this bench reproduces as the baseline.
//
// Emits BENCH_threadpool.json with per-thread-count timings for
//   serial_inner : outer parallel_for, inner loops forced serial (old pool)
//   nested       : outer and inner loops share the work-stealing scheduler
// plus scheduler counters (tasks, steals, help-joins) for the nested run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "bench/bench_common.hpp"

namespace {

using hm::common::SchedulerStats;
using hm::common::ThreadPool;

/// Work skew of the synthetic batch: one dominant configuration plus a tail,
/// the regime where nested parallelism pays (the dominant config's inner
/// loops are the only work left after the tail drains).
constexpr std::size_t kOuterBatch = 8;
constexpr std::size_t kWeights[kOuterBatch] = {16, 4, 2, 2, 1, 1, 1, 1};

/// One work unit of the inner kernel: a float recurrence long enough to
/// dominate scheduling overhead (~1 ms on a laptop core) that the compiler
/// cannot fold away (the checksum is reduced and printed).
double inner_kernel_unit(std::size_t seed) {
  double x = 1.0 + static_cast<double>(seed % 7) * 1e-3;
  for (int i = 0; i < 200'000; ++i) {
    x = x * 1.0000001 + 1e-9;
    if (x > 2.0) x -= 1.0;
  }
  return x;
}

/// Evaluates one synthetic configuration: `weight` inner-kernel units issued
/// through an inner parallel loop (or serially, reproducing the old
/// scheduler's nested fallback).
double evaluate_config(std::size_t weight, ThreadPool& pool, bool nested_inner) {
  const std::size_t units = weight * 4;  // A few chunks per unit of skew.
  if (!nested_inner) {
    double sum = 0.0;
    for (std::size_t u = 0; u < units; ++u) sum += inner_kernel_unit(u);
    return sum;
  }
  return pool.parallel_reduce(
      0, units, 0.0,
      [](std::size_t lo, std::size_t hi, double init) {
        for (std::size_t u = lo; u < hi; ++u) init += inner_kernel_unit(u);
        return init;
      },
      [](double a, double b) { return a + b; },
      /*grain=*/1);
}

struct Measurement {
  double seconds = 0.0;
  double checksum = 0.0;
};

Measurement run_batch(ThreadPool& pool, bool nested_inner, std::size_t repeats) {
  Measurement best;
  best.seconds = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    std::vector<double> results(kOuterBatch, 0.0);
    hm::common::Timer timer;
    pool.parallel_for(0, kOuterBatch, [&](std::size_t i) {
      results[i] = evaluate_config(kWeights[i], pool, nested_inner);
    });
    const double seconds = timer.seconds();
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.checksum = 0.0;
      for (const double v : results) best.checksum += v;
    }
  }
  return best;
}

struct Row {
  std::size_t threads = 0;
  double serial_inner_seconds = 0.0;
  double nested_seconds = 0.0;
  double speedup = 0.0;
  SchedulerStats nested_stats;
};

}  // namespace

int main(int argc, char** argv) {
  const hm::common::CliArgs args(argc, argv);
  const auto repeats = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_or("repeats", std::int64_t{3})));
  const std::string out = args.get_or("out", std::string("BENCH_threadpool.json"));

  hm::bench::print_header(
      "threadpool_scaling: nested DSE-batch throughput (outer batch of 8 "
      "configs x inner kernel loops)");

  const std::size_t hardware =
      // hm-lint: allow(no-raw-thread) queries hardware_concurrency only; no thread is created
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4, hardware};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  std::printf("  hardware threads: %zu, repeats per point: %zu\n\n", hardware,
              repeats);
  std::printf("  %8s %16s %12s %9s %10s %8s %10s\n", "threads", "serial-inner(s)",
              "nested(s)", "speedup", "tasks", "steals", "help-joins");

  std::vector<Row> rows;
  for (const std::size_t threads : thread_counts) {
    Row row;
    row.threads = threads;
    {
      ThreadPool pool(threads);
      row.serial_inner_seconds = run_batch(pool, false, repeats).seconds;
    }
    {
      ThreadPool pool(threads);
      const SchedulerStats before = pool.stats();
      row.nested_seconds = run_batch(pool, true, repeats).seconds;
      const SchedulerStats after = pool.stats();
      row.nested_stats.tasks_executed =
          after.tasks_executed - before.tasks_executed;
      row.nested_stats.steals = after.steals - before.steals;
      row.nested_stats.help_joins = after.help_joins - before.help_joins;
      row.nested_stats.parallel_regions =
          after.parallel_regions - before.parallel_regions;
    }
    row.speedup = row.nested_seconds > 0.0
                      ? row.serial_inner_seconds / row.nested_seconds
                      : 0.0;
    std::printf("  %8zu %16.3f %12.3f %8.2fx %10llu %8llu %10llu\n", row.threads,
                row.serial_inner_seconds, row.nested_seconds, row.speedup,
                static_cast<unsigned long long>(row.nested_stats.tasks_executed),
                static_cast<unsigned long long>(row.nested_stats.steals),
                static_cast<unsigned long long>(row.nested_stats.help_joins));
    rows.push_back(row);
  }

  const Row& last = rows.back();
  std::printf("\n");
  if (hardware >= 4) {
    hm::bench::report("nested vs serial-inner at max threads",
                      ">= 1.50x (acceptance)",
                      hm::bench::fmt("%.2fx", last.speedup));
  } else {
    std::printf(
        "  (fewer than 4 hardware threads: the >=1.5x nested-speedup "
        "acceptance criterion does not apply on this machine)\n");
  }

  hm::common::JsonWriter json;
  json.begin_object().key("bench").string("threadpool_scaling");
  json.key("outer_batch").integer(kOuterBatch);
  json.key("config_weights").begin_array();
  for (const std::size_t weight : kWeights) json.integer(weight);
  json.end_array().key("hardware_threads").integer(hardware);
  json.key("results").begin_array();
  for (const Row& row : rows) {
    json.begin_object().key("threads").integer(row.threads);
    json.key("serial_inner_seconds").number(row.serial_inner_seconds);
    json.key("nested_seconds").number(row.nested_seconds);
    json.key("speedup").number(row.speedup);
    json.key("tasks_executed").integer(row.nested_stats.tasks_executed);
    json.key("steals").integer(row.nested_stats.steals);
    json.key("help_joins").integer(row.nested_stats.help_joins);
    json.key("parallel_regions").integer(row.nested_stats.parallel_regions);
    json.end_object();
  }
  json.end_array().end_object();
  std::string error;
  if (!hm::common::write_file_atomic(out, json.str(), &error)) {
    hm::common::log_error() << "failed to write " << out << ": " << error;
    return 1;
  }
  std::printf("  wrote %s\n", out.c_str());
  return 0;
}
