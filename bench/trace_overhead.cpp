// Overhead of the hm_trace instrumentation on the KFusion frame loop.
//
// Every pipeline phase carries a TraceSpan that (a) feeds a duration
// histogram unconditionally and (b) records a trace event when the runtime
// toggle is on. The acceptance budget is <2% wall-clock overhead for the
// *enabled* path over the *disabled* path on the same frame loop; with
// -DHM_TRACE=OFF the spans compile away entirely and both paths collapse
// to the uninstrumented pipeline.
//
// Emits BENCH_trace_overhead.json with best-of-N timings for
//   disabled : set_trace_enabled(false) — spans arm only for histograms
//   enabled  : set_trace_enabled(true)  — spans also record trace events
// plus the overhead percentage, the event count of one traced run, and
// whether the spans were compiled in at all (trace_compiled).

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dataset/sequence.hpp"
#include "kfusion/params.hpp"
#include "slambench/harness.hpp"

namespace {

/// The three measured instrumentation modes.
struct Mode {
  const char* name;
  bool trace;       ///< set_trace_enabled
  bool histograms;  ///< set_span_histograms_enabled
};
constexpr Mode kModes[] = {
    {"baseline", false, false},  // HM_TRACE_SPAN sites fully dark.
    {"disabled", false, true},   // Production default: histograms only.
    {"enabled", true, true},     // Trace capture on top.
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

/// One timed pass of the full KFusion frame loop under `mode`. The trace
/// buffer is dropped first so a traced pass measures recording cost, not
/// the cost of growing an ever-larger buffer.
double timed_pass(const hm::dataset::RGBDSequence& sequence,
                  const hm::kfusion::KFusionParams& params, const Mode& mode,
                  std::uint64_t* checksum) {
  hm::common::clear_trace();
  hm::common::set_trace_enabled(mode.trace);
  hm::common::set_span_histograms_enabled(mode.histograms);
  hm::common::Timer timer;
  const auto metrics = hm::slambench::run_kfusion(sequence, params);
  const double seconds = timer.seconds();
  *checksum = metrics.stats.total();  // Defeats dead-code elimination.
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const hm::common::CliArgs args(argc, argv);
  const auto frames = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_or("frames", std::int64_t{30})));
  const auto repeats = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_or("repeats", std::int64_t{7})));
  const std::string out =
      args.get_or("out", std::string("BENCH_trace_overhead.json"));

  hm::bench::print_header(
      "trace_overhead: hm_trace span cost on the KFusion frame loop");
  std::printf("  frames: %zu, paired repeats: %zu, spans compiled %s\n\n",
              frames, repeats, HM_TRACE_ENABLED ? "in" : "out (-DHM_TRACE=OFF)");

  const auto sequence =
      hm::dataset::make_benchmark_sequence(frames, 80, 60, nullptr, false);
  const auto params = hm::kfusion::KFusionParams::defaults();

  // Warm-up run (first-touch allocation, metric-handle resolution) so the
  // measured passes compare steady-state costs.
  std::uint64_t checksum = 0;
  (void)timed_pass(*sequence, params, kModes[0], &checksum);

  // Paired, interleaved repeats: every repeat times all modes back to
  // back, so slow drift (frequency scaling, competing load) lands on each
  // mode equally instead of biasing whichever mode ran last. Best-of-N per
  // mode then compares like against like. The old methodology — N repeats
  // of one mode, then N of the other — measured exactly that bias; on a
  // loop recording ~80 events per second of work, multi-percent "overhead"
  // readings were drift, not span cost.
  double best[kModeCount];
  for (std::size_t m = 0; m < kModeCount; ++m) best[m] = 1e300;
  std::size_t traced_events = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t m = 0; m < kModeCount; ++m) {
      const double seconds = timed_pass(*sequence, params, kModes[m], &checksum);
      best[m] = std::min(best[m], seconds);
      if (kModes[m].trace) {
        traced_events = hm::common::trace_snapshot().size();
      }
    }
  }
  hm::common::set_trace_enabled(false);
  hm::common::set_span_histograms_enabled(true);
  hm::common::clear_trace();

  const double baseline_seconds = best[0];
  const double disabled_seconds = best[1];
  const double enabled_seconds = best[2];
  const double overhead_percent =
      disabled_seconds > 0.0
          ? (enabled_seconds - disabled_seconds) / disabled_seconds * 100.0
          : 0.0;
  const double histogram_percent =
      baseline_seconds > 0.0
          ? (disabled_seconds - baseline_seconds) / baseline_seconds * 100.0
          : 0.0;

  std::printf("  %-10s %14s %14s\n", "mode", "best(s)", "events/run");
  std::printf("  %-10s %14.4f %14s\n", "baseline", baseline_seconds, "0");
  std::printf("  %-10s %14.4f %14s\n", "disabled", disabled_seconds, "0");
  std::printf("  %-10s %14.4f %14zu\n\n", "enabled", enabled_seconds,
              traced_events);
  if (HM_TRACE_ENABLED) {
    hm::bench::report("trace-enabled overhead on the frame loop",
                      "< 2% (acceptance)",
                      hm::bench::fmt("%.2f%%", overhead_percent));
    hm::bench::report("span-histogram cost over a dark loop",
                      "(informational)",
                      hm::bench::fmt("%.2f%%", histogram_percent));
  } else {
    std::printf(
        "  (spans compiled out: both modes run the same uninstrumented loop, "
        "the %.2f%% delta is run-to-run noise, and the traced run records "
        "no events — the <2%% acceptance applies to HM_TRACE=ON builds)\n",
        overhead_percent);
  }

  hm::common::JsonWriter json;
  json.begin_object().key("bench").string("trace_overhead");
  json.key("trace_compiled").boolean(HM_TRACE_ENABLED != 0);
  json.key("frames").integer(frames);
  json.key("repeats").integer(repeats);
  json.key("baseline_seconds").number(baseline_seconds);
  json.key("disabled_seconds").number(disabled_seconds);
  json.key("enabled_seconds").number(enabled_seconds);
  json.key("overhead_percent").number(overhead_percent);
  json.key("histogram_percent").number(histogram_percent);
  json.key("traced_events_per_run").integer(traced_events);
  json.key("kernel_ops_checksum").integer(checksum).end_object();
  std::string error;
  if (!hm::common::write_file_atomic(out, json.str(), &error)) {
    hm::common::log_error() << "failed to write " << out << ": " << error;
    return 1;
  }
  std::printf("  wrote %s\n", out.c_str());
  return 0;
}
