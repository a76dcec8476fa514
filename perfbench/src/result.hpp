// What one benchmark run reports: named metrics with units, correctness
// checks, attempt/failure counts, and the build and host provenance that
// every result line carries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class Result {
 public:
  /// Adds a metric to the final JSON line (insertion order is kept).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check. A run with one is a failed run.
  void fail_check(const std::string& what);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Prints every metric as a human-readable line, then the final JSON
  /// object (`correct`, `attempted`, `failed`, `metrics`) as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// True when this binary was compiled with optimisation (and NDEBUG).
[[nodiscard]] bool optimized_build();

/// One JSON object: commit, compiler and flags, build type, SIMD backend,
/// whether trace spans are compiled in, nproc, the evaluation thread count,
/// and the filesystem type holding `journal_dir`.
[[nodiscard]] std::string provenance_json(const std::string& journal_dir,
                                          std::size_t threads);

/// Peak resident set size in MiB of this process, or of the largest
/// waited-for child process tree when that is larger.
[[nodiscard]] double peak_rss_mb();

/// Host CPU accounting from /proc/stat (all CPUs), to tell a slow run on
/// a busy host (steal, iowait) from a slow program.
struct CpuTicks {
  unsigned long long busy = 0;
  unsigned long long idle = 0;
  unsigned long long iowait = 0;
  unsigned long long steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// The share of the CPU time this VM wanted that the host took instead:
/// steal / (busy + steal) between two readings; 0 when nothing ran.
[[nodiscard]] double stolen_share(const CpuTicks& before, const CpuTicks& after);
/// Prints "host: steal x%, iowait y% of CPU time during the run".
void print_host_share(const CpuTicks& before, const CpuTicks& after);

/// JSON string literal with the minimal escapes.
[[nodiscard]] std::string json_quote(const std::string& text);

}  // namespace perfbench
