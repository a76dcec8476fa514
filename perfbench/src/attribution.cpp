#include "attribution.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double covered_seconds(std::vector<Interval> intervals, Interval window) {
  for (Interval& i : intervals) {
    i.start = std::max(i.start, window.start);
    i.end = std::min(i.end, window.end);
  }
  std::erase_if(intervals, [](const Interval& i) { return i.end <= i.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& i : intervals) {
    if (open && i.start <= run_end) {
      run_end = std::max(run_end, i.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = i.start;
    run_end = i.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

double self_time(Interval parent, const std::vector<Interval>& children) {
  return parent.length() - covered_seconds(children, parent);
}

Percentile percentile(std::vector<double> values, double percent) {
  Percentile result;
  result.percent = percent;
  result.count = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const double exact = percent / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  result.value = values[rank - 1];
  result.beyond = values.size() - rank;
  return result;
}

Percentile highest_supported_percentile(const std::vector<double>& values,
                                        std::size_t min_beyond) {
  Percentile best = percentile(values, 50.0);
  for (const double p : {90.0, 99.0, 99.9}) {
    const Percentile candidate = percentile(values, p);
    if (candidate.beyond < min_beyond) break;
    best = candidate;
  }
  return best;
}

std::string describe_tail(const Percentile& p) {
  char buffer[128];
  if (p.beyond < 10) {
    std::snprintf(buffer, sizeof(buffer),
                  "no percentile has >=10 samples beyond it (n=%zu)", p.count);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "highest supported p%g = %.6g (n=%zu, %zu beyond)", p.percent,
                  p.value, p.count, p.beyond);
  }
  return buffer;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double batch_idle_seconds(const std::vector<BatchRecord>& batches,
                          std::size_t threads) {
  double idle = 0.0;
  for (const BatchRecord& b : batches) {
    idle += std::max(0.0, b.wall.length() * static_cast<double>(threads) -
                              b.busy_seconds);
  }
  return idle;
}

double unattributed_seconds(Interval campaign,
                            const std::vector<Interval>& attributed) {
  return self_time(campaign, attributed);
}

}  // namespace perfbench
