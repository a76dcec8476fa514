// Tests of the benchmark's arithmetic (perfbench/src/attribution.hpp):
// nearest-rank percentiles and their sample counts, self time under
// overlapping children, batch idle time and unattributed time. Exits
// nonzero on the first failure; run by `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "attribution.hpp"

namespace {

int failures = 0;

void expect_near(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-12) {
    std::printf("FAIL %s: got %.17g, expected %.17g\n", what, actual, expected);
    ++failures;
  }
}

void expect_eq(std::size_t actual, std::size_t expected, const char* what) {
  if (actual != expected) {
    std::printf("FAIL %s: got %zu, expected %zu\n", what, actual, expected);
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  using perfbench::percentile;
  // 1..100 (given in reverse): p50 is the 50th value, 50 samples beyond.
  const auto p50 = percentile(one_to(100), 50.0);
  expect_near(p50.value, 50.0, "p50 of 1..100");
  expect_eq(p50.count, 100, "p50 count");
  expect_eq(p50.beyond, 50, "p50 beyond");
  const auto p90 = percentile(one_to(100), 90.0);
  expect_near(p90.value, 90.0, "p90 of 1..100");
  expect_eq(p90.beyond, 10, "p90 beyond");
  // Nearest rank rounds up: p90 of 1..5 is the 5th value, nothing beyond.
  const auto small = percentile(one_to(5), 90.0);
  expect_near(small.value, 5.0, "p90 of 1..5");
  expect_eq(small.beyond, 0, "p90 of 1..5 beyond");
  expect_near(percentile(one_to(4), 50.0).value, 2.0, "p50 of 1..4");
  const auto empty = percentile({}, 50.0);
  expect_eq(empty.count, 0, "empty count");
  expect_near(empty.value, 0.0, "empty value");

  // Highest percentile with >= 10 samples beyond it.
  expect_near(perfbench::highest_supported_percentile(one_to(100)).percent, 90.0,
              "n=100 supports p90");
  expect_near(perfbench::highest_supported_percentile(one_to(99)).percent, 50.0,
              "n=99 supports only p50");
  expect_near(perfbench::highest_supported_percentile(one_to(1000)).percent, 99.0,
              "n=1000 supports p99");
  expect_eq(perfbench::highest_supported_percentile(one_to(19)).beyond, 9,
            "n=19: p50 has 9 beyond");

  expect_near(perfbench::median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expect_near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5, "even median");
}

void test_self_time() {
  using perfbench::Interval;
  // Parent [0, 10); children [1, 4) and [3, 6) overlap on [3, 4): covered
  // 5 s, not 6. A child sticking out of the parent counts only inside it.
  expect_near(perfbench::self_time({0.0, 10.0}, {{1.0, 4.0}, {3.0, 6.0}}), 5.0,
              "overlapping children");
  expect_near(perfbench::self_time({0.0, 10.0}, {{8.0, 12.0}, {-2.0, 1.0}}), 7.0,
              "children clipped to parent");
  expect_near(perfbench::self_time({0.0, 10.0}, {{2.0, 3.0}, {2.0, 3.0}}), 9.0,
              "duplicate children");
  expect_near(perfbench::self_time({0.0, 10.0}, {{1.0, 9.0}, {2.0, 3.0}}), 2.0,
              "nested children");
  expect_near(perfbench::self_time({0.0, 10.0}, {}), 10.0, "no children");
  expect_near(perfbench::self_time({0.0, 10.0}, {{11.0, 12.0}}), 10.0,
              "disjoint child");
}

void test_batch_idle() {
  std::vector<perfbench::BatchRecord> batches;
  // 4 threads x 2 s = 8 thread-seconds, 5 busy: 3 idle.
  batches.push_back({{0.0, 2.0}, 5.0});
  // 4 threads x 1 s, fully busy: 0 idle.
  batches.push_back({{2.0, 3.0}, 4.0});
  // Busy above capacity (timer jitter) clamps at 0, never negative.
  batches.push_back({{3.0, 3.5}, 2.5});
  expect_near(perfbench::batch_idle_seconds(batches, 4), 3.0, "batch idle");
  expect_near(perfbench::batch_idle_seconds(batches, 1), 0.0,
              "one thread never idles");
  expect_near(perfbench::batch_idle_seconds({}, 4), 0.0, "no batches");
}

void test_unattributed() {
  // Campaign [0, 10): propose [0, 1), batch [1, 6), propose [6, 6.5),
  // batch [6.5, 9), finish [9.5, 10): 0.5 s between batch and finish.
  expect_near(perfbench::unattributed_seconds(
                  {0.0, 10.0},
                  {{0.0, 1.0}, {1.0, 6.0}, {6.0, 6.5}, {6.5, 9.0}, {9.5, 10.0}}),
              0.5, "unattributed gap");
  expect_near(perfbench::unattributed_seconds({0.0, 10.0}, {{0.0, 10.0}}), 0.0,
              "fully attributed");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_batch_idle();
  test_unattributed();
  if (failures != 0) {
    std::printf("%d attribution check(s) failed\n", failures);
    return 1;
  }
  std::printf("attribution tests passed\n");
  return 0;
}
