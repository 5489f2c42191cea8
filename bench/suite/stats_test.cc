// bench_stats_test: checks the summary statistics seltrig_bench reports.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace seltrig::bench {
namespace {

int failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-9 * std::max(1.0, std::fabs(expected))) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, actual, expected);
    ++failures;
  }
}

void ExpectTrue(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

void TestMedian() {
  ExpectNear(Median({}), 0.0, "median of nothing");
  ExpectNear(Median({3.0}), 3.0, "median of one");
  ExpectNear(Median({4.0, 1.0, 3.0}), 3.0, "odd median");
  ExpectNear(Median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
}

void TestPercentileNeedsTenBeyond() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  // p99 of 1..1000 is 990; exactly ten samples (991..1000) lie beyond it.
  auto p99 = SupportedPercentile(values, 0.99);
  ExpectTrue(p99.has_value(), "p99 with ten beyond is reported");
  if (p99) ExpectNear(*p99, 990.0, "p99 value");
  values.pop_back();  // 999 samples: only nine beyond the p99
  ExpectTrue(!SupportedPercentile(values, 0.99).has_value(),
             "p99 with nine beyond is withheld");
  auto p50 = SupportedPercentile(values, 0.5);
  ExpectTrue(p50.has_value(), "p50 is reported");
  if (p50) ExpectNear(*p50, 500.0, "p50 value");
  // Ties at the cut are not tail samples.
  std::vector<double> flat(500, 1.0);
  for (int i = 0; i < 9; ++i) flat.push_back(2.0);
  ExpectTrue(!SupportedPercentile(flat, 0.5).has_value(),
             "ties at the cut do not count as beyond");
  ExpectTrue(!SupportedPercentile({}, 0.5).has_value(), "empty input");
}

void TestWindowRate() {
  // Windows [0,1) [1,2) [2,3): 3, 1 and 2 completions; 3.5 falls in no whole
  // window and -0.5, before the start, is ignored.
  std::vector<double> t = {-0.5, 0.1, 0.2, 0.3, 1.5, 2.1, 2.2, 3.5};
  ExpectNear(MedianWindowRate(t, 0.0, 3.9), 2.0, "median of 3,1,2 per second");
  ExpectNear(MedianWindowRate(t, 1.0, 1.5), 0.0, "no whole window");
  std::vector<double> steady;
  for (int i = 0; i < 300; ++i) steady.push_back(0.005 + 0.01 * i);
  ExpectNear(MedianWindowRate(steady, 0.0, 3.0, 0.5), 100.0,
             "half-second windows report per second");
}

void TestGeometricMean() {
  ExpectNear(GeometricMean({2.0, 8.0}), 4.0, "geomean");
  ExpectNear(GeometricMean({}), 0.0, "geomean of nothing");
  ExpectNear(GeometricMean({1.0, 0.0}), 0.0, "geomean with a zero");
}

void TestBootstrap() {
  // Every pair has ratio 2 (class 0) or 8 (class 1): the estimate and every
  // resample are exactly 4.
  std::vector<std::vector<std::pair<double, double>>> exact = {
      {{2.0, 1.0}, {4.0, 2.0}, {6.0, 3.0}},
      {{8.0, 1.0}, {16.0, 2.0}},
      {}};
  RatioInterval r = BootstrapGeomeanRatio(exact);
  ExpectNear(r.ratio, 4.0, "exact ratio");
  ExpectTrue(r.low <= r.ratio && r.ratio <= r.high, "interval holds the estimate");

  std::vector<std::vector<std::pair<double, double>>> noisy(1);
  for (int i = 0; i < 50; ++i) {
    noisy[0].push_back({1.0 + 0.01 * (i % 7), 1.0 + 0.01 * (i % 5)});
  }
  RatioInterval a = BootstrapGeomeanRatio(noisy);
  RatioInterval b = BootstrapGeomeanRatio(noisy);
  ExpectNear(a.low, b.low, "fixed seed: same low bound");
  ExpectNear(a.high, b.high, "fixed seed: same high bound");
  ExpectTrue(a.low < a.high, "noisy pairs give a non-empty interval");
  ExpectTrue(a.low <= a.ratio && a.ratio <= a.high, "noisy interval holds the estimate");
}

}  // namespace
}  // namespace seltrig::bench

int main() {
  using namespace seltrig::bench;
  TestMedian();
  TestPercentileNeedsTenBeyond();
  TestWindowRate();
  TestGeometricMean();
  TestBootstrap();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_stats_test: all checks passed\n");
  return 0;
}
