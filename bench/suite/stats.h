// Summary statistics for seltrig_bench. Everything here is deterministic:
// the bootstrap uses a fixed seed so a result file can be recomputed.

#ifndef SELTRIG_BENCH_SUITE_STATS_H_
#define SELTRIG_BENCH_SUITE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace seltrig::bench {

// Median of `values` (mean of the two middle values for an even count).
// 0 for an empty input.
double Median(std::vector<double> values);

// The nearest-rank `p` percentile (0 < p < 1), reported only when at least
// `min_beyond` samples lie above it; a tail percentile resting on fewer
// samples is noise, so the caller prints nothing instead.
std::optional<double> SupportedPercentile(std::vector<double> values, double p,
                                          size_t min_beyond = 10);

// Throughput as the median, over the whole `window_s` windows that fit in
// [start_s, end_s), of the number of completion times falling in each window,
// divided by the window width. 0 when no whole window fits.
double MedianWindowRate(const std::vector<double>& completion_s, double start_s,
                        double end_s, double window_s = 1.0);

// Geometric mean of positive values; 0 if any value is not positive or the
// input is empty.
double GeometricMean(const std::vector<double>& values);

// Fixed seed of every bootstrap in the benchmark.
inline constexpr uint64_t kBootstrapSeed = 0x5E17B007u;

struct RatioInterval {
  double ratio = 0.0;  // point estimate
  double low = 0.0;    // 2.5th percentile of the bootstrap distribution
  double high = 0.0;   // 97.5th percentile
};

// Paired ratio over statement classes. classes[c] holds (a, b) timing pairs
// measured back to back on the same statement. The estimate is the
// geometric mean over classes of median(a) / median(b); the interval comes
// from resampling the pairs of every class with replacement `resamples`
// times. Classes without pairs are skipped.
RatioInterval BootstrapGeomeanRatio(
    const std::vector<std::vector<std::pair<double, double>>>& classes,
    int resamples = 1000, uint64_t seed = kBootstrapSeed);

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_STATS_H_
