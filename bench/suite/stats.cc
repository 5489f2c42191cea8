#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace seltrig::bench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::optional<double> SupportedPercentile(std::vector<double> values, double p,
                                          size_t min_beyond) {
  if (values.empty() || p <= 0.0 || p >= 1.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t index = rank - 1;
  // Strictly above the percentile's value, so ties at the cut do not count
  // as tail samples.
  const size_t beyond = static_cast<size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), values[index]));
  if (beyond < min_beyond) return std::nullopt;
  return values[index];
}

double MedianWindowRate(const std::vector<double>& completion_s, double start_s,
                        double end_s, double window_s) {
  if (window_s <= 0.0 || end_s <= start_s) return 0.0;
  const size_t windows = static_cast<size_t>((end_s - start_s) / window_s);
  if (windows == 0) return 0.0;
  std::vector<double> counts(windows, 0.0);
  for (double t : completion_s) {
    if (t < start_s) continue;
    const size_t w = static_cast<size_t>((t - start_s) / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  return Median(std::move(counts)) / window_s;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

double ClassRatioGeomean(
    const std::vector<std::vector<std::pair<double, double>>>& classes) {
  std::vector<double> ratios;
  std::vector<double> a;
  std::vector<double> b;
  for (const auto& pairs : classes) {
    if (pairs.empty()) continue;
    a.clear();
    b.clear();
    for (const auto& [x, y] : pairs) {
      a.push_back(x);
      b.push_back(y);
    }
    const double denominator = Median(b);
    if (!(denominator > 0.0)) continue;
    ratios.push_back(Median(a) / denominator);
  }
  return GeometricMean(ratios);
}

}  // namespace

RatioInterval BootstrapGeomeanRatio(
    const std::vector<std::vector<std::pair<double, double>>>& classes,
    int resamples, uint64_t seed) {
  RatioInterval out;
  out.ratio = ClassRatioGeomean(classes);
  out.low = out.high = out.ratio;
  if (resamples <= 0 || out.ratio == 0.0) return out;

  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::pair<double, double>>> sample(classes.size());
  std::vector<double> estimates;
  estimates.reserve(static_cast<size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    for (size_t c = 0; c < classes.size(); ++c) {
      const auto& pairs = classes[c];
      sample[c].clear();
      if (pairs.empty()) continue;
      std::uniform_int_distribution<size_t> pick(0, pairs.size() - 1);
      for (size_t i = 0; i < pairs.size(); ++i) sample[c].push_back(pairs[pick(rng)]);
    }
    estimates.push_back(ClassRatioGeomean(sample));
  }
  std::sort(estimates.begin(), estimates.end());
  const auto at = [&](double p) {
    const size_t i = static_cast<size_t>(p * static_cast<double>(estimates.size() - 1) + 0.5);
    return estimates[std::min(i, estimates.size() - 1)];
  };
  out.low = at(0.025);
  out.high = at(0.975);
  return out;
}

}  // namespace seltrig::bench
