#ifndef RSTORE_PERFBENCH_STATS_H_
#define RSTORE_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// One reported percentile of a sample: the value, the percentile actually
/// used, and the sample it was taken from.
struct Percentile {
  double value = 0;
  /// The percentile reported, in (0, 100].
  double p = 0;
  /// Samples in the distribution.
  size_t count = 0;
  /// Samples strictly above the reported rank.
  size_t beyond = 0;
};

/// Samples a tail percentile needs above its rank to be reported.
inline constexpr size_t kTailMinBeyond = 10;

/// Nearest-rank percentile: the smallest sample at or above `p` percent of
/// the sorted distribution. `sorted` must be ascending and non-empty.
inline Percentile NearestRank(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.count = sorted.size();
  out.p = p;
  if (sorted.empty()) return out;
  // The epsilon keeps p * n / 100 from rounding up past an exact rank
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size()) / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

/// The highest percentile, at most `p_max`, that leaves at least
/// kTailMinBeyond samples above its rank: min(p_max, 100 * (n - 10) / n).
/// A sample of ten or fewer supports no tail; the maximum is then reported
/// with p = 100 and `beyond` = 0, so the caller can tell.
inline Percentile TailPercentile(std::vector<double> values,
                                 double p_max = 99.0) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= kTailMinBeyond) return NearestRank(values, 100.0);
  Percentile out = NearestRank(values, p_max);
  if (out.beyond >= kTailMinBeyond) return out;
  const size_t rank = n - kTailMinBeyond;
  out.value = values[rank - 1];
  out.p = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  out.beyond = kTailMinBeyond;
  return out;
}

/// Nearest-rank median (p50) with its sample count.
inline Percentile Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 50.0);
}

}  // namespace perfbench

#endif  // RSTORE_PERFBENCH_STATS_H_
