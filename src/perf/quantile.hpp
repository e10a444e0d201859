#pragma once

// Shared quantile helpers for the fork-join latency bench (percentile over
// raw sorted samples) and apollo_top (quantile reconstruction from cumulative
// histogram buckets). One definition, unit-tested once.

#include <utility>
#include <vector>

namespace apollo::perf {

/// Linear-interpolated quantile of an ascending-sorted sample vector.
/// q is clamped to [0, 1]; an empty vector yields 0.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

/// Quantile from cumulative `le` buckets (Prometheus-style: each pair is
/// {upper bound, cumulative count}), interpolated linearly within the
/// containing bucket and clamped to the last finite bound for the overflow
/// bucket. Zero count or no buckets yields 0.
[[nodiscard]] double bucket_quantile(const std::vector<std::pair<double, double>>& buckets,
                                     double count, double q);

}  // namespace apollo::perf
