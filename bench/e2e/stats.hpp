// Exact sample statistics.  Every quantile the benchmark reports comes from
// the raw samples, sorted — never from telemetry::Histogram, whose log2
// buckets can read up to 2x high.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bench_e2e {

/// Quantile q in [0, 1] of an ascending-sorted sample, interpolating
/// linearly between the two nearest ranks (0 for an empty sample).
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly greater than `value` in an ascending-sorted sample.
[[nodiscard]] std::size_t count_beyond(const std::vector<double>& sorted, double value);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, mean = 0.0;
  std::size_t beyond_p50 = 0, beyond_p90 = 0, beyond_p99 = 0;
  /// "n=<n>, <k> beyond" for the given percentile (50, 90 or 99).
  [[nodiscard]] std::string note(int percentile) const;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

/// Checks quantile_sorted/count_beyond/summarize against hand-computed
/// sample sets; prints each failure and returns the number of failures.
int quantile_self_test();

}  // namespace bench_e2e
