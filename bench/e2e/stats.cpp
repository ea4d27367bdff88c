#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace bench_e2e {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::size_t count_beyond(const std::vector<double>& sorted, double value) {
  return static_cast<std::size_t>(sorted.end() -
                                  std::upper_bound(sorted.begin(), sorted.end(), value));
}

std::string Summary::note(int percentile) const {
  const std::size_t beyond =
      percentile == 50 ? beyond_p50 : percentile == 90 ? beyond_p90 : beyond_p99;
  return "n=" + std::to_string(n) + ", " + std::to_string(beyond) + " beyond";
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = quantile_sorted(samples, 0.50);
  s.p90 = quantile_sorted(samples, 0.90);
  s.p99 = quantile_sorted(samples, 0.99);
  s.beyond_p50 = count_beyond(samples, s.p50);
  s.beyond_p90 = count_beyond(samples, s.p90);
  s.beyond_p99 = count_beyond(samples, s.p99);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  return s;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.50);
}

namespace {

int expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want))) return 0;
  std::printf("self-test FAIL %s: got %.12g, want %.12g\n", what, got, want);
  return 1;
}

int expect_count(const char* what, std::size_t got, std::size_t want) {
  if (got == want) return 0;
  std::printf("self-test FAIL %s: got %zu, want %zu\n", what, got, want);
  return 1;
}

}  // namespace

int quantile_self_test() {
  int fails = 0;
  {
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end());  // summarize must sort
    const Summary s = summarize(v);
    fails += expect_count("1..100 n", s.n, 100);
    fails += expect_near("1..100 p50", s.p50, 50.5);
    fails += expect_near("1..100 p90", s.p90, 90.1);
    fails += expect_near("1..100 p99", s.p99, 99.01);
    fails += expect_near("1..100 mean", s.mean, 50.5);
    fails += expect_count("1..100 beyond p50", s.beyond_p50, 50);
    fails += expect_count("1..100 beyond p90", s.beyond_p90, 10);
    fails += expect_count("1..100 beyond p99", s.beyond_p99, 1);
  }
  {
    const Summary s = summarize({5.0});
    fails += expect_near("singleton p50", s.p50, 5.0);
    fails += expect_near("singleton p99", s.p99, 5.0);
    fails += expect_count("singleton beyond p50", s.beyond_p50, 0);
  }
  {
    const Summary s = summarize({3.0, 1.0, 2.0});
    fails += expect_near("{3,1,2} p50", s.p50, 2.0);
    fails += expect_near("{3,1,2} p90", s.p90, 2.8);
    fails += expect_count("{3,1,2} beyond p50", s.beyond_p50, 1);
  }
  {
    const Summary s = summarize({1.0, 1.0, 1.0, 1000.0});
    fails += expect_near("outlier p50", s.p50, 1.0);
    fails += expect_near("outlier p90", s.p90, 700.3);
    fails += expect_count("outlier beyond p50", s.beyond_p50, 1);
    fails += expect_count("outlier beyond p90", s.beyond_p90, 1);
  }
  {
    // A log2-bucket histogram reports 4 here (the bucket's upper bound).
    const Summary s = summarize(std::vector<double>(1000, 3.0));
    fails += expect_near("constant p50", s.p50, 3.0);
    fails += expect_near("constant p99", s.p99, 3.0);
    fails += expect_count("constant beyond p99", s.beyond_p99, 0);
  }
  {
    const Summary s = summarize({});
    fails += expect_count("empty n", s.n, 0);
    fails += expect_near("empty p50", s.p50, 0.0);
  }
  fails += expect_near("median even", median({4.0, 1.0, 3.0, 2.0}), 2.5);
  fails += expect_near("median odd", median({0.9, 0.1, 0.5}), 0.5);
  return fails;
}

}  // namespace bench_e2e
