// Metrics-registry tests: histogram bucket boundaries (0 and UINT64_MAX
// included), linear bucketing, instrument identity, snapshots under
// concurrent writers (run under TSan in the telemetry CI job), and a golden
// test pinning the Prometheus exposition format on a fresh registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace bitflow::telemetry {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, Log2BucketBoundaries) {
  Histogram h;
  // Bucket i holds values with bit_width == i: bucket 0 holds only 0;
  // bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(1), 1u);
  EXPECT_EQ(h.bucket_index(2), 2u);
  EXPECT_EQ(h.bucket_index(3), 2u);
  EXPECT_EQ(h.bucket_index(4), 3u);
  EXPECT_EQ(h.bucket_index((std::uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(h.bucket_index(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(h.bucket_index(UINT64_MAX), 64u);
  EXPECT_EQ(h.num_buckets(), Histogram::kLog2Buckets);

  // Upper bounds are inclusive and consistent with the index function:
  // bucket_index(bucket_upper(i)) == i for every finite bound.
  EXPECT_EQ(h.bucket_upper(0), 0u);
  EXPECT_EQ(h.bucket_upper(1), 1u);
  EXPECT_EQ(h.bucket_upper(2), 3u);
  EXPECT_EQ(h.bucket_upper(63), (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(h.bucket_upper(64), UINT64_MAX);
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_index(h.bucket_upper(i)), i) << "bucket " << i;
  }
}

TEST(Histogram, RecordsExtremesWithoutLoss) {
  Histogram h;
  h.record(0);
  h.record(UINT64_MAX);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets.front(), 1u);
  EXPECT_EQ(s.buckets.back(), 1u);
  EXPECT_EQ(s.sum, UINT64_MAX);  // 0 + max
  EXPECT_EQ(s.quantile_upper(0.0), 0u);
  EXPECT_EQ(s.quantile_upper(1.0), UINT64_MAX);
}

TEST(Histogram, LinearBucketingIsExact) {
  Histogram h = Histogram::linear(4);  // exact 0..3 + overflow
  EXPECT_EQ(h.num_buckets(), 5u);
  for (std::uint64_t v : {0, 1, 2, 3, 3, 3}) h.record(v);
  h.record(4);
  h.record(1000);  // overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 3u);
  EXPECT_EQ(s.buckets[4], 2u);  // 4 and 1000 both overflow
  EXPECT_EQ(s.uppers[3], 3u);
  EXPECT_EQ(s.uppers[4], UINT64_MAX);
  EXPECT_EQ(s.count, 8u);
}

TEST(Histogram, QuantileMatchesEngineConvention) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(10);  // bucket 4, upper 15
  h.record(1 << 20);                          // one tail sample
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_upper(0.50), 15u);
  EXPECT_EQ(s.quantile_upper(0.99), 15u);  // want = 99, cum(bucket 4) = 99
  EXPECT_EQ(s.quantile_upper(1.0), (std::uint64_t{1} << 21) - 1);
  EXPECT_DOUBLE_EQ(s.mean(), (99.0 * 10 + (1 << 20)) / 100.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameInstrument) {
  Registry r;
  Counter& a = r.counter("x.count", "k=\"1\"");
  Counter& b = r.counter("x.count", "k=\"1\"");
  Counter& other = r.counter("x.count", "k=\"2\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Registry, KindMismatchThrows) {
  Registry r;
  r.counter("dual");
  EXPECT_THROW(r.gauge("dual"), std::invalid_argument);
  EXPECT_THROW(r.histogram("dual"), std::invalid_argument);
}

TEST(Registry, CallbackGaugesEvaluateAtSnapshotAndAreRemovable) {
  Registry r;
  int owner = 0;
  int calls = 0;
  r.add_callback_gauge(&owner, "derived", "", [&calls] {
    ++calls;
    return 3.5;
  });
  EXPECT_EQ(calls, 0);  // not evaluated at registration
  MetricsSnapshot s = r.snapshot();
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].name, "derived");
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 3.5);
  EXPECT_EQ(calls, 1);
  r.remove_callbacks(&owner);
  EXPECT_TRUE(r.snapshot().gauges.empty());
}

TEST(Registry, SnapshotUnderConcurrentWritersIsConsistent) {
  Registry r;
  Counter& c = r.counter("writers.count");
  Histogram& h = r.histogram("writers.lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  // Scrape while the writers hammer: every snapshot must be internally sane
  // (bucket sum never exceeds a later count read; monotone counters).
  std::uint64_t last_count = 0;
  std::thread scraper([&r, &stop, &last_count] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot s = r.snapshot();
      for (const CounterSample& cs : s.counters) {
        EXPECT_GE(cs.value, last_count);
        last_count = cs.value;
      }
      for (const HistogramSample& hs : s.histograms) {
        std::uint64_t bucket_sum = 0;
        for (const std::uint64_t b : hs.hist.buckets) bucket_sum += b;
        EXPECT_GE(bucket_sum, hs.hist.count);  // count loaded before buckets
      }
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Exposition, GoldenFormatOnFreshRegistry) {
  Registry r;
  r.counter("serve.requests.accepted", "engine=\"0\"").add(5);
  r.gauge("queue.depth").set(3);
  Histogram& h = r.histogram("latency.us");
  h.record(0);
  h.record(3);
  h.record(3);
  const std::string text = r.prometheus_text();
  const std::string expected =
      "# TYPE serve_requests_accepted counter\n"
      "serve_requests_accepted{engine=\"0\"} 5\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 3\n"
      "# TYPE latency_us histogram\n"
      "latency_us_bucket{le=\"0\"} 1\n"
      "latency_us_bucket{le=\"3\"} 3\n"
      "latency_us_bucket{le=\"+Inf\"} 3\n"
      "latency_us_sum 6\n"
      "latency_us_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(Exposition, LinearHistogramEmitsExactBounds) {
  Registry r;
  Histogram& h = r.histogram("batch.size", "engine=\"1\"", 4);
  h.record(1);
  h.record(4);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("batch_size_bucket{engine=\"1\",le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("batch_size_bucket{engine=\"1\",le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("batch_size_bucket{engine=\"1\",le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("batch_size_count{engine=\"1\"} 2\n"), std::string::npos);
}

TEST(ProcessRegistry, ExposesFailpointCatalogAsGauges) {
  const MetricsSnapshot s = registry().snapshot();
  std::size_t failpoint_gauges = 0;
  for (const GaugeSample& g : s.gauges) {
    if (g.name == "failpoint.hits") ++failpoint_gauges;
  }
  EXPECT_EQ(failpoint_gauges, failpoint::catalog().size());
  EXPECT_NE(registry().prometheus_text().find("failpoint_hits{point=\""),
            std::string::npos);
}

TEST(SpanStats, AccumulatesAndViews) {
  SpanStats s;
  EXPECT_EQ(s.view().count, 0u);
  EXPECT_EQ(s.view().min_ns, 0u);  // no samples
  s.record(100, 2);
  s.record(300, 4);
  const SpanStats::View v = s.view();
  EXPECT_EQ(v.count, 2u);
  EXPECT_EQ(v.units, 6u);
  EXPECT_EQ(v.total_ns, 400u);
  EXPECT_EQ(v.min_ns, 100u);
  EXPECT_DOUBLE_EQ(v.mean_ns(), 200.0);
  EXPECT_GE(v.p99_ns, v.p50_ns);
}

TEST(Profiler, GlobalSwitchToggles) {
  EXPECT_FALSE(profiling_enabled());
  set_profiling(true);
  EXPECT_TRUE(profiling_enabled());
  set_profiling(false);
  EXPECT_FALSE(profiling_enabled());
}

}  // namespace
}  // namespace bitflow::telemetry
