#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "core/cancel.hpp"
#include "core/failpoint.hpp"
#include "runtime/scaling_sim.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace bitflow::runtime {
namespace {

TEST(StaticBlock, CoversRangeExactlyOnce) {
  for (std::int64_t n : {1, 7, 64, 1000}) {
    for (int p : {1, 2, 3, 8, 64}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      for (int b = 0; b < p; ++b) {
        const Range r = static_block(n, p, b);
        for (std::int64_t i = r.begin; i < r.end; ++i) ++hits[static_cast<std::size_t>(i)];
      }
      for (int h : hits) EXPECT_EQ(h, 1) << "n=" << n << " p=" << p;
    }
  }
}

TEST(StaticBlock, BalancedWithinOne) {
  const std::int64_t n = 1003;
  const int p = 7;
  std::int64_t mn = n, mx = 0;
  for (int b = 0; b < p; ++b) {
    const Range r = static_block(n, p, b);
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1);
}

class ThreadPoolParam : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolParam, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(GetParam());
  EXPECT_EQ(pool.num_threads(), GetParam());
  const std::int64_t n = 10007;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](Range r, int) {
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
}

TEST_P(ThreadPoolParam, ParallelForSumMatches) {
  ThreadPool pool(GetParam());
  const std::int64_t n = 4096;
  std::vector<std::int64_t> partial(static_cast<std::size_t>(pool.num_threads()), 0);
  pool.parallel_for(n, [&](Range r, int worker) {
    for (std::int64_t i = r.begin; i < r.end; ++i) partial[static_cast<std::size_t>(worker)] += i;
  });
  const std::int64_t total = std::accumulate(partial.begin(), partial.end(), std::int64_t{0});
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST_P(ThreadPoolParam, ReusableAcrossJobs) {
  ThreadPool pool(GetParam());
  std::atomic<int> counter{0};
  for (int job = 0; job < 50; ++job) {
    pool.run_on_all([&](int) { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 50 * pool.num_threads());
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParam, ::testing::Values(1, 2, 4, 8));

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](Range, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](Range r, int) {
    for (std::int64_t i = r.begin; i < r.end; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), std::invalid_argument); }

TEST(ThreadPool, StatsCountEveryWorkerExactlyOncePerJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.stats().total_tasks(), 0u);
  constexpr int kJobs = 25;
  for (int job = 0; job < kJobs; ++job) {
    pool.run_on_all([](int) {
      volatile std::int64_t sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    });
  }
  const PoolStats s = pool.stats();
  ASSERT_EQ(s.workers.size(), 4u);
  // run_on_all dispatches the job to all workers (caller included), so every
  // worker's tally advances by exactly one per job and the totals agree.
  for (const WorkerStats& w : s.workers) EXPECT_EQ(w.tasks, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.total_tasks(), static_cast<std::uint64_t>(4 * kJobs));
  EXPECT_GT(s.total_busy_ns(), 0u);
}

TEST(ThreadPool, StatsTickOnSingleThreadInlinePath) {
  ThreadPool pool(1);
  pool.run_on_all([](int worker) { EXPECT_EQ(worker, 0); });
  pool.parallel_for(16, [](Range, int) {});
  const PoolStats s = pool.stats();
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].tasks, 2u);  // one run_on_all + one inline parallel_for
}

TEST(ThreadPool, StatsStillTickWhenJobsThrow) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_on_all([](int) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // Both workers ran (and failed); the failed executions are still counted.
  EXPECT_EQ(pool.stats().total_tasks(), 2u);
}

TEST(ScalingSimulator, UniformChunksScaleLinearlyWithoutOverhead) {
  ScalingSimulator sim(std::vector<double>(64, 1.0), /*fork_join_base=*/0.0);
  EXPECT_DOUBLE_EQ(sim.serial_seconds(), 64.0);
  EXPECT_DOUBLE_EQ(sim.predict_speedup(1), 1.0);
  EXPECT_DOUBLE_EQ(sim.predict_speedup(2), 2.0);
  EXPECT_DOUBLE_EQ(sim.predict_speedup(64), 64.0);
}

TEST(ScalingSimulator, SpeedupCappedByChunkCount) {
  ScalingSimulator sim(std::vector<double>(4, 1.0), 0.0);
  // More threads than chunks: makespan is one chunk.
  EXPECT_DOUBLE_EQ(sim.predict_speedup(64), 4.0);
}

TEST(ScalingSimulator, ImbalanceLimitsSpeedup) {
  // One dominant chunk bounds the makespan.
  std::vector<double> costs(16, 0.1);
  costs[0] = 10.0;
  ScalingSimulator sim(costs, 0.0);
  EXPECT_LE(sim.predict_speedup(16), sim.serial_seconds() / 10.0 + 1e-12);
}

TEST(ScalingSimulator, OverheadCausesSaturation) {
  // Tiny chunks + per-fork overhead: wider is eventually not better — the
  // mechanism behind conv5.1's saturation in Fig. 9.
  ScalingSimulator sim(std::vector<double>(16, 1e-6), /*fork_join_base=*/1e-5);
  EXPECT_GT(sim.predict_seconds(16), sim.predict_seconds(1));
}

TEST(ScalingSimulator, RejectsBadArgs) {
  EXPECT_THROW(ScalingSimulator({}, 0.0), std::invalid_argument);
  ScalingSimulator sim(std::vector<double>(4, 1.0));
  EXPECT_THROW((void)sim.predict_seconds(0), std::invalid_argument);
}

TEST(ScalingSimulator, PredictionIsBoundedForArbitraryCostMixes) {
  // For any cost mix and any p, the static-partition makespan obeys the
  // classic bounds: never beats the largest single chunk or perfect linear
  // division, never exceeds the serial time.  (Monotonicity in p is NOT
  // guaranteed for heterogeneous costs — shifting block boundaries can make
  // p+1 threads worse than p, which is exactly what the simulator must
  // reproduce about the real partition.)
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> cost(0.01, 1.0);
  std::vector<double> costs(37);
  for (auto& c : costs) c = cost(rng);
  const double largest = *std::max_element(costs.begin(), costs.end());
  ScalingSimulator sim(costs, 0.0);
  EXPECT_DOUBLE_EQ(sim.predict_seconds(1), sim.serial_seconds());
  for (int p = 2; p <= 64; ++p) {
    const double t = sim.predict_seconds(p);
    EXPECT_GE(t, largest - 1e-15) << "beat the dominant chunk at p=" << p;
    EXPECT_GE(t, sim.serial_seconds() / p - 1e-15) << "super-linear at p=" << p;
    EXPECT_LE(t, sim.serial_seconds() + 1e-15) << "slower than serial with no overhead, p=" << p;
  }
}

TEST(ScalingSimulator, UniformCostsAreMonotoneInThreadCount) {
  // For uniform chunks the static partition only evens out as p grows, so
  // predicted time is non-increasing (until overhead, which is zero here).
  ScalingSimulator sim(std::vector<double>(37, 0.5), 0.0);
  double prev = sim.predict_seconds(1);
  for (int p = 2; p <= 64; ++p) {
    const double t = sim.predict_seconds(p);
    EXPECT_LE(t, prev + 1e-15) << p << " threads slower than " << p - 1;
    prev = t;
  }
}

TEST(ScalingSimulator, SingleChunkNeverScales) {
  ScalingSimulator sim(std::vector<double>(1, 2.0), 0.0);
  for (int p : {1, 2, 8, 64}) EXPECT_DOUBLE_EQ(sim.predict_speedup(p), 1.0);
  // With overhead, extra threads on one chunk are strictly counterproductive.
  ScalingSimulator costly(std::vector<double>(1, 2.0), 1e-3);
  EXPECT_LT(costly.predict_speedup(8), 1.0);
  EXPECT_DOUBLE_EQ(costly.predict_speedup(1), 1.0);  // p=1 incurs zero overhead
}

TEST(ScalingSimulator, OverheadGrowsMonotonicallyPastSaturation) {
  // Once per-block work is negligible next to the log2(p) fork/join term,
  // predicted time must rise monotonically with p (Fig. 9's flat-then-worse
  // tail), not oscillate.
  ScalingSimulator sim(std::vector<double>(8, 1e-7), /*fork_join_base=*/1e-4);
  double prev = sim.predict_seconds(8);  // >= chunk count: work term is fixed
  for (int p = 16; p <= 256; p *= 2) {
    const double t = sim.predict_seconds(p);
    EXPECT_GT(t, prev) << "p=" << p;
    prev = t;
  }
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](Range r, int) {
                          if (r.begin >= 50) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](Range r, int) {
    count.fetch_add(static_cast<int>(r.size()), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(std::memory_order_relaxed), 16);
}

TEST(StaticBlock, EdgeCases) {
  // n = 0: every block is empty.
  for (int b = 0; b < 5; ++b) {
    const Range r = static_block(0, 5, b);
    EXPECT_EQ(r.begin, r.end) << "b=" << b;
  }
  // More blocks than elements: blocks are contiguous, non-overlapping, sizes
  // differ by at most one, and exactly n of them are non-empty.
  {
    const std::int64_t n = 3;
    const int p = 8;
    std::int64_t covered = 0, prev_end = 0, mn = n, mx = 0;
    for (int b = 0; b < p; ++b) {
      const Range r = static_block(n, p, b);
      EXPECT_EQ(r.begin, prev_end) << "b=" << b;
      EXPECT_LE(r.begin, r.end);
      prev_end = r.end;
      covered += r.size();
      mn = std::min(mn, r.size());
      mx = std::max(mx, r.size());
    }
    EXPECT_EQ(prev_end, n);
    EXPECT_EQ(covered, n);
    EXPECT_LE(mx - mn, 1);
  }
  // Non-divisible split: same contiguity/balance contract.
  {
    const std::int64_t n = 10;
    const int p = 3;
    std::int64_t prev_end = 0;
    for (int b = 0; b < p; ++b) {
      const Range r = static_block(n, p, b);
      EXPECT_EQ(r.begin, prev_end);
      EXPECT_GE(r.size(), n / p);
      EXPECT_LE(r.size(), n / p + 1);
      prev_end = r.end;
    }
    EXPECT_EQ(prev_end, n);
  }
  // 64-bit-large n: the n*b product must not be computed in 32 bits.
  {
    const std::int64_t n = std::int64_t{1} << 40;
    const int p = 7;
    std::int64_t prev_end = 0, covered = 0;
    for (int b = 0; b < p; ++b) {
      const Range r = static_block(n, p, b);
      EXPECT_EQ(r.begin, prev_end);
      EXPECT_GE(r.size(), n / p);
      EXPECT_LE(r.size(), n / p + 1);
      prev_end = r.end;
      covered += r.size();
    }
    EXPECT_EQ(prev_end, n);
    EXPECT_EQ(covered, n);
  }
}

TEST(ThreadPool, RunOnAllAggregatesMultipleWorkerFailures) {
  ThreadPool pool(4);
  // Several workers throw; the caller must see one WorkerFailure that
  // reports how many failed and carries the first failure's message —
  // no silently dropped exceptions, no terminate.
  int caught = 0;
  try {
    pool.run_on_all([&](int w) {
      if (w != 0) throw std::runtime_error("worker " + std::to_string(w));
    });
  } catch (const WorkerFailure& e) {
    ++caught;
    EXPECT_EQ(e.failed_count(), 3);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("3 of 4 workers failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("worker "), std::string::npos) << msg;
  }
  EXPECT_EQ(caught, 1);
  // The pool must be fully usable afterwards: pending/job state reset.
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> visits{0};
    pool.run_on_all([&](int) { visits.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(visits.load(std::memory_order_relaxed), 4) << "round " << round;
  }
}

TEST(ThreadPool, SingleWorkerFailureRethrowsOriginalType) {
  ThreadPool pool(4);
  // Exactly one failure: the caller gets the worker's own exception type,
  // not a WorkerFailure wrapper.
  EXPECT_THROW(pool.run_on_all([&](int w) {
    if (w == 2) throw std::invalid_argument("just worker two");
  }),
               std::invalid_argument);
}

TEST(ThreadPool, CallerExceptionPropagates) {
  ThreadPool pool(3);
  // Worker 0 is the calling thread; its exception must surface too.
  EXPECT_THROW(pool.run_on_all([&](int w) {
    if (w == 0) throw std::logic_error("caller");
  }),
               std::logic_error);
}

TEST(ThreadPool, CallerAndWorkerFailuresAggregateWithCallerFirst) {
  ThreadPool pool(2);
  // Both the caller thread and an OS worker throw: the aggregate counts
  // both, and the caller's message wins the "first" slot (deterministic —
  // worker 0 is always the calling thread).
  try {
    pool.run_on_all([&](int w) {
      throw std::runtime_error(w == 0 ? "caller boom" : "os-worker boom");
    });
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    EXPECT_EQ(e.failed_count(), 2);
    EXPECT_NE(std::string(e.what()).find("caller boom"), std::string::npos) << e.what();
  }
}

TEST(ThreadPool, UsableAfterWorkerThrowsTwiceInARow) {
  ThreadPool pool(4);
  // Regression for the error-state reset: two consecutive failing jobs,
  // then a good one — the good job must run on all workers and the stale
  // error must not resurface.
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(pool.run_on_all([&](int w) {
                   if (w == 1) throw std::runtime_error("round failure");
                 }),
                 std::runtime_error);
  }
  std::atomic<int> visits{0};
  pool.run_on_all([&](int) { visits.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(visits.load(std::memory_order_relaxed), 4);
}

// --- held pools ----------------------------------------------------------------

TEST(ThreadPool, HeldPoolKeepsTheJobContract) {
  ThreadPool pool(4);
  const ThreadPool::Hold hold(pool);
  // One failure: the worker's own exception type.
  EXPECT_THROW(pool.run_on_all([](int w) {
    if (w == 2) throw std::invalid_argument("just worker two");
  }),
               std::invalid_argument);
  // Several: one aggregate that counts them.
  try {
    pool.run_on_all([](int w) {
      if (w != 0) throw std::runtime_error("worker " + std::to_string(w));
    });
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    EXPECT_EQ(e.failed_count(), 3);
  }
  // Still usable: back-to-back jobs reach every worker, spinning or parked,
  // and each job ticks every worker's tally once.
  const std::uint64_t tasks_before = pool.stats().total_tasks();
  for (int job = 0; job < 200; ++job) {
    std::atomic<int> visits{0};
    pool.run_on_all([&](int) { visits.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(visits.load(std::memory_order_relaxed), 4) << "job " << job;
  }
  EXPECT_EQ(pool.stats().total_tasks() - tasks_before, 200u * 4u);
  // The cancellation chunk skip still applies.
  const core::CancelToken token = core::CancelToken::cancellable();
  token.cancel();
  pool.set_cancel_token(token);
  std::atomic<int> chunks{0};
  pool.parallel_for(100, [&](Range, int) { chunks.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(chunks.load(std::memory_order_relaxed), 0);
  pool.set_cancel_token(core::CancelToken{});
}

TEST(ThreadPool, HoldEndsOnEveryExitPath) {
  ThreadPool pool(3);
  {
    const ThreadPool::Hold hold(pool);
    pool.run_on_all([](int) {});
  }
  try {
    const ThreadPool::Hold hold(pool);
    pool.run_on_all([](int w) {
      if (w == 1) throw std::runtime_error("held job failure");
    });
  } catch (const std::runtime_error&) {
  }
  // A hold that outlived either scope would make the next one throw.
  {
    const ThreadPool::Hold hold(pool);
    EXPECT_THROW(ThreadPool::Hold second(pool), std::logic_error);
  }
  EXPECT_NO_THROW(ThreadPool::Hold again(pool));
}

TEST(ThreadPool, HeldPoolCompletesThroughAWorkerStall) {
  struct DisarmAll {
    ~DisarmAll() { failpoint::disarm_all(); }
  } disarm;
  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.stall_ms = 10;  // far past the spin bound: the caller's join parks
  failpoint::arm("runtime.worker_stall", stall);
  ThreadPool pool(4);
  const ThreadPool::Hold hold(pool);
  for (int job = 0; job < 5; ++job) {
    std::atomic<int> visits{0};
    pool.run_on_all([&](int) { visits.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(visits.load(std::memory_order_relaxed), 4) << "job " << job;
  }
  EXPECT_EQ(failpoint::hit_count("runtime.worker_stall"), 5u * 4u);
}

TEST(ThreadPool, HeldPoolOnOneCpuDoesNotStarveTheCaller) {
#if defined(__linux__)
  // Confine this thread to one of its CPUs; the workers inherit the mask,
  // so the caller and three spinners share one CPU.  Each spinner gives it
  // up within kHoldSpinNs (or at the scheduler's next tick), so 1,000 short
  // jobs take about 0.8 s on a 4-vCPU VM, in plain and TSan builds alike;
  // the bound only catches a spin that never yields.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  struct Restore {
    cpu_set_t* mask;
    ~Restore() { (void)sched_setaffinity(0, sizeof *mask, mask); }
  } restore{&saved};

  ThreadPool pool(4);
  std::atomic<int> visits{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    const ThreadPool::Hold hold(pool);
    for (int job = 0; job < 1000; ++job) {
      pool.run_on_all([&](int) { visits.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(visits.load(std::memory_order_relaxed), 4000);
  EXPECT_LT(seconds, 20.0);
#else
  GTEST_SKIP() << "needs sched_setaffinity";
#endif
}

TEST(MeasureChunkCosts, CountsAndPositivity) {
  std::atomic<std::int64_t> work{0};
  auto costs = measure_chunk_costs(8, [&](Range r) {
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      volatile double x = 0;
      for (int j = 0; j < 1000; ++j) x = x + j;
      work.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(costs.size(), 8u);
  for (double c : costs) EXPECT_GT(c, 0.0);
}

TEST(Timer, MonotoneAndResettable) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double a = t.elapsed_seconds();
  EXPECT_GT(a, 0.0);
  t.reset();
  EXPECT_LE(t.elapsed_seconds(), a + 1.0);
}

TEST(MeasureBestSeconds, ReturnsPositiveTime) {
  const double s = measure_best_seconds(
      [] {
        volatile double x = 0;
        for (int i = 0; i < 10000; ++i) x = x + i;
      },
      3, 0.001);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

}  // namespace
}  // namespace bitflow::runtime
