// serve::Engine: the concurrent serving subsystem.
//
// Covers the acceptance criteria of the serving-engine tentpole:
//   * bit-exactness: every batched result equals the network's own batch-1
//     answer for the same input, whatever micro-batch the scheduler
//     happened to form;
//   * concurrency: many caller threads submitting against a multi-worker
//     engine (this binary runs under TSan in CI);
//   * batching: a lone request runs at once instead of waiting for company,
//     and a burst queued behind a busy worker runs as one full batch;
//   * backpressure: a full admission queue rejects with kResourceExhausted
//     while admitted requests still complete;
//   * deadlines: a request expiring while queued fails with
//     kDeadlineExceeded without consuming a batch slot;
//   * fault injection: serve.queue_admit and serve.infer faults map to the
//     documented Status codes, poison only the targeted request, and leave
//     the engine servable;
//   * config validation: a bad EngineConfig is kBadInput from create(),
//     never a throw on a worker thread;
//   * shutdown: every admitted future resolves (no broken_promise), and
//     post-shutdown submits are rejected.
//
// Determinism notes: tests that need a wedged worker use the kStall
// failpoint action rather than sleeps in test code, and assertions are on
// ordering guarantees (FIFO queue, max_batch=1) rather than timing.  The
// one timing bound, LoneInferDoesNotWaitForCompany's, is on a median and
// sits far from both sides: a hand-off costs tens of microseconds, and a
// batching window would add its whole length to every lone request.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/check.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "tensor/util.hpp"

namespace bitflow::serve {
namespace {

using namespace std::chrono_literals;
using core::ErrorCode;
using failpoint::Action;
using failpoint::Config;
using failpoint::Trigger;

/// Same miniature conv->pool->fc model the fault-injection matrix uses.
io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(8, 8, 8);
  fill_uniform(t, seed);
  return t;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    model_ = make_model();
    // Single-stream reference answers straight from the network
    // (independent of serve and of the engine's batching path).
    graph::NetworkConfig nc;
    nc.num_threads = 2;
    ref_net_ = model_.instantiate(nc);
  }

  void TearDown() override { failpoint::disarm_all(); }

  std::vector<float> reference_scores(const Tensor& input) {
    const std::span<const float> s = ref_net_.infer(input);
    return {s.begin(), s.end()};
  }

  Engine make_engine(EngineConfig cfg) {
    auto r = Engine::create(model_, cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r.value());
  }

  io::Model model_{graph::TensorDesc{8, 8, 8}};
  graph::BinaryNetwork ref_net_;
};

// --- construction -----------------------------------------------------------

TEST_F(EngineTest, CreateValidatesConfig) {
  EngineConfig cfg;
  cfg.workers = 0;
  EXPECT_EQ(Engine::create(model_, cfg).status().code(), ErrorCode::kBadInput);
  cfg = {};
  cfg.max_batch = 0;
  EXPECT_EQ(Engine::create(model_, cfg).status().code(), ErrorCode::kBadInput);
  cfg = {};
  cfg.queue_capacity = 0;
  EXPECT_EQ(Engine::create(model_, cfg).status().code(), ErrorCode::kBadInput);
  cfg = {};
  cfg.net.num_threads = 0;
  EXPECT_EQ(Engine::create(model_, cfg).status().code(), ErrorCode::kBadInput);
}

TEST_F(EngineTest, CreateRejectsNegativeBatchTimeout) {
  // A negative coalescing window is a config error: create() reports it
  // instead of starting workers that cannot batch.
  EngineConfig cfg;
  cfg.batch_timeout = -1us;
  EXPECT_EQ(Engine::create(model_, cfg).status().code(), ErrorCode::kBadInput);
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg);
  const Tensor input = make_input(3);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), reference_scores(input));
}

TEST_F(EngineTest, OpenRejectsMissingFile) {
  const auto r = Engine::open("/nonexistent/does_not_exist.bflow");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidModel);
}

TEST_F(EngineTest, IntrospectionReflectsModelAndConfig) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  Engine engine = make_engine(cfg);
  EXPECT_EQ(engine.workers(), 2);
  EXPECT_EQ(engine.max_batch(), 4);
  EXPECT_EQ(engine.output_size(), 10);
  EXPECT_EQ(engine.input_desc(), (graph::TensorDesc{8, 8, 8}));
  EXPECT_EQ(engine.network()->layers().size(), 3u);
}

// --- bit-exactness ----------------------------------------------------------

TEST_F(EngineTest, BlockingInferMatchesSessionBitExactly) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  Engine engine = make_engine(cfg);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Tensor input = make_input(seed);
    const auto r = engine.infer(input);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), reference_scores(input)) << "seed " << seed;
  }
}

TEST_F(EngineTest, ConcurrentSubmittersGetBitExactScores) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 8;
  cfg.batch_timeout = 1ms;
  cfg.queue_capacity = 256;
  Engine engine = make_engine(cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::vector<float>> refs(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    refs[static_cast<std::size_t>(i)] = reference_scores(make_input(100 + i));
  }

  std::vector<std::future<core::Result<std::vector<float>>>> futures(kThreads * kPerThread);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        futures[static_cast<std::size_t>(id)] =
            engine.submit(make_input(100 + static_cast<std::uint64_t>(id)));
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (int i = 0; i < kThreads * kPerThread; ++i) {
    auto r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.is_ok()) << "request " << i << ": " << r.status().to_string();
    EXPECT_EQ(r.value(), refs[static_cast<std::size_t>(i)]) << "request " << i;
  }

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.batches, 1u);
  // The batch-size histogram accounts for every batch and every request.
  std::uint64_t hist_batches = 0, hist_requests = 0;
  ASSERT_EQ(s.batch_size_hist.size(), static_cast<std::size_t>(cfg.max_batch) + 1);
  for (std::size_t n = 0; n < s.batch_size_hist.size(); ++n) {
    hist_batches += s.batch_size_hist[n];
    hist_requests += s.batch_size_hist[n] * n;
  }
  EXPECT_EQ(hist_batches, s.batches);
  EXPECT_EQ(hist_requests, s.completed);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_GT(s.latency_p50_ms, 0.0);
}

TEST_F(EngineTest, EngineIsMovable) {
  EngineConfig cfg;
  cfg.workers = 2;
  Engine a = make_engine(cfg);
  const Tensor input = make_input(42);
  const std::vector<float> want = reference_scores(input);
  Engine b = std::move(a);
  auto r = b.infer(input);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), want);
}

// --- batching ---------------------------------------------------------------

TEST_F(EngineTest, LoneInferDoesNotWaitForCompany) {
  // The default batching window is zero: a worker runs what is queued and
  // never holds a lone request back in the hope of a batch, so a blocking
  // infer costs its service time plus a thread hand-off.
  Engine engine = make_engine({});
  const Tensor input = make_input(4);
  const std::vector<float> want = reference_scores(input);
  ASSERT_TRUE(engine.infer(input).is_ok());  // warm-up: context build, first touch
  std::vector<double> wait_ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = engine.infer(input);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), want);
    wait_ms.push_back(wall_ms - engine.stats().ewma_service_ms);
  }
  const auto median = wait_ms.begin() + static_cast<std::ptrdiff_t>(wait_ms.size() / 2);
  std::nth_element(wait_ms.begin(), median, wait_ms.end());
  EXPECT_LT(*median, 1.0) << "median ms of wall latency beyond service time";
}

TEST_F(EngineTest, BurstQueuedBehindABusyWorkerRunsAsOneBatch) {
  // Requests that arrive while the only worker is busy are all queued when
  // it comes back, so they run as one fused batch with no timer.
  failpoint::arm("serve.infer", Config{Action::kStall, Trigger::kOnce, 1, /*stall_ms=*/200});
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  Engine engine = make_engine(cfg);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(make_input(20 + static_cast<std::uint64_t>(i)));
  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  futures.push_back(engine.submit(inputs[0]));
  // The hit is counted before the stall sleeps: the worker now holds a
  // batch of one and stays busy for the stall.
  while (failpoint::hit_count("serve.infer") == 0) std::this_thread::sleep_for(1ms);
  for (std::size_t i = 1; i < inputs.size(); ++i) futures.push_back(engine.submit(inputs[i]));

  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.is_ok()) << "request " << i << ": " << r.status().to_string();
    EXPECT_EQ(r.value(), reference_scores(inputs[i])) << "request " << i;
  }
  const EngineStats s = engine.stats();
  ASSERT_EQ(s.batch_size_hist.size(), 5u);
  EXPECT_EQ(s.batch_size_hist[1], 1u);
  EXPECT_EQ(s.batch_size_hist[4], 1u);
  EXPECT_EQ(s.batches, 2u);
}

// --- admission control ------------------------------------------------------

#if BITFLOW_CHECKS_ENABLED
TEST_F(EngineTest, EmptyCompletionCallbackIsAContractViolation) {
  // Re-exec rather than fork: the fixture and the engine already run threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Engine engine = make_engine({});
  EXPECT_DEATH(engine.submit(make_input(1), 0ms, Priority::kNormal, ResponseCallback{}),
               "completion callback is empty");
}
#endif

TEST_F(EngineTest, ShapeMismatchIsRejectedWithoutConsumingQueueCapacity) {
  Engine engine = make_engine({});
  auto r = engine.submit(Tensor::hwc(4, 4, 8)).get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBadInput);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.accepted, 0u);
}

TEST_F(EngineTest, BackpressureOverflowRejectsWithResourceExhausted) {
  // Wedge the single worker on its first batch so the queue fills up:
  // kStall parks the worker inside serve.infer without failing the request.
  failpoint::arm("serve.infer", Config{Action::kStall, Trigger::kOnce, 1, /*stall_ms=*/300});

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg);

  // First request: popped by the worker, which then stalls.  FIFO order and
  // max_batch=1 guarantee none of the later submissions can be serviced
  // until the stall ends.
  auto wedged = engine.submit(make_input(1));
  // Give the worker time to pop it; until it does, the queue holds one more
  // item, which only makes overflow happen one submission earlier.
  std::this_thread::sleep_for(20ms);

  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(engine.submit(make_input(2 + i)));

  int rejected = 0, ok = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.is_ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
      EXPECT_NE(r.status().message().find("queue full"), std::string::npos);
      ++rejected;
    }
  }
  // Capacity 2 (+ at most 1 in the worker's hands) out of 6 rapid submits.
  EXPECT_GE(rejected, 3);
  EXPECT_GE(ok, 2);
  ASSERT_TRUE(wedged.get().is_ok());

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok + 1));

  // Backpressure is transient: once drained, the engine serves again.
  const Tensor input = make_input(77);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), reference_scores(input));
}

TEST_F(EngineTest, DeadlineExpiresWhileQueuedBehindStalledWorker) {
  failpoint::arm("serve.infer", Config{Action::kStall, Trigger::kOnce, 1, /*stall_ms=*/150});

  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg);

  auto wedged = engine.submit(make_input(1));  // worker stalls 150 ms on this
  std::this_thread::sleep_for(20ms);
  // Queued behind the stall with a 1 ms budget: by the time the worker pops
  // it the deadline has lapsed, so it must fail without being inferred.
  auto doomed = engine.submit(make_input(2), 1ms);

  auto r = doomed.get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  ASSERT_TRUE(wedged.get().is_ok());

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 1u);

  // A request with a generous deadline on the recovered engine succeeds.
  auto r2 = engine.submit(make_input(3), 10'000ms).get();
  ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();
}

// --- fault injection --------------------------------------------------------

TEST_F(EngineTest, QueueAdmitFaultRejectsWithResourceExhaustedAndEngineRecovers) {
  Engine engine = make_engine({});
  failpoint::arm("serve.queue_admit", Config{Action::kError, Trigger::kOnce, 1});

  auto r = engine.infer(make_input(1));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().rejected, 1u);

  // The failpoint auto-disarmed; the very next request is served bit-exactly.
  const Tensor input = make_input(2);
  auto r2 = engine.infer(input);
  ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();
  EXPECT_EQ(r2.value(), reference_scores(input));
}

TEST_F(EngineTest, WorkerFaultPoisonsExactlyOneRequestAndEngineSurvives) {
  // Three requests queue behind the only worker while it stalls on a first
  // one, so they run as one fused batch of three.  count(2) is armed before
  // the stall ends: hit 1 fails the fused batch attempt, hit 2 fails the
  // firewall's first single-request rerun.  Exactly one request fails with
  // the mapped Status; everyone else gets scores.
  failpoint::arm("serve.infer", Config{Action::kStall, Trigger::kOnce, 1, /*stall_ms=*/200});
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  Engine engine = make_engine(cfg);

  const Tensor first = make_input(9);
  auto wedged = engine.submit(first);
  while (failpoint::hit_count("serve.infer") == 0) std::this_thread::sleep_for(1ms);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(make_input(10 + i));
  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  for (const Tensor& t : inputs) futures.push_back(engine.submit(t));
  failpoint::arm("serve.infer", Config{Action::kError, Trigger::kCounted, 2});

  auto w = wedged.get();
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  EXPECT_EQ(w.value(), reference_scores(first));
  int failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    if (r.is_ok()) {
      EXPECT_EQ(r.value(), reference_scores(inputs[i])) << "request " << i;
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kInternal) << r.status().to_string();
      ++failed;
    }
  }
  EXPECT_EQ(failed, 1);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 3u);
  ASSERT_EQ(s.batch_size_hist.size(), 5u);
  EXPECT_EQ(s.batch_size_hist[1], 1u);
  EXPECT_EQ(s.batch_size_hist[3], 1u);

  // The worker survived its exception firewall and keeps serving.
  const Tensor input = make_input(99);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), reference_scores(input));
}

TEST_F(EngineTest, AlwaysOnWorkerFaultFailsEveryRequestUntilDisarmed) {
  EngineConfig cfg;
  cfg.workers = 2;
  Engine engine = make_engine(cfg);
  failpoint::arm("serve.infer", Config{Action::kError, Trigger::kAlways, 1});

  for (int i = 0; i < 4; ++i) {
    auto r = engine.infer(make_input(static_cast<std::uint64_t>(i)));
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  }
  failpoint::disarm_all();

  const Tensor input = make_input(5);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), reference_scores(input));

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.failed, 4u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.expired);
}

TEST_F(EngineTest, SingleBadAllocIsAbsorbedByTheFirewallRerun) {
  // A once-only allocation failure poisons the fused batch attempt, but the
  // firewall's single-request rerun succeeds — the caller never sees it.
  Engine engine = make_engine({});
  failpoint::arm("serve.infer", Config{Action::kBadAlloc, Trigger::kOnce, 1});
  const Tensor input = make_input(1);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), reference_scores(input));
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(EngineTest, PersistentBadAllocMapsToResourceExhausted) {
  // count(2) survives the rerun too: the request fails with the bad_alloc
  // mapping and the engine recovers afterwards.
  Engine engine = make_engine({});
  failpoint::arm("serve.infer", Config{Action::kBadAlloc, Trigger::kCounted, 2});
  auto r = engine.infer(make_input(1));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(engine.infer(make_input(2)).is_ok());
}

// --- shutdown ---------------------------------------------------------------

TEST_F(EngineTest, ShutdownDrainsEveryAdmittedRequest) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  Engine engine = make_engine(cfg);

  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.submit(make_input(static_cast<std::uint64_t>(i))));
  }
  engine.shutdown();  // returns only after workers drained and joined

  for (std::size_t i = 0; i < futures.size(); ++i) {
    // Every admitted promise resolved — get() must not throw broken_promise.
    auto r = futures[i].get();
    ASSERT_TRUE(r.is_ok()) << "request " << i << ": " << r.status().to_string();
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.completed, 20u);
  EXPECT_EQ(s.queue_depth, 0u);

  // Post-shutdown submissions are rejected, not hung.
  auto r = engine.submit(make_input(1)).get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("shut down"), std::string::npos);

  engine.shutdown();  // idempotent
}

}  // namespace
}  // namespace bitflow::serve
