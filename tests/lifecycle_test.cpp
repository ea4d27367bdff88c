// Request-lifecycle hardening: deadline propagation with cooperative
// cancellation, adaptive load shedding, priority lanes, circuit-breaker
// quarantine, and graceful drain.
//
// Covers the lifecycle acceptance criteria:
//   * drain() completes in-flight work, refuses new submits (kUnavailable),
//     and past its timeout cancels the remainder — every admitted future
//     still resolves;
//   * a mid-inference deadline aborts at the next layer-boundary checkpoint
//     (kDeadlineExceeded) instead of running the network to completion;
//   * adaptive shedding rejects doomed normal-priority requests at admission
//     while high-priority traffic bypasses it;
//   * repeated kWorkerFailure batches trip the worker circuit breaker
//     (quarantine + re-probe), and the engine reports degraded quorum.
//
// Determinism notes: wedged workers come from the kStall failpoint action;
// the shed test seeds the service-time EWMA with a stalled batch so the
// admission estimate is provably above the probe's budget.
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/cancel.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "serve/request_queue.hpp"
#include "tensor/util.hpp"

namespace bitflow::serve {
namespace {

using namespace std::chrono_literals;
using core::ErrorCode;
using failpoint::Action;
using failpoint::Config;
using failpoint::Trigger;

/// Same miniature conv->pool->fc model the engine tests use.
io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 23);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(8, 8, 8);
  fill_uniform(t, seed);
  return t;
}

/// Single-stream reference scores for `input` under `model`, straight from
/// the network (independent of serve).
std::vector<float> reference_scores(const io::Model& model, const Tensor& input) {
  graph::NetworkConfig nc;
  nc.num_threads = 2;
  graph::BinaryNetwork net = model.instantiate(nc);
  const std::span<const float> s = net.infer(input);
  return {s.begin(), s.end()};
}

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  Engine make_engine(EngineConfig cfg, const io::Model& model) {
    auto r = Engine::create(model, cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r.value());
  }
};

// --- priority lanes ---------------------------------------------------------

TEST_F(LifecycleTest, QueuePopsHighLaneFirstAndBoundsLanesIndependently) {
  RequestQueue q(2);
  auto push = [&q](Priority p) {
    Request r;
    r.priority = p;
    return q.try_push(r);
  };
  EXPECT_TRUE(push(Priority::kNormal));
  EXPECT_TRUE(push(Priority::kNormal));
  EXPECT_FALSE(push(Priority::kNormal));  // normal lane full...
  EXPECT_TRUE(push(Priority::kHigh));     // ...the high lane is not
  EXPECT_TRUE(push(Priority::kHigh));
  EXPECT_FALSE(push(Priority::kHigh));
  EXPECT_EQ(q.size(), 4u);

  // Both high requests drain before any normal one.
  for (int i = 0; i < 2; ++i) {
    auto r = q.try_pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->priority, Priority::kHigh) << "pop " << i;
  }
  EXPECT_EQ(q.size(), 2u);  // the normal lane is untouched
  for (int i = 0; i < 2; ++i) {
    auto r = q.try_pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->priority, Priority::kNormal) << "pop " << i;
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST_F(LifecycleTest, HighPrioritySubmitServesBitExactly) {
  const io::Model model = make_model();
  Engine engine = make_engine({}, model);
  const Tensor input = make_input(7);
  auto r = engine.submit(input, Priority::kHigh).get();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), reference_scores(model, input));
}

// --- deadline propagation into execution ------------------------------------

TEST_F(LifecycleTest, MidInferenceDeadlineAbortsAtNextCheckpoint) {
  // The worker pops the request well before its deadline, then a stall
  // injected inside the first layer's fork/join outlives the budget: the
  // layer-boundary checkpoint after the stalled layer must abort the batch
  // with the deadline mapping — the network is NOT run to completion.
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg, model);

  Config stall;
  stall.action = Action::kStall;
  stall.trigger = Trigger::kOnce;
  stall.stall_ms = 400;  // x8 the deadline: robust under sanitizer slowdown
  failpoint::arm("runtime.worker_stall", stall);

  auto r = engine.submit(make_input(1), 50ms).get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded) << r.status().to_string();
  EXPECT_NE(r.status().message().find("mid-inference"), std::string::npos)
      << r.status().to_string();

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.cancelled, 0u);

  // The worker survived the abort; the next request is served bit-exactly.
  const Tensor input = make_input(2);
  auto r2 = engine.infer(input);
  ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();
  EXPECT_EQ(r2.value(), reference_scores(model, input));
}

TEST_F(LifecycleTest, CancelCheckpointFailpointMapsToCancelled) {
  const io::Model model = make_model();
  Engine engine = make_engine({}, model);
  failpoint::arm("serve.cancel_checkpoint", Config{Action::kSite, Trigger::kOnce, 1});
  auto r = engine.infer(make_input(1));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled) << r.status().to_string();
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_TRUE(engine.infer(make_input(2)).is_ok());
}

TEST_F(LifecycleTest, CancellationAfterTheLastStageDoesNotLeakStaleScores) {
  // The checkpoint catalog for the 3-stage test model: one before the input
  // pack, one per stage, one after the last stage = 5 sites per request.
  // Firing the 5th proves the FINAL checkpoint exists: a token that fires
  // during the last layer's parallel_for leaves the scores buffer unwritten
  // (or stale from a previous batch), so infer_batch must raise instead of
  // returning it as a normal result.
  const io::Model model = make_model();
  Engine engine = make_engine({}, model);
  failpoint::arm("serve.cancel_checkpoint", Config{Action::kSite, Trigger::kEveryNth, 5});
  auto r = engine.infer(make_input(1));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled) << r.status().to_string();
  EXPECT_EQ(engine.stats().cancelled, 1u);
  failpoint::disarm_all();
  EXPECT_TRUE(engine.infer(make_input(2)).is_ok());
}

TEST_F(LifecycleTest, CancelledTokenDoesNotOutliveInferBatch) {
  // infer_batch installs the batch token on the context's thread pool; a
  // latched cancelled token left installed after an aborted call would make
  // every parallel_for chunk of the NEXT call silently skip, returning the
  // previous batch's scores.  The clean run after the abort must be
  // bit-exact against an independent reference.
  const io::Model model = make_model();
  graph::NetworkConfig nc;
  nc.num_threads = 2;
  const graph::BinaryNetwork net = model.instantiate(nc);
  graph::InferenceContext ctx = net.make_context(1, 2);

  const Tensor a = make_input(1);
  const Tensor b = make_input(2);
  const Tensor* ap = &a;
  const Tensor* bp = &b;
  const std::span<const float> sa = net.infer_batch({&ap, 1}, ctx);
  const std::vector<float> ref_a(sa.begin(), sa.end());

  core::CancelToken token = core::CancelToken::cancellable();
  token.cancel();
  EXPECT_THROW(static_cast<void>(net.infer_batch({&bp, 1}, ctx, token)),
               core::CancelledError);

  const std::span<const float> sb = net.infer_batch({&bp, 1}, ctx);
  const std::vector<float> got_b(sb.begin(), sb.end());
  EXPECT_NE(got_b, ref_a) << "scores are stale: the pool kept the cancelled token";
  EXPECT_EQ(got_b, reference_scores(model, b));
}

// --- drain ------------------------------------------------------------------

TEST_F(LifecycleTest, DrainCompletesInFlightThenRefusesNewWork) {
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  Engine engine = make_engine(cfg, model);
  EXPECT_EQ(engine.state(), EngineState::kServing);

  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(engine.submit(make_input(static_cast<std::uint64_t>(i))));
  }
  ASSERT_TRUE(engine.drain(10'000ms).is_ok());
  EXPECT_EQ(engine.state(), EngineState::kDrained);

  // Every admitted request completed; zero were dropped or cancelled.
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  }
  EngineStats s = engine.stats();
  EXPECT_EQ(s.completed, 16u);
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.in_flight, 0u);

  // Drained is terminal for admission: submits fail fast with kUnavailable.
  auto rejected = engine.submit(make_input(99)).get();
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(engine.drain(1ms).is_ok());  // idempotent

  engine.shutdown();
}

TEST_F(LifecycleTest, DrainTimeoutCancelsWedgedWorkButEveryFutureResolves) {
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg, model);

  // Wedge the worker far past the drain budget; the requests queued behind
  // it can never start before drain() escalates.
  Config stall;
  stall.action = Action::kStall;
  stall.trigger = Trigger::kOnce;
  stall.stall_ms = 400;
  failpoint::arm("serve.infer", stall);

  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  futures.push_back(engine.submit(make_input(1)));  // wedged in the worker
  std::this_thread::sleep_for(20ms);
  for (int i = 0; i < 3; ++i) futures.push_back(engine.submit(make_input(2 + i)));

  ASSERT_TRUE(engine.drain(30ms).is_ok());  // << the 400 ms stall
  EXPECT_EQ(engine.state(), EngineState::kDrained);

  // Every future resolved: the wedged one was cancelled at its first
  // checkpoint after the stall, the queued ones were fast-failed.
  int cancelled = 0;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kCancelled) << r.status().to_string();
    ++cancelled;
  }
  EXPECT_EQ(cancelled, 4);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.cancelled, 4u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST_F(LifecycleTest, DrainEscalationFastFailsQueuedWorkFromTheDrainThread) {
  // After escalation the drain thread itself fast-fails queued requests: if
  // it waited for a worker to pop them, drain's completion would be bounded
  // by worker recovery (e.g. a worker stuck retrying a failing context
  // build never pops at all), not by one layer of inference.  Here the lone
  // worker sits in a 2 s stall; the queued requests must resolve ~30 ms
  // after drain starts, long before the worker comes back.
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg, model);

  Config stall;
  stall.action = Action::kStall;
  stall.trigger = Trigger::kOnce;
  stall.stall_ms = 2000;  // far beyond every latency assertion below
  failpoint::arm("serve.infer", stall);

  auto wedged = engine.submit(make_input(1));  // popped, then stalls 2 s
  std::this_thread::sleep_for(50ms);
  auto q1 = engine.submit(make_input(2));
  auto q2 = engine.submit(make_input(3));

  core::Status drain_status;
  std::thread drainer([&] { drain_status = engine.drain(30ms); });
  ASSERT_EQ(q1.wait_for(500ms), std::future_status::ready);
  ASSERT_EQ(q2.wait_for(500ms), std::future_status::ready);
  EXPECT_EQ(q1.get().status().code(), ErrorCode::kCancelled);
  EXPECT_EQ(q2.get().status().code(), ErrorCode::kCancelled);

  drainer.join();  // returns once the wedged batch hits its first checkpoint
  EXPECT_TRUE(drain_status.is_ok()) << drain_status.to_string();
  EXPECT_EQ(engine.state(), EngineState::kDrained);
  EXPECT_EQ(wedged.get().status().code(), ErrorCode::kCancelled);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.cancelled, 3u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST_F(LifecycleTest, DrainFailpointRefusesWithUnavailable) {
  const io::Model model = make_model();
  Engine engine = make_engine({}, model);
  failpoint::arm("serve.drain", Config{Action::kError, Trigger::kOnce, 1});
  EXPECT_EQ(engine.drain(100ms).code(), ErrorCode::kUnavailable);
  // The refused drain left the engine serving.
  EXPECT_EQ(engine.state(), EngineState::kServing);
  EXPECT_TRUE(engine.infer(make_input(1)).is_ok());
  ASSERT_TRUE(engine.drain(1000ms).is_ok());
}

// --- adaptive load shedding -------------------------------------------------

TEST_F(LifecycleTest, OverloadShedsDoomedNormalRequestsButNotHighPriority) {
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  Engine engine = make_engine(cfg, model);

  // Seed the service-time EWMA with one slow batch: the first sample SETS
  // the estimate, so after this the engine believes a request costs >=100ms.
  Config stall;
  stall.action = Action::kStall;
  stall.trigger = Trigger::kOnce;
  stall.stall_ms = 100;
  failpoint::arm("serve.infer", stall);
  ASSERT_TRUE(engine.infer(make_input(1)).is_ok());

  // Wedge the worker again and probe admission while one request is in
  // flight: estimated wait (1 x >=100ms / 1 worker) dwarfs a 5 ms budget.
  stall.stall_ms = 200;
  failpoint::arm("serve.infer", stall);
  auto wedged = engine.submit(make_input(2));
  std::this_thread::sleep_for(20ms);

  auto doomed = engine.submit(make_input(3), 5ms).get();
  ASSERT_FALSE(doomed.is_ok());
  EXPECT_EQ(doomed.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(doomed.status().message().find("shed"), std::string::npos)
      << doomed.status().to_string();

  // Same budget, high priority: admitted (bypasses adaptive shedding), and
  // since the wedge outlives the budget it expires instead of being shed.
  auto high = engine.submit(make_input(4), 5ms, Priority::kHigh).get();
  ASSERT_FALSE(high.is_ok());
  EXPECT_EQ(high.status().code(), ErrorCode::kDeadlineExceeded) << high.status().to_string();

  ASSERT_TRUE(wedged.get().is_ok());
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_GE(s.rejected, 1u);
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.expired + s.cancelled);
}

TEST_F(LifecycleTest, ShedFailpointForcesSheddingDeterministically) {
  const io::Model model = make_model();
  Engine engine = make_engine({}, model);
  failpoint::arm("serve.shed", Config{Action::kSite, Trigger::kOnce, 1});
  auto r = engine.submit(make_input(1)).get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().shed, 1u);
  EXPECT_TRUE(engine.infer(make_input(2)).is_ok());
}

// --- circuit breaker --------------------------------------------------------

TEST_F(LifecycleTest, RepeatedWorkerFailuresTripTheBreakerAndEngineRecovers) {
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout = 0us;
  cfg.breaker_threshold = 2;
  cfg.breaker_backoff = 20ms;
  Engine engine = make_engine(cfg, model);

  // Every pool dispatch fails -> every batch (and its firewall rerun) maps
  // to kWorkerFailure -> two consecutive sick batches trip the breaker.
  failpoint::arm("runtime.worker", Config{Action::kError, Trigger::kAlways, 1});
  for (int i = 0; i < 3; ++i) {
    auto r = engine.infer(make_input(static_cast<std::uint64_t>(i)));
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kWorkerFailure) << r.status().to_string();
  }
  failpoint::disarm_all();

  const EngineStats during = engine.stats();
  EXPECT_GE(during.quarantines, 1u);

  // After the backoff the worker re-probes and serves again.
  const Tensor input = make_input(50);
  auto r = engine.infer(input);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), reference_scores(model, input));
  EXPECT_FALSE(engine.stats().degraded);  // back to full quorum
}

TEST_F(LifecycleTest, QuarantineFailpointForcesATripAndDegradedReportsQuorum) {
  const io::Model model = make_model();
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.breaker_backoff = 300ms;
  Engine engine = make_engine(cfg, model);

  failpoint::arm("serve.worker_quarantine", Config{Action::kSite, Trigger::kOnce, 1});
  ASSERT_TRUE(engine.infer(make_input(1)).is_ok());  // trips after this batch

  // The lone worker is sitting out its backoff: quorum is lost.
  bool saw_degraded = false;
  for (int i = 0; i < 50 && !saw_degraded; ++i) {
    const EngineStats s = engine.stats();
    saw_degraded = s.degraded && s.quarantined_workers == 1;
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GE(engine.stats().quarantines, 1u);

  // Re-probe after backoff: serving resumes (shutdown also wakes it early,
  // so this cannot wedge even if the assertion above raced the backoff).
  ASSERT_TRUE(engine.infer(make_input(2)).is_ok());
}

}  // namespace
}  // namespace bitflow::serve
