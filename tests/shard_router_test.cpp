// serve::ShardRouter: sharded routing over one shared network.
//
// Pins the tentpole's router guarantees:
//   * zero-copy weight sharing: every shard's served network is the SAME
//     BinaryNetwork object (pointer equality);
//   * power-of-two-choices balance: with shards wedged open (stalled
//     workers), routed load keeps the max/min outstanding gap bounded far
//     below what a pathological single-shard pile-up would show;
//   * bit-exactness through routing: whatever shard a request lands on, the
//     scores equal the direct infer_batch answer;
//   * drain fan-out: a drain under load resolves EVERY admitted future (no
//     broken_promise, no hang);
//   * lifecycle gates: Draining/Drained reject new work with kUnavailable.
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/shard_router.hpp"
#include "tensor/util.hpp"

namespace bitflow::serve {
namespace {

using namespace std::chrono_literals;
using core::ErrorCode;

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

RouterConfig small_config(int shards) {
  RouterConfig cfg;
  cfg.shards = shards;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 4;
  cfg.engine.net.num_threads = 1;
  cfg.engine.queue_capacity = 256;
  cfg.engine.adaptive_shedding = false;  // determinism: no load-based refusals
  return cfg;
}

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  io::Model model_ = make_model();
};

// --- construction and zero-copy ---------------------------------------------

TEST_F(ShardRouterTest, RejectsBadConfig) {
  auto r = ShardRouter::create(model_, [] {
    RouterConfig c;
    c.shards = 0;
    return c;
  }());
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBadInput);

  auto null_net = ShardRouter::create(nullptr, RouterConfig{});
  ASSERT_FALSE(null_net.is_ok());
  EXPECT_EQ(null_net.status().code(), ErrorCode::kBadInput);
}

TEST_F(ShardRouterTest, ShardsShareOneNetworkZeroCopy) {
  auto net = std::make_shared<const graph::BinaryNetwork>(
      model_.instantiate(graph::NetworkConfig{}));
  auto r = ShardRouter::create(net, small_config(3));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ShardRouter router = std::move(r.value());

  // The caller's pointer IS the served network, on every shard.
  EXPECT_EQ(router.network().get(), net.get());
  for (int s = 0; s < router.shards(); ++s) {
    EXPECT_EQ(router.shard(s).network().get(), net.get()) << "shard " << s;
  }
}

// --- routing ----------------------------------------------------------------

TEST_F(ShardRouterTest, RoutedScoresAreBitExact) {
  auto r = ShardRouter::create(model_, small_config(2));
  ASSERT_TRUE(r.is_ok());
  ShardRouter router = std::move(r.value());

  graph::InferenceContext ctx = router.network()->make_context(1);
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Tensor in = make_input(seed);
    const Tensor* batch[] = {&in};
    const auto direct = router.network()->infer_batch(batch, ctx);
    const std::vector<float> want(direct.begin(), direct.end());

    auto got = router.infer(make_input(seed));
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), want) << "seed " << seed;
  }
}

TEST_F(ShardRouterTest, PowerOfTwoChoicesBoundsDepthImbalance) {
  // Wedge every worker with a stall so routed requests pile up in the
  // queues; the two-probe rule must keep the pile heights close.  With
  // single-random placement the expected max/min gap over 192 balls in 4
  // bins is large (~2x); p2c keeps it within a small additive band.
  RouterConfig cfg = small_config(4);
  cfg.engine.max_batch = 1;
  auto r = ShardRouter::create(model_, cfg);
  ASSERT_TRUE(r.is_ok());
  ShardRouter router = std::move(r.value());

  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.trigger = failpoint::Trigger::kAlways;
  stall.stall_ms = 50;
  failpoint::arm("runtime.worker_stall", stall);

  constexpr int kRequests = 192;
  std::vector<std::future<core::Result<std::vector<float>>>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(router.submit(make_input(static_cast<std::uint64_t>(i)), 0ms,
                                 Priority::kNormal));
  }
  // Sample the imbalance while the backlog exists (workers are stalled, so
  // nearly everything is still outstanding).
  const RouterStats stats = router.stats();
  std::size_t min_depth = SIZE_MAX, max_depth = 0, total = 0;
  for (const RouterShardStats& s : stats.shards) {
    min_depth = std::min(min_depth, s.outstanding);
    max_depth = std::max(max_depth, s.outstanding);
    total += s.outstanding;
  }
  EXPECT_GE(total, static_cast<std::size_t>(kRequests) - 4);  // few may finish
  // Two-choice placement keeps the gap O(log log n); 12 is a generous
  // deterministic band for 192 requests over 4 shards (mean 48/shard), and
  // any single-shard pile-up would blow straight through it.
  EXPECT_LE(max_depth - min_depth, 12u)
      << "max " << max_depth << " min " << min_depth;

  failpoint::disarm_all();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().is_ok());  // stall only delays; all complete
  }
}

// --- drain / lifecycle -------------------------------------------------------

TEST_F(ShardRouterTest, DrainUnderLoadResolvesEveryAdmittedFuture) {
  RouterConfig cfg = small_config(2);
  cfg.engine.max_batch = 2;
  auto r = ShardRouter::create(model_, cfg);
  ASSERT_TRUE(r.is_ok());
  ShardRouter router = std::move(r.value());

  // Slow the workers so the drain starts with a real backlog.
  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.trigger = failpoint::Trigger::kAlways;
  stall.stall_ms = 5;
  failpoint::arm("runtime.worker_stall", stall);

  std::vector<std::future<core::Result<std::vector<float>>>> futs;
  for (int i = 0; i < 96; ++i) {
    futs.push_back(router.submit(make_input(static_cast<std::uint64_t>(i)), 0ms,
                                 Priority::kNormal));
  }
  // Short timeout: the drain escalates and cancels the backlog.
  const core::Status st = router.drain(20ms);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(router.state(), EngineState::kDrained);

  int completed = 0, cancelled = 0, expired = 0;
  for (auto& f : futs) {
    const auto outcome = f.get();  // must NOT hang or throw broken_promise
    if (outcome.is_ok()) {
      ++completed;
    } else if (outcome.status().code() == ErrorCode::kCancelled) {
      ++cancelled;
    } else if (outcome.status().code() == ErrorCode::kDeadlineExceeded) {
      ++expired;
    } else {
      ADD_FAILURE() << "unexpected outcome: " << outcome.status().to_string();
    }
  }
  EXPECT_EQ(completed + cancelled + expired, 96);

  // Drained tier refuses new work at the router gate.
  auto rejected = router.submit(make_input(1), 0ms, Priority::kNormal);
  const auto outcome = rejected.get();
  ASSERT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.status().code(), ErrorCode::kUnavailable);

  // Idempotent.
  EXPECT_TRUE(router.drain(20ms).is_ok());
}

TEST_F(ShardRouterTest, CallbackSubmitResolvesInlineOnRejection) {
  auto r = ShardRouter::create(model_, small_config(1));
  ASSERT_TRUE(r.is_ok());
  ShardRouter router = std::move(r.value());
  ASSERT_TRUE(router.drain(0ms).is_ok());

  bool invoked = false;
  router.submit(make_input(0), 0ms, Priority::kNormal,
                [&invoked](core::Result<std::vector<float>>&& outcome) {
                  invoked = true;
                  ASSERT_FALSE(outcome.is_ok());
                  EXPECT_EQ(outcome.status().code(), ErrorCode::kUnavailable);
                });
  EXPECT_TRUE(invoked);  // rejection resolves on the calling thread
}

}  // namespace
}  // namespace bitflow::serve
