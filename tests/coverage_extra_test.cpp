// Supplementary coverage: optimizer mechanics, layer plumbing details,
// scheduler/cap interplay, pool-terminated models, and forced-ISA fc ops.
#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "ops/operators.hpp"
#include "simd/cpu_features.hpp"
#include "tensor/util.hpp"
#include "train/layers.hpp"
#include "train/models.hpp"
#include "train/sequential.hpp"

namespace bitflow {
namespace {

TEST(TrainExtra, SgdMomentumAccumulatesVelocity) {
  // One-weight fc: after two identical steps with momentum, the second
  // update is larger (v2 = m*v1 - lr*g).
  train::Fc fc(1, 1, /*binary=*/false, 1);
  const float w0 = fc.weights()[0];
  std::vector<float> x = {1.0f};
  std::vector<float> dy = {1.0f};  // dL/dy = 1 -> dW = x*dy = 1
  fc.forward(x, 1, true);
  fc.backward(dy, 1);
  fc.step(0.1f, 0.9f);
  const float w1 = fc.weights()[0];
  EXPECT_NEAR(w0 - w1, 0.1f, 1e-6f) << "first step: lr * g";
  fc.forward(x, 1, true);
  fc.backward(dy, 1);
  fc.step(0.1f, 0.9f);
  const float w2 = fc.weights()[0];
  EXPECT_NEAR(w1 - w2, 0.19f, 1e-6f) << "second step: m*v + lr*g = 0.09 + 0.1";
}

TEST(TrainExtra, FlattenIsPureReshape) {
  train::Flatten f(train::Dims{2, 3, 4});
  EXPECT_EQ(f.out_dims(), (train::Dims{1, 1, 24}));
  std::vector<float> x(48);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const auto& y = f.forward(x, 2, true);
  EXPECT_EQ(y, x);
  const auto dx = f.backward(x, 2);
  EXPECT_EQ(dx, x);
}

TEST(TrainExtra, EvaluateEmptyDatasetIsZero) {
  data::Dataset empty;
  empty.image_size = 12;
  empty.channels = 1;
  empty.num_classes = 10;
  train::SmallVggOptions opt;
  opt.width = 8;
  opt.num_blocks = 1;
  opt.fc_width = 16;
  train::Sequential m = train::make_float_cnn(train::Dims{12, 12, 1}, 10, opt, 1);
  EXPECT_EQ(train::evaluate(m, empty), 0.0f);
}

TEST(TrainExtra, BinaryFcLatentClipping) {
  train::Fc fc(4, 2, /*binary=*/true, 3);
  std::vector<float> x = {1, -1, 1, -1};
  std::vector<float> dy = {100.0f, -100.0f};
  fc.forward(x, 1, true);
  fc.backward(dy, 1);
  fc.step(1.0f, 0.0f);  // giant step
  for (float w : fc.weights()) {
    EXPECT_GE(w, -1.0f);
    EXPECT_LE(w, 1.0f);
  }
}

TEST(SchedulerExtra, WidestPolicyRespectsMaxIsaCap) {
  // Conv and fc layers take the widest ISA the CPU has (default_kernel_plan);
  // the cap still binds every layer.
  graph::NetworkConfig cfg;
  cfg.max_isa = simd::IsaLevel::kU64;
  graph::BinaryNetwork net(cfg);
  net.add_conv("c", models::random_filters(8, 3, 3, 512, 1), 1, 1);
  net.add_fc("f", models::random_fc_weights(8 * 8 * 8, 4, 2), 8 * 8 * 8, 4);
  net.finalize(graph::TensorDesc{8, 8, 512});
  for (const auto& l : net.layers()) {
    EXPECT_EQ(l.isa, simd::IsaLevel::kU64) << l.name;
  }
}

TEST(GraphExtra, PoolTerminatedNetworkEmitsSigns) {
  graph::BinaryNetwork net{graph::NetworkConfig{}};
  net.add_conv("c", models::random_filters(8, 3, 3, 16, 1), 1, 1);
  net.add_maxpool("p", kernels::PoolSpec{2, 2, 2});
  net.finalize(graph::TensorDesc{8, 8, 16});
  Tensor img = Tensor::hwc(8, 8, 16);
  fill_uniform(img, 2);
  const auto s = net.infer(img);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(4 * 4 * 8));
  for (float v : s) EXPECT_TRUE(v == 1.0f || v == -1.0f);
}

TEST(IoExtra, ModelWithEveryLayerKindRoundTrips) {
  io::Model m(graph::TensorDesc{10, 10, 3});
  m.add_conv_float("c0", models::random_filters(16, 3, 3, 3, 1), 1, 1,
                   std::vector<float>(16, 0.0f));
  m.add_conv("c1", bitpack::pack_filters(models::random_filters(32, 3, 3, 16, 2)), 1, 1);
  m.add_maxpool("p", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(5 * 5 * 32, 6, 3);
  m.add_fc("f", bitpack::pack_transpose_fc_weights(w.data(), 5 * 5 * 32, 6));
  std::stringstream ss;
  m.save(ss);
  const io::Model loaded = io::Model::load(ss);
  graph::BinaryNetwork a = m.instantiate(graph::NetworkConfig{});
  graph::BinaryNetwork b = loaded.instantiate(graph::NetworkConfig{});
  Tensor img = Tensor::hwc(10, 10, 3);
  fill_uniform(img, 5);
  const auto sa = a.infer(img);
  const auto sb = b.infer(img);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
}

TEST(OpsExtra, BinaryFcOpForcedIsaVariantsAgree) {
  const std::int64_t n = 768, k = 17;
  const auto w = models::random_fc_weights(n, k, 9);
  std::vector<float> x(static_cast<std::size_t>(n));
  Tensor tmp(Shape{n});
  fill_uniform(tmp, 10);
  std::copy(tmp.data(), tmp.data() + n, x.begin());
  runtime::ThreadPool pool(1);
  std::vector<float> base(static_cast<std::size_t>(k));
  {
    ops::BinaryOpOptions opt;
    opt.force_isa = simd::IsaLevel::kU64;
    ops::BinaryFcOp op(w.data(), n, k, opt);
    op.run(x.data(), pool, base.data());
  }
  for (simd::IsaLevel isa :
       {simd::IsaLevel::kSse, simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    if (!simd::cpu_features().supports(isa)) continue;
    ops::BinaryOpOptions opt;
    opt.force_isa = isa;
    ops::BinaryFcOp op(w.data(), n, k, opt);
    std::vector<float> y(static_cast<std::size_t>(k));
    op.run(x.data(), pool, y.data());
    EXPECT_EQ(y, base) << simd::isa_name(isa);
  }
}

TEST(GraphExtra, ProfileDisabledLeavesNoTimes) {
  graph::BinaryNetwork net{graph::NetworkConfig{}};
  net.add_fc("f", models::random_fc_weights(64, 8, 1), 64, 8);
  net.finalize(graph::TensorDesc{1, 1, 64});
  Tensor x(Shape{64});
  fill_uniform(x, 1);
  (void)net.infer(x);
  EXPECT_TRUE(net.last_profile_ms().empty());
}

TEST(TrainExtra, TrainConfigLrDecayReducesStepSize) {
  // Indirect check through the API: two configs differing only in decay
  // produce different final weights on the same data.
  const data::Dataset ds = data::make_synth_digits(96, data::Difficulty::kEasy, 44, 12);
  train::SmallVggOptions opt;
  opt.width = 8;
  opt.num_blocks = 1;
  opt.fc_width = 16;
  auto run = [&](float decay) {
    train::Sequential m = train::make_float_cnn(train::Dims{12, 12, 1}, 10, opt, 7);
    train::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 32;
    cfg.lr = 0.05f;
    cfg.lr_decay = decay;
    return train::train_classifier(m, ds, cfg);
  };
  const float loss_fast_decay = run(0.1f);
  const float loss_no_decay = run(1.0f);
  EXPECT_NE(loss_fast_decay, loss_no_decay);
}

}  // namespace
}  // namespace bitflow
