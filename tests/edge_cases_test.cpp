// Degenerate and boundary geometries: the shapes that break engines in the
// field — single-pixel tensors, kernels covering the whole input, strides
// wider than kernels, single-bit channels, single-output layers, ISA caps.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/network.hpp"
#include "kernels/binary_maxpool.hpp"
#include "models/vgg.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow {
namespace {

TEST(EdgeCases, OnePixelConvOneFilter) {
  PackedTensor in(1, 1, 64);
  PackedFilterBank f(1, 1, 1, 64);
  fill_random_bits(in, 1);
  fill_random_bits(f, 2);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(1, 1, 1);
  testing::EngineLayer().conv_dot(in, f, kernels::ConvSpec{1, 1, 1}, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, f, kernels::ConvSpec{1, 1, 1});
  EXPECT_EQ(out.at(0, 0, 0), ref.at(0, 0, 0));
}

TEST(EdgeCases, KernelCoversWholeInput) {
  PackedTensor in(5, 5, 70);
  PackedFilterBank f(3, 5, 5, 70);
  fill_random_bits(in, 3);
  fill_random_bits(f, 4);
  runtime::ThreadPool pool(2);
  Tensor out = Tensor::hwc(1, 1, 3);
  testing::EngineLayer().conv_dot(in, f, kernels::ConvSpec{5, 5, 1}, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, f, kernels::ConvSpec{5, 5, 1});
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(EdgeCases, StrideWiderThanKernel) {
  PackedTensor in(10, 10, 64);
  PackedFilterBank f(2, 2, 2, 64);
  fill_random_bits(in, 5);
  fill_random_bits(f, 6);
  runtime::ThreadPool pool(1);
  const kernels::ConvSpec spec{2, 2, 4};  // skips pixels entirely
  Tensor out = Tensor::hwc(3, 3, 2);
  testing::EngineLayer().conv_dot(in, f, spec, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, f, spec);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(EdgeCases, SingleChannelEverything) {
  // C = 1: one bit per pixel, 63 zero tail bits everywhere.
  PackedTensor in(6, 6, 1);
  PackedFilterBank f(4, 3, 3, 1);
  fill_random_bits(in, 7);
  fill_random_bits(f, 8);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(4, 4, 4);
  testing::EngineLayer().conv_dot(in, f, kernels::ConvSpec{3, 3, 1}, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, f, kernels::ConvSpec{3, 3, 1});
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
  // Dots range over [-9, 9] with parity of 9.
  for (float v : out.elements()) {
    EXPECT_LE(std::abs(v), 9.0f);
    EXPECT_EQ((static_cast<int>(v) - 9) % 2, 0);
  }
}

TEST(EdgeCases, OneByOneFc) {
  PackedMatrix a(1, 1), w(1, 1);
  a.set_bit(0, 0, true);
  w.set_bit(0, 0, false);
  runtime::ThreadPool pool(1);
  float y = 0;
  testing::EngineLayer().bgemm(a, w, pool, &y);
  EXPECT_EQ(y, -1.0f);  // +1 * -1
}

TEST(EdgeCases, PoolWindowCoversInput) {
  PackedTensor in(4, 4, 96);
  fill_random_bits(in, 9);
  runtime::ThreadPool pool(1);
  PackedTensor out(1, 1, 96);
  kernels::binary_maxpool(in, kernels::PoolSpec{4, 4, 4}, pool, out, 0);
  const Tensor ref = testing::reference_binary_maxpool(in, kernels::PoolSpec{4, 4, 4});
  EXPECT_EQ(max_abs_diff(bitpack::unpack_to_signs(out), ref), 0.0f);
}

TEST(EdgeCases, NetworkMaxIsaCapIsHonored) {
  graph::NetworkConfig cfg;
  cfg.max_isa = simd::IsaLevel::kSse;
  graph::BinaryNetwork net(cfg);
  net.add_conv("c", models::random_filters(8, 3, 3, 512, 1), 1, 1);  // would pick AVX-512
  net.add_fc("f", models::random_fc_weights(8 * 8 * 8, 4, 2), 8 * 8 * 8, 4);
  net.finalize(graph::TensorDesc{8, 8, 512});
  for (const auto& l : net.layers()) {
    EXPECT_LE(static_cast<int>(l.isa), static_cast<int>(simd::IsaLevel::kSse)) << l.name;
  }
  // And the capped network still computes the same scores.
  graph::BinaryNetwork uncapped{graph::NetworkConfig{}};
  uncapped.add_conv("c", models::random_filters(8, 3, 3, 512, 1), 1, 1);
  uncapped.add_fc("f", models::random_fc_weights(8 * 8 * 8, 4, 2), 8 * 8 * 8, 4);
  uncapped.finalize(graph::TensorDesc{8, 8, 512});
  Tensor img = Tensor::hwc(8, 8, 512);
  fill_uniform(img, 3);
  const auto sa = net.infer(img);
  const auto sb = uncapped.infer(img);
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(EdgeCases, ExtremeThresholdsSaturateBits) {
  PackedTensor in(4, 4, 64);
  PackedFilterBank f(2, 3, 3, 64);
  fill_random_bits(in, 11);
  fill_random_bits(f, 12);
  runtime::ThreadPool pool(1);
  const std::vector<std::int64_t> always =
      graph::popcount_limits(f.bits_per_filter(), {-1e30f, -1e30f}, 2);
  const std::vector<std::int64_t> never =
      graph::popcount_limits(f.bits_per_filter(), {1e30f, 1e30f}, 2);
  const testing::EngineLayer layer;  // K = 2: one tile, the rest pad lanes
  PackedTensor out(2, 2, 2);
  layer.conv_binarize(in, f, kernels::ConvSpec{3, 3, 1}, always.data(), pool, out, 0);
  for (std::int64_t h = 0; h < 2; ++h)
    for (std::int64_t w = 0; w < 2; ++w)
      for (std::int64_t c = 0; c < 2; ++c) EXPECT_TRUE(out.get_bit(h, w, c));
  layer.conv_binarize(in, f, kernels::ConvSpec{3, 3, 1}, never.data(), pool, out, 0);
  for (std::int64_t h = 0; h < 2; ++h)
    for (std::int64_t w = 0; w < 2; ++w)
      for (std::int64_t c = 0; c < 2; ++c) EXPECT_FALSE(out.get_bit(h, w, c));
}

TEST(EdgeCases, DeepPoolChainToOnePixel) {
  // 16 -> 8 -> 4 -> 2 -> 1 spatially; engine must survive 1x1 activations.
  graph::BinaryNetwork net{graph::NetworkConfig{}};
  net.add_conv("c", models::random_filters(64, 3, 3, 8, 1), 1, 1);
  for (int i = 0; i < 4; ++i) {
    net.add_maxpool("p" + std::to_string(i), kernels::PoolSpec{2, 2, 2});
  }
  net.add_fc("f", models::random_fc_weights(64, 4, 2), 64, 4);
  net.finalize(graph::TensorDesc{16, 16, 8});
  Tensor img = Tensor::hwc(16, 16, 8);
  fill_uniform(img, 4);
  const auto s = net.infer(img);
  EXPECT_EQ(s.size(), 4u);
  for (float v : s) EXPECT_LE(std::abs(v), 64.0f);
}

TEST(EdgeCases, NonSquareEverything) {
  PackedTensor in(3, 11, 100);
  PackedFilterBank f(5, 3, 5, 100);  // non-square kernel
  fill_random_bits(in, 13);
  fill_random_bits(f, 14);
  runtime::ThreadPool pool(3);
  const kernels::ConvSpec spec{3, 5, 2};
  Tensor out = Tensor::hwc(1, 4, 5);
  testing::EngineLayer().conv_dot(in, f, spec, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, f, spec);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

}  // namespace
}  // namespace bitflow
