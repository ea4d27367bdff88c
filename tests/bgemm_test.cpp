#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "graph/weights.hpp"
#include "kernels/bgemm.hpp"
#include "simd/cpu_features.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::kernels {
namespace {

using simd::IsaLevel;

class BgemmParam
    : public ::testing::TestWithParam<std::tuple<IsaLevel, std::int64_t, std::int64_t>> {};

TEST_P(BgemmParam, MatchesDecodedReference) {
  const auto [isa, n, k] = GetParam();
  if (!simd::cpu_features().supports(isa)) GTEST_SKIP();
  PackedMatrix a(1, n), w(k, n);
  fill_random_bits(a, static_cast<std::uint64_t>(n * 7));
  fill_random_bits(w, static_cast<std::uint64_t>(k * 13));
  runtime::ThreadPool pool(2);
  std::vector<float> y(static_cast<std::size_t>(k));
  testing::EngineLayer(isa).bgemm(a, w, pool, y.data());
  for (std::int64_t j = 0; j < k; ++j) {
    const std::int64_t ref = testing::reference_binary_dot(a, 0, w, j);
    ASSERT_EQ(static_cast<std::int64_t>(y[static_cast<std::size_t>(j)]), ref)
        << "isa=" << simd::isa_name(isa) << " n=" << n << " k=" << k << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    IsaBySize, BgemmParam,
    ::testing::Combine(::testing::Values(IsaLevel::kU64, IsaLevel::kSse, IsaLevel::kAvx2,
                                         IsaLevel::kAvx512),
                       ::testing::Values<std::int64_t>(64, 100, 512, 1000),   // n (bits)
                       ::testing::Values<std::int64_t>(1, 3, 4, 7, 64, 65)),  // k outputs
    [](const auto& info) {
      return std::string(simd::isa_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Bgemm, BatchedRows) {
  const std::int64_t m = 3, n = 200, k = 10;
  PackedMatrix a(m, n), w(k, n);
  fill_random_bits(a, 21);
  fill_random_bits(w, 22);
  runtime::ThreadPool pool(2);
  std::vector<float> y(static_cast<std::size_t>(m * k));
  testing::EngineLayer().bgemm(a, w, pool, y.data());
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < k; ++j) {
      ASSERT_EQ(static_cast<std::int64_t>(y[static_cast<std::size_t>(r * k + j)]),
                testing::reference_binary_dot(a, r, w, j));
    }
  }
}

TEST(Bgemm, BinarizeMatchesDotPlusThreshold) {
  const std::int64_t n = 300, k = 70;
  PackedMatrix a(1, n), w(k, n);
  fill_random_bits(a, 31);
  fill_random_bits(w, 32);
  runtime::ThreadPool pool(3);
  const testing::EngineLayer layer;
  std::vector<float> y(static_cast<std::size_t>(k));
  layer.bgemm(a, w, pool, y.data());
  std::vector<float> th(static_cast<std::size_t>(k));
  for (std::int64_t j = 0; j < k; ++j) th[static_cast<std::size_t>(j)] = static_cast<float>(j % 5) - 2.0f;
  // The kernels take each threshold as the popcount limit it lowers to.
  const std::vector<std::int64_t> limits = graph::popcount_limits(n, th, k);
  PackedMatrix out(1, k);
  layer.bgemm_binarize(a, w, limits.data(), pool, out);
  for (std::int64_t j = 0; j < k; ++j) {
    ASSERT_EQ(out.get_bit(0, j), y[static_cast<std::size_t>(j)] >= th[static_cast<std::size_t>(j)]);
  }
  // Null thresholds = sign at zero.
  PackedMatrix out0(1, k);
  layer.bgemm_binarize(a, w, nullptr, pool, out0);
  for (std::int64_t j = 0; j < k; ++j) {
    ASSERT_EQ(out0.get_bit(0, j), y[static_cast<std::size_t>(j)] >= 0.0f);
  }
  // Tail bits of the packed output row stay zero (70 outputs -> 2 words).
  EXPECT_EQ(out.row(0)[1] >> 6, 0u);
}

TEST(Bgemm, ThreadCountInvariance) {
  const std::int64_t n = 1024, k = 33;
  PackedMatrix a(1, n), w(k, n);
  fill_random_bits(a, 41);
  fill_random_bits(w, 42);
  runtime::ThreadPool p1(1), p5(5);
  std::vector<float> y1(static_cast<std::size_t>(k)), y5(static_cast<std::size_t>(k));
  const testing::EngineLayer layer;
  layer.bgemm(a, w, p1, y1.data());
  layer.bgemm(a, w, p5, y5.data());
  EXPECT_EQ(y1, y5);
}

TEST(Bgemm, RejectsMismatchedDims) {
  PackedMatrix a(1, 64), w(4, 128);
  runtime::ThreadPool pool(1);
  std::vector<float> y(4);
  const testing::EngineLayer layer;
  EXPECT_THROW(layer.bgemm(a, w, pool, y.data()), std::invalid_argument);
  PackedMatrix w_ok(4, 64), out_bad(1, 5);
  EXPECT_THROW(layer.bgemm_binarize(a, w_ok, nullptr, pool, out_bad), std::invalid_argument);
  // m_rows past A, and a bank tiled at another width than the kernel's.
  const TiledBitMatrix bank = bitpack::tile_fc_weights(w_ok, layer.tile());
  const auto fn = bgemm_kernel(layer.plan().isa, simd::cpu_features().avx512vpopcntdq);
  EXPECT_THROW(fn(a, 2, bank, pool, y.data()), std::invalid_argument);
  const TiledBitMatrix other = bitpack::tile_fc_weights(w_ok, layer.tile() == 4 ? 8 : 4);
  EXPECT_THROW(fn(a, 1, other, pool, y.data()), std::invalid_argument);
}

TEST(Bgemm, AllIsaVariantsAgree) {
  const std::int64_t n = 777, k = 19;
  PackedMatrix a(1, n), w(k, n);
  fill_random_bits(a, 51);
  fill_random_bits(w, 52);
  runtime::ThreadPool pool(1);
  std::vector<float> base(static_cast<std::size_t>(k));
  testing::EngineLayer(IsaLevel::kU64).bgemm(a, w, pool, base.data());
  for (IsaLevel isa : {IsaLevel::kSse, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!simd::cpu_features().supports(isa)) continue;
    std::vector<float> y(static_cast<std::size_t>(k));
    testing::EngineLayer(isa).bgemm(a, w, pool, y.data());
    EXPECT_EQ(y, base) << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace bitflow::kernels
