#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "baseline/sgemm.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/cpu_features.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::baseline {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

void naive_gemm(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += double(a[i * k + kk]) * double(b[kk * n + j]);
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class SgemmParam
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(SgemmParam, GenericAndAvx2MatchNaive) {
  const auto [m, k, n] = GetParam();
  const auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  runtime::ThreadPool pool(2);

  std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
  sgemm_generic(a.data(), b.data(), c.data(), m, k, n, pool);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-3f) << "generic i=" << i;
  }
  if (simd::cpu_features().avx2 && simd::cpu_features().fma) {
    std::vector<float> c2(static_cast<std::size_t>(m * n), -1.0f);
    sgemm_avx2(a.data(), b.data(), c2.data(), m, k, n, pool);
    for (std::size_t i = 0; i < c2.size(); ++i) {
      ASSERT_NEAR(c2[i], ref[i], 1e-3f) << "avx2 i=" << i;
    }
  }
}

using Mkn = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
INSTANTIATE_TEST_SUITE_P(Sizes, SgemmParam,
                         ::testing::Values(Mkn{1, 1, 1}, Mkn{3, 5, 7}, Mkn{16, 16, 16},
                                           Mkn{17, 33, 9}, Mkn{2, 300, 40}, Mkn{65, 20, 130}),
                         [](const auto& info) {
                           return "m" + std::to_string(std::get<0>(info.param)) + "k" +
                                  std::to_string(std::get<1>(info.param)) + "n" +
                                  std::to_string(std::get<2>(info.param));
                         });

TEST(Sgemv, MatchesNaive) {
  const std::int64_t m = 37, n = 211;
  const auto a = random_vec(static_cast<std::size_t>(m * n), 3);
  const auto x = random_vec(static_cast<std::size_t>(n), 4);
  std::vector<float> y(static_cast<std::size_t>(m));
  runtime::ThreadPool pool(2);
  sgemv(a.data(), x.data(), y.data(), m, n, pool);
  for (std::int64_t i = 0; i < m; ++i) {
    double acc = 0;
    for (std::int64_t j = 0; j < n; ++j) acc += double(a[i * n + j]) * double(x[j]);
    ASSERT_NEAR(y[static_cast<std::size_t>(i)], static_cast<float>(acc), 1e-3f);
  }
}

TEST(FloatFc, MatchesNaiveTransposedLayout) {
  const std::int64_t n = 130, k = 17;
  const auto w = random_vec(static_cast<std::size_t>(n * k), 5);
  const auto x = random_vec(static_cast<std::size_t>(n), 6);
  std::vector<float> y(static_cast<std::size_t>(k));
  runtime::ThreadPool pool(3);
  float_fc(w.data(), x.data(), y.data(), n, k, pool);
  for (std::int64_t j = 0; j < k; ++j) {
    double acc = 0;
    for (std::int64_t i = 0; i < n; ++i) acc += double(w[i * k + j]) * double(x[i]);
    ASSERT_NEAR(y[static_cast<std::size_t>(j)], static_cast<float>(acc), 1e-3f);
  }
}

TEST(PadFloat, ValuesAndExtents) {
  Tensor t = Tensor::hwc(2, 2, 3);
  fill_uniform(t, 7);
  const Tensor p0 = pad_float(t, 1);
  EXPECT_EQ(p0.height(), 4);
  EXPECT_EQ(p0.at(0, 0, 0), 0.0f);
  EXPECT_EQ(p0.at(1, 1, 2), t.at(0, 0, 2));
  const Tensor pm1 = pad_float(t, 2, -1.0f);
  EXPECT_EQ(pm1.at(0, 0, 0), -1.0f);
  EXPECT_EQ(pm1.at(2, 2, 1), t.at(0, 0, 1));
  EXPECT_THROW(pad_float(t, -1), std::invalid_argument);
}

TEST(FloatConv, Im2colMatchesDirect) {
  const std::int64_t h = 9, w = 8, c = 13, k = 7;
  Tensor in = Tensor::hwc(h, w, c);
  fill_uniform(in, 11);
  FilterBank filters(k, 3, 3, c);
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : filters.elements()) v = dist(rng);
  const kernels::ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(2);

  Tensor direct = Tensor::hwc(7, 6, k);
  float_conv_direct(in, filters, spec, pool, direct);

  const auto wt = flatten_filters_transposed(filters);
  std::vector<float> scratch;
  Tensor im2 = Tensor::hwc(7, 6, k);
  float_conv_im2col(in, wt, k, spec, pool, im2, scratch);
  EXPECT_LT(max_abs_diff(direct, im2), 1e-3f);
}

TEST(FloatConv, StridedIm2col) {
  Tensor in = Tensor::hwc(11, 11, 6);
  fill_uniform(in, 21);
  FilterBank filters(4, 3, 3, 6);
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : filters.elements()) v = dist(rng);
  const kernels::ConvSpec spec{3, 3, 2};
  runtime::ThreadPool pool(1);
  Tensor direct = Tensor::hwc(5, 5, 4), im2 = Tensor::hwc(5, 5, 4);
  float_conv_direct(in, filters, spec, pool, direct);
  const auto wt = flatten_filters_transposed(filters);
  std::vector<float> scratch;
  float_conv_im2col(in, wt, 4, spec, pool, im2, scratch);
  EXPECT_LT(max_abs_diff(direct, im2), 1e-3f);
}

TEST(FloatMaxPool, MatchesManual) {
  Tensor in = Tensor::hwc(4, 4, 2);
  fill_uniform(in, 31);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(2, 2, 2);
  float_maxpool(in, kernels::PoolSpec{2, 2, 2}, pool, out);
  for (std::int64_t y = 0; y < 2; ++y) {
    for (std::int64_t x = 0; x < 2; ++x) {
      for (std::int64_t c = 0; c < 2; ++c) {
        const float expect = std::max(std::max(in.at(2 * y, 2 * x, c), in.at(2 * y, 2 * x + 1, c)),
                                      std::max(in.at(2 * y + 1, 2 * x, c),
                                               in.at(2 * y + 1, 2 * x + 1, c)));
        ASSERT_EQ(out.at(y, x, c), expect);
      }
    }
  }
}

TEST(UnoptBinaryConv, MatchesPressedConvSemantics) {
  // Same float input, same float filters: the im2col scalar engine and
  // PressedConv must produce identical Eq. 1 dots (valid conv, no padding).
  const std::int64_t h = 8, w = 8, c = 70, k = 9;
  Tensor in = Tensor::hwc(h, w, c);
  fill_uniform(in, 41);
  FilterBank filters(k, 3, 3, c);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : filters.elements()) v = dist(rng);
  runtime::ThreadPool pool(2);

  UnoptBinaryConv unopt(filters, kernels::ConvSpec{3, 3, 1});
  Tensor out_unopt = Tensor::hwc(6, 6, k);
  unopt.run(in, pool, out_unopt);

  const PackedTensor packed = bitpack::pack_activations(in);
  const PackedFilterBank pf = bitpack::pack_filters(filters);
  Tensor out_pressed = Tensor::hwc(6, 6, k);
  testing::EngineLayer().conv_dot(packed, pf, kernels::ConvSpec{3, 3, 1}, pool, out_pressed);

  EXPECT_EQ(max_abs_diff(out_unopt, out_pressed), 0.0f);
}

TEST(UnoptBinaryFc, MatchesReferenceDots) {
  const std::int64_t n = 300, k = 12;
  const auto w = random_vec(static_cast<std::size_t>(n * k), 51);
  const auto x = random_vec(static_cast<std::size_t>(n), 52);
  UnoptBinaryFc fc(w.data(), n, k);
  EXPECT_EQ(fc.inputs(), n);
  EXPECT_EQ(fc.outputs(), k);
  runtime::ThreadPool pool(2);
  std::vector<float> y(static_cast<std::size_t>(k));
  fc.run(x.data(), pool, y.data());
  const PackedMatrix xa = bitpack::pack_rows(x.data(), 1, n);
  const PackedMatrix wt = bitpack::pack_transpose_fc_weights(w.data(), n, k);
  for (std::int64_t j = 0; j < k; ++j) {
    ASSERT_EQ(static_cast<std::int64_t>(y[static_cast<std::size_t>(j)]),
              bitflow::testing::reference_binary_dot(xa, 0, wt, j));
  }
}

TEST(UnoptBinaryConv, RejectsBadShapes) {
  FilterBank filters(2, 3, 3, 8);
  UnoptBinaryConv conv(filters, kernels::ConvSpec{3, 3, 1});
  runtime::ThreadPool pool(1);
  Tensor wrong_c = Tensor::hwc(6, 6, 4);
  Tensor out = Tensor::hwc(4, 4, 2);
  EXPECT_THROW(conv.run(wrong_c, pool, out), std::invalid_argument);
  Tensor in = Tensor::hwc(6, 6, 8);
  Tensor bad_out = Tensor::hwc(3, 3, 2);
  EXPECT_THROW(conv.run(in, pool, bad_out), std::invalid_argument);
}

}  // namespace
}  // namespace bitflow::baseline
