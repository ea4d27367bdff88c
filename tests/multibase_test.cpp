// Multi-base binary weight approximation: decomposition quality, exactness
// of the op against a manual composition, and convergence toward the float
// convolution as the base count grows.
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "core/failpoint.hpp"
#include "ops/multibase.hpp"
#include "ops/operators.hpp"
#include "tensor/util.hpp"

namespace bitflow::ops {
namespace {

FilterBank random_filters(std::int64_t k, std::int64_t c, std::uint64_t seed) {
  FilterBank f(k, 3, 3, c);
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 0.5f);
  for (float& v : f.elements()) v = dist(rng);
  return f;
}

float mean(const std::vector<float>& v) {
  double acc = 0;
  for (float x : v) acc += x;
  return static_cast<float>(acc / static_cast<double>(v.size()));
}

TEST(MultiBase, RmseDecreasesMonotonicallyWithBases) {
  const FilterBank w = random_filters(8, 32, 1);
  float prev = 1e30f;
  for (int m = 1; m <= 5; ++m) {
    const MultiBaseFilters mb = approximate_filters(w, m);
    ASSERT_EQ(mb.num_bases(), m);
    const float err = mean(approximation_rmse(w, mb));
    EXPECT_LT(err, prev) << "adding a base must not hurt (greedy residual)";
    prev = err;
  }
  // Five bases should capture a Gaussian filter bank quite well.
  EXPECT_LT(prev, 0.12f);
}

TEST(MultiBase, SingleBaseIsPlainSignTimesScale) {
  const FilterBank w = random_filters(4, 16, 2);
  const MultiBaseFilters mb = approximate_filters(w, 1);
  for (std::int64_t f = 0; f < 4; ++f) {
    // alpha = mean |w| of the filter.
    double acc = 0;
    for (std::int64_t i = 0; i < 3; ++i)
      for (std::int64_t j = 0; j < 3; ++j)
        for (std::int64_t c = 0; c < 16; ++c) acc += std::abs(w.at(f, i, j, c));
    EXPECT_NEAR(mb.alphas[0][static_cast<std::size_t>(f)],
                static_cast<float>(acc / (3 * 3 * 16)), 1e-4f);
    // Base = sign(w).
    for (std::int64_t c = 0; c < 16; ++c) {
      EXPECT_EQ(mb.bases[0].get_bit(f, 0, 0, c), w.at(f, 0, 0, c) >= 0.0f);
    }
  }
}

TEST(MultiBase, AlphasAreNonNegativeAndDecreasing) {
  const FilterBank w = random_filters(6, 64, 3);
  const MultiBaseFilters mb = approximate_filters(w, 4);
  for (std::size_t f = 0; f < 6; ++f) {
    for (int m = 0; m < 4; ++m) {
      EXPECT_GE(mb.alphas[static_cast<std::size_t>(m)][f], 0.0f);
      if (m > 0) {
        // The residual shrinks, so its mean magnitude (the next alpha) does.
        EXPECT_LE(mb.alphas[static_cast<std::size_t>(m)][f],
                  mb.alphas[static_cast<std::size_t>(m - 1)][f] + 1e-6f);
      }
    }
  }
}

TEST(MultiBase, OpEqualsManualBaseComposition) {
  const FilterBank w = random_filters(5, 32, 4);
  const int m_bases = 3;
  MultiBaseConvOp op(w, m_bases, 1, 1);
  Tensor in = Tensor::hwc(7, 7, 32);
  fill_uniform(in, 5);
  runtime::ThreadPool pool(2);
  Tensor out = Tensor::hwc(7, 7, 5);
  op.run(in, pool, out);

  // Manual: one BinaryConvOp per base (decoded back to float filters),
  // combined with the alphas.
  Tensor expect = Tensor::hwc(7, 7, 5);
  const MultiBaseFilters mb = approximate_filters(w, m_bases);
  for (int m = 0; m < m_bases; ++m) {
    FilterBank base(5, 3, 3, 32);
    for (std::int64_t f = 0; f < 5; ++f)
      for (std::int64_t i = 0; i < 3; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
          for (std::int64_t c = 0; c < 32; ++c)
            base.at(f, i, j, c) = mb.bases[static_cast<std::size_t>(m)].sign_value(f, i, j, c);
    BinaryConvOp bop(base, 1, 1);
    Tensor dots = Tensor::hwc(7, 7, 5);
    bop.run(in, pool, dots);
    for (std::int64_t px = 0; px < 7 * 7; ++px) {
      for (std::int64_t f = 0; f < 5; ++f) {
        expect.data()[px * 5 + f] +=
            mb.alphas[static_cast<std::size_t>(m)][static_cast<std::size_t>(f)] *
            dots.data()[px * 5 + f];
      }
    }
  }
  EXPECT_LT(max_abs_diff(out, expect), 1e-3f);
}

TEST(MultiBase, ConvergesTowardFloatConvOnSignInputs) {
  // With the input binarized (as the engine does), the only approximation
  // left is the weights: error vs the float conv of sign(x) must shrink as
  // bases are added.
  const FilterBank w = random_filters(6, 64, 6);
  Tensor in = Tensor::hwc(8, 8, 64);
  fill_uniform(in, 7);
  Tensor signs = Tensor::hwc(8, 8, 64);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    signs.data()[i] = in.data()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  runtime::ThreadPool pool(1);
  const Tensor padded = baseline::pad_float(signs, 1, -1.0f);
  Tensor ref = Tensor::hwc(8, 8, 6);
  baseline::float_conv_direct(padded, w, kernels::ConvSpec{3, 3, 1}, pool, ref);

  double prev_err = 1e300;
  for (int m = 1; m <= 4; ++m) {
    MultiBaseConvOp op(w, m, 1, 1);
    Tensor out = Tensor::hwc(8, 8, 6);
    op.run(in, pool, out);
    double err = 0;
    for (std::int64_t i = 0; i < out.num_elements(); ++i) {
      err += std::abs(out.data()[i] - ref.data()[i]);
    }
    err /= static_cast<double>(out.num_elements());
    EXPECT_LT(err, prev_err) << "m=" << m;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 6.0) << "4 bases should track the float conv closely";
}

TEST(MultiBase, SteadyStateRunAllocatesNothing) {
  const FilterBank w = random_filters(6, 40, 9);
  MultiBaseConvOp op(w, 3, 1, 1);
  Tensor in = Tensor::hwc(5, 5, 40);
  fill_uniform(in, 10);
  runtime::ThreadPool pool(2);
  Tensor first = Tensor::hwc(5, 5, 6), again = Tensor::hwc(5, 5, 6);
  op.run(in, pool, first);  // sizes the padded input and the per-base dots
  failpoint::arm("alloc.buffer",
                 failpoint::Config{failpoint::Action::kBadAlloc, failpoint::Trigger::kAlways});
  EXPECT_NO_THROW(op.run(in, pool, again));
  failpoint::disarm("alloc.buffer");
  EXPECT_EQ(max_abs_diff(first, again), 0.0f);
}

TEST(MultiBase, ArgumentValidation) {
  const FilterBank w = random_filters(2, 8, 8);
  EXPECT_THROW(approximate_filters(w, 0), std::invalid_argument);
  EXPECT_THROW(MultiBaseConvOp(w, 2, 1, -1), std::invalid_argument);
  MultiBaseConvOp op(w, 2, 1, 0);
  runtime::ThreadPool pool(1);
  Tensor wrong = Tensor::hwc(6, 6, 16);
  Tensor out = Tensor::hwc(4, 4, 2);
  EXPECT_THROW(op.run(wrong, pool, out), std::invalid_argument);
}

}  // namespace
}  // namespace bitflow::ops
