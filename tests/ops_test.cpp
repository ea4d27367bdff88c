#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "graph/scheduler.hpp"
#include "ops/operators.hpp"
#include "simd/cpu_features.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::ops {
namespace {

FilterBank random_filters(std::int64_t k, std::int64_t c, std::uint64_t seed) {
  FilterBank f(k, 3, 3, c);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : f.elements()) v = dist(rng);
  return f;
}

/// Every AlignedBuffer allocation throws std::bad_alloc while in scope.
class AllocationsFail {
 public:
  AllocationsFail() {
    failpoint::arm("alloc.buffer", failpoint::Config{failpoint::Action::kBadAlloc,
                                                     failpoint::Trigger::kAlways});
  }
  ~AllocationsFail() { failpoint::disarm("alloc.buffer"); }
  AllocationsFail(const AllocationsFail&) = delete;
  AllocationsFail& operator=(const AllocationsFail&) = delete;
};

TEST(BinaryConvOp, MatchesSignDomainFloatConv) {
  // BinaryConvOp on float input x == float direct conv on sign(x) with
  // sign(filters) and -1 padding.
  const std::int64_t c = 96, k = 7;
  const FilterBank filters = random_filters(k, c, 1);
  BinaryConvOp op(filters, /*stride=*/1, /*pad=*/1);
  Tensor in = Tensor::hwc(9, 9, c);
  fill_uniform(in, 2);
  runtime::ThreadPool pool(2);
  Tensor out = Tensor::hwc(9, 9, k);
  op.run(in, pool, out);

  // Reference: decode to signs, pad with -1, direct conv on sign(filters).
  Tensor signs = Tensor::hwc(9, 9, c);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    signs.data()[i] = in.data()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  const Tensor padded = baseline::pad_float(signs, 1, -1.0f);
  FilterBank fsigns(k, 3, 3, c);
  for (std::int64_t i = 0; i < filters.num_elements(); ++i) {
    fsigns.elements()[static_cast<std::size_t>(i)] =
        filters.elements()[static_cast<std::size_t>(i)] >= 0.0f ? 1.0f : -1.0f;
  }
  Tensor ref = Tensor::hwc(9, 9, k);
  baseline::float_conv_direct(padded, fsigns, op.spec(), pool, ref);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(BinaryConvOp, ForcedIsaVariantsAgree) {
  const FilterBank filters = random_filters(8, 256, 3);
  Tensor in = Tensor::hwc(8, 8, 256);
  fill_uniform(in, 4);
  runtime::ThreadPool pool(1);
  Tensor base = Tensor::hwc(8, 8, 8);
  {
    BinaryOpOptions opt;
    opt.force_isa = simd::IsaLevel::kU64;
    BinaryConvOp op(filters, 1, 1, opt);
    EXPECT_EQ(op.isa(), simd::IsaLevel::kU64);
    op.run(in, pool, base);
  }
  for (simd::IsaLevel isa :
       {simd::IsaLevel::kSse, simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    if (!simd::cpu_features().supports(isa)) continue;
    BinaryOpOptions opt;
    opt.force_isa = isa;
    BinaryConvOp op(filters, 1, 1, opt);
    Tensor out = Tensor::hwc(8, 8, 8);
    op.run(in, pool, out);
    EXPECT_EQ(max_abs_diff(base, out), 0.0f) << simd::isa_name(isa);
  }
}

TEST(BinaryConvOp, RunsTheEnginePlan) {
  // Whatever C and K, conv and fc run the engine's default plan: the widest
  // ISA and its one T (K < T is one padded tile); force_isa caps the ISA.
  const simd::IsaLevel widest = simd::cpu_features().best_isa();
  const std::int64_t t = kernels::weight_tile_width(widest);
  for (const std::int64_t c : {64, 128, 256, 512}) {
    for (const std::int64_t k : {2, 8, 64}) {
      const BinaryConvOp op(random_filters(k, c, 1), 1, 1);
      EXPECT_EQ(op.isa(), widest) << "C=" << c << " K=" << k;
      EXPECT_EQ(op.tile(), t) << "C=" << c << " K=" << k;
    }
  }
  BinaryOpOptions u64;
  u64.force_isa = simd::IsaLevel::kU64;
  const BinaryConvOp capped(random_filters(64, 64, 1), 1, 1, u64);
  EXPECT_EQ(capped.isa(), simd::IsaLevel::kU64);
  EXPECT_EQ(capped.tile(), 4);
  const std::vector<float> w(static_cast<std::size_t>(64 * 3), 1.0f);
  const BinaryFcOp fc(w.data(), 64, 3);
  EXPECT_EQ(fc.isa(), widest);
  EXPECT_EQ(fc.tile(), t);
}

TEST(BinaryConvOp, SteadyStateRunAllocatesNothing) {
  const FilterBank filters = random_filters(24, 70, 21);
  BinaryConvOp op(filters, 1, 1);
  Tensor in = Tensor::hwc(6, 6, 70);
  fill_uniform(in, 22);
  runtime::ThreadPool pool(2);
  Tensor first = Tensor::hwc(6, 6, 24), again = Tensor::hwc(6, 6, 24);
  op.run(in, pool, first);  // sizes the padded input buffer
  {
    const AllocationsFail no_alloc;
    EXPECT_NO_THROW(op.run(in, pool, again));
  }
  EXPECT_EQ(max_abs_diff(first, again), 0.0f);
}

TEST(BinaryFcOp, SteadyStateRunAllocatesNothing) {
  const std::int64_t n = 300, k = 20;
  std::vector<float> w(static_cast<std::size_t>(n * k));
  std::vector<float> x(static_cast<std::size_t>(n));
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : w) v = dist(rng);
  for (float& v : x) v = dist(rng);
  BinaryFcOp op(w.data(), n, k);
  runtime::ThreadPool pool(1);
  std::vector<float> first(static_cast<std::size_t>(k)), again(static_cast<std::size_t>(k));
  op.run(x.data(), pool, first.data());
  {
    const AllocationsFail no_alloc;
    EXPECT_NO_THROW(op.run(x.data(), pool, again.data()));
  }
  EXPECT_EQ(first, again);
}

TEST(BinaryFcOp, MatchesReferenceDots) {
  const std::int64_t n = 500, k = 33;
  std::vector<float> w(static_cast<std::size_t>(n * k));
  std::vector<float> x(static_cast<std::size_t>(n));
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : w) v = dist(rng);
  for (float& v : x) v = dist(rng);
  BinaryFcOp op(w.data(), n, k);
  runtime::ThreadPool pool(2);
  std::vector<float> y(static_cast<std::size_t>(k));
  op.run(x.data(), pool, y.data());
  const PackedMatrix xa = bitpack::pack_rows(x.data(), 1, n);
  const PackedMatrix wt = bitpack::pack_transpose_fc_weights(w.data(), n, k);
  for (std::int64_t j = 0; j < k; ++j) {
    ASSERT_EQ(static_cast<std::int64_t>(y[static_cast<std::size_t>(j)]),
              bitflow::testing::reference_binary_dot(xa, 0, wt, j));
  }
}

TEST(BinaryPoolOp, MatchesReference) {
  BinaryPoolOp op(kernels::PoolSpec{2, 2, 2}, 128);
  Tensor in = Tensor::hwc(8, 8, 128);
  fill_uniform(in, 11);
  runtime::ThreadPool pool(2);
  PackedTensor out(4, 4, 128);
  op.run(in, pool, out);
  const PackedTensor packed = bitpack::pack_activations(in);
  const Tensor ref = bitflow::testing::reference_binary_maxpool(packed, op.spec());
  EXPECT_EQ(max_abs_diff(bitpack::unpack_to_signs(out), ref), 0.0f);
}

TEST(FloatConvOp, MatchesDirectWithZeroPad) {
  const FilterBank filters = random_filters(5, 12, 13);
  FloatConvOp op(filters, 1, 1);
  Tensor in = Tensor::hwc(7, 7, 12);
  fill_uniform(in, 14);
  runtime::ThreadPool pool(2);
  Tensor out = Tensor::hwc(7, 7, 5);
  op.run(in, pool, out);
  const Tensor padded = baseline::pad_float(in, 1, 0.0f);
  Tensor ref = Tensor::hwc(7, 7, 5);
  baseline::float_conv_direct(padded, filters, op.spec(), pool, ref);
  EXPECT_LT(max_abs_diff(out, ref), 1e-3f);
}

TEST(BinaryConvOp, ReusableAcrossShapes) {
  // The internal padded buffer must re-allocate when extents change.
  const FilterBank filters = random_filters(4, 64, 15);
  BinaryConvOp op(filters, 1, 1);
  runtime::ThreadPool pool(1);
  Tensor in1 = Tensor::hwc(6, 6, 64), out1 = Tensor::hwc(6, 6, 4);
  Tensor in2 = Tensor::hwc(10, 10, 64), out2 = Tensor::hwc(10, 10, 4);
  fill_uniform(in1, 16);
  fill_uniform(in2, 17);
  op.run(in1, pool, out1);
  op.run(in2, pool, out2);
  op.run(in1, pool, out1);  // shrink back
  // No crash + parity property as a sanity check.
  for (float v : out1.elements()) {
    EXPECT_EQ((static_cast<std::int64_t>(v) - 3 * 3 * 64) % 2, 0);
  }
}

TEST(Ops, ArgumentValidation) {
  const FilterBank filters = random_filters(2, 8, 1);
  EXPECT_THROW(BinaryConvOp(filters, 1, -1), std::invalid_argument);
  EXPECT_THROW(FloatConvOp(filters, 1, -2), std::invalid_argument);
  BinaryConvOp op(filters, 1, 0);
  runtime::ThreadPool pool(1);
  Tensor wrong_c = Tensor::hwc(6, 6, 16);
  Tensor out = Tensor::hwc(4, 4, 2);
  EXPECT_THROW(op.run(wrong_c, pool, out), std::invalid_argument);
  Tensor in = Tensor::hwc(6, 6, 8);
  Tensor mis_shaped = Tensor::hwc(3, 3, 2);
  EXPECT_THROW(op.run(in, pool, mis_shaped), std::invalid_argument);
  Tensor too_small = Tensor::hwc(2, 2, 8);  // the 3x3 window does not fit
  EXPECT_THROW(op.run(too_small, pool, out), std::invalid_argument);
}

}  // namespace
}  // namespace bitflow::ops
