// ISA-parity harness: every kernel — the or_accumulate primitive,
// PressedConv, bgemm, binary max pool — must be bit-exact across
// every ISA variant the executing CPU supports, including both AVX-512
// popcount lowerings where available.  PressedConv and bgemm are checked at
// every ISA variant, each at its one tile width T and the register-block
// height P it compiles in: the raw dots against src/baseline's decoded
// reference, the fused binarize against the float compare over those dots.
//
// Shapes are randomized (seeded) and deliberately adversarial: odd channel
// counts that leave ragged tail bits, K below and around every tile width
// (banks whose last tile is mostly or partly zero pad filters),
// stride/margin combinations, tiny spatial extents, and one large-H*W case.
// Failures name the kernel, the variant, the tile width and the full shape
// so a divergence on exotic hardware is reproducible from the log alone.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "graph/weights.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow {
namespace {

using kernels::ConvSpec;
using kernels::PoolSpec;
using simd::IsaLevel;
using simd::IsaVariant;

// --- primitive word-run parity ---------------------------------------------

TEST(IsaParity, BitopsPrimitivesMatchScalar) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const simd::ParityResult r = simd::check_all_bitops_parity(seed);
    ASSERT_TRUE(r.ok) << r.to_string();
  }
}

// SSE has no TU of its own: its 128-bit registers have no popcount, so
// every getter returns the u64 entry point at kSse, and an SSE cap runs the
// u64 tile (the kSse variants below run through this mapping).
TEST(IsaParity, SseGettersReturnTheU64EntryPoints) {
  EXPECT_EQ(kernels::conv_dot_kernel(IsaLevel::kSse, false),
            kernels::conv_dot_kernel(IsaLevel::kU64, false));
  EXPECT_EQ(kernels::conv_binarize_kernel(IsaLevel::kSse, false),
            kernels::conv_binarize_kernel(IsaLevel::kU64, false));
  EXPECT_EQ(kernels::bgemm_kernel(IsaLevel::kSse, false),
            kernels::bgemm_kernel(IsaLevel::kU64, false));
  EXPECT_EQ(kernels::bgemm_binarize_kernel(IsaLevel::kSse, false),
            kernels::bgemm_binarize_kernel(IsaLevel::kU64, false));
}

TEST(IsaParity, VariantEnumerationIsSane) {
  const auto levels = simd::supported_isa_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), IsaLevel::kU64);
  const auto variants = simd::supported_isa_variants();
  ASSERT_GE(variants.size(), levels.size());
  EXPECT_EQ(variants.front().name, "u64");
  // Exactly one variant per level, except kAvx512 which may contribute two.
  std::size_t expected = levels.size();
  if (simd::cpu_features().supports(IsaLevel::kAvx512) &&
      simd::cpu_features().avx512vpopcntdq) {
    ++expected;
  }
  EXPECT_EQ(variants.size(), expected);
}

// --- shared randomized shape set -------------------------------------------

struct ConvShape {
  std::int64_t h, w, c, k, kernel, stride, margin;
};

std::string describe(const ConvShape& s) {
  std::string d = "in " + std::to_string(s.h) + "x" + std::to_string(s.w) + "x" +
                  std::to_string(s.c) + " K=" + std::to_string(s.k) + " kernel=" +
                  std::to_string(s.kernel) + " stride=" + std::to_string(s.stride) +
                  " margin=" + std::to_string(s.margin);
  return d;
}

/// Fails (once, naming the first differing word) unless `got` and `want`
/// hold the same words.
template <typename Packed>
void expect_words_eq(const Packed& got, const Packed& want, const std::string& what) {
  ASSERT_EQ(got.num_words(), want.num_words()) << what;
  for (std::int64_t i = 0; i < want.num_words(); ++i) {
    if (got.words()[i] != want.words()[i]) {
      ADD_FAILURE() << what << " diverges at word " << i;
      return;
    }
  }
}

/// The float oracle of the fused conv binarize: src/baseline's dot products
/// (direct float conv on the decoded signs), then `dot >= threshold` per
/// filter, packed into the interior of a margin-`margin` buffer.
PackedTensor float_oracle(const PackedTensor& in, const PackedFilterBank& filters,
                          const ConvSpec& spec, const std::vector<float>& thresholds,
                          std::int64_t margin) {
  const Tensor dots = testing::reference_binary_conv(in, filters, spec);
  PackedTensor out(dots.height() + 2 * margin, dots.width() + 2 * margin, dots.channels());
  bitpack::pack_thresholded_into_interior(dots, thresholds.data(), out, margin);
  return out;
}

/// The float oracle of the fused bgemm binarize over rows [0, m_rows) of A:
/// src/baseline's float fc on the decoded signs, then `dot >= threshold`.
PackedMatrix float_oracle(const PackedMatrix& a, std::int64_t m_rows, const PackedMatrix& w,
                          const std::vector<float>& thresholds) {
  const std::int64_t n = a.cols(), k = w.rows();
  std::vector<float> w_nk(static_cast<std::size_t>(n * k));  // the paper's n x k layout
  for (std::int64_t j = 0; j < k; ++j) {
    for (std::int64_t i = 0; i < n; ++i) {
      w_nk[static_cast<std::size_t>(i * k + j)] = static_cast<float>(w.sign_value(j, i));
    }
  }
  runtime::ThreadPool pool(1);
  PackedMatrix out(a.rows(), k);
  std::vector<float> x(static_cast<std::size_t>(n)), dots(static_cast<std::size_t>(k));
  for (std::int64_t m = 0; m < m_rows; ++m) {
    for (std::int64_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<float>(a.sign_value(m, i));
    }
    baseline::float_fc(w_nk.data(), x.data(), dots.data(), n, k, pool);
    for (std::int64_t j = 0; j < k; ++j) {
      if (dots[static_cast<std::size_t>(j)] >= thresholds[static_cast<std::size_t>(j)]) {
        out.row(m)[j >> 6] |= std::uint64_t{1} << (j & 63);
      }
    }
  }
  return out;
}

/// One ISA variant the host can run at its one tile width, named for failure
/// messages with the register-block height it compiles in ("avx512vp,t16,p4").
struct Plan {
  IsaVariant v;
  std::int64_t tile;
  [[nodiscard]] std::string name() const {
    return std::string(v.name) + ",t" + std::to_string(tile) + ",p" +
           std::to_string(kernels::pixel_block(v.isa));
  }
};

std::vector<Plan> all_plans() {
  std::vector<Plan> plans;
  for (const IsaVariant& v : simd::supported_isa_variants()) {
    plans.push_back({v, kernels::weight_tile_width(v.isa)});
  }
  return plans;
}

kernels::ConvDotFn dot_fn(const Plan& p) {
  return kernels::conv_dot_kernel(p.v.isa, p.v.use_vpopcntdq);
}
kernels::ConvBinarizeFn binarize_fn(const Plan& p) {
  return kernels::conv_binarize_kernel(p.v.isa, p.v.use_vpopcntdq);
}

/// The K values of the padded-bank cases: 1, 3, T - 1, T + 1 and 2T + 3 at
/// each ISA's one tile width (4 on u64/SSE, 16 on AVX2/AVX-512), and 1000
/// (62 whole T = 16 tiles and one of 8 filters).
std::vector<std::int64_t> padded_ks() {
  std::set<std::int64_t> ks = {1, 3, 1000};
  for (const IsaLevel isa : {IsaLevel::kU64, IsaLevel::kAvx512}) {
    const std::int64_t t = kernels::weight_tile_width(isa);
    ks.insert({t - 1, t + 1, 2 * t + 3});
  }
  return {ks.begin(), ks.end()};
}

/// Fails (once) unless every bit at or above K in the last word of every
/// pixel of a binarize output — its margin included — reads 0: no pad
/// lane of a bank's last tile may leak a result bit.
void expect_zero_tail(const PackedTensor& out, const std::string& what) {
  if (out.channels() % 64 == 0) return;
  const std::uint64_t tail = ~std::uint64_t{0} << (out.channels() % 64);
  for (std::int64_t y = 0; y < out.height(); ++y) {
    for (std::int64_t x = 0; x < out.width(); ++x) {
      if ((out.pixel(y, x)[out.words_per_pixel() - 1] & tail) != 0) {
        ADD_FAILURE() << what << " sets a bit at or above K=" << out.channels() << " at pixel ("
                      << y << ", " << x << ")";
        return;
      }
    }
  }
}

/// expect_zero_tail over the rows of a bgemm binarize output.
void expect_zero_tail(const PackedMatrix& out, const std::string& what) {
  if (out.cols() % 64 == 0) return;
  const std::uint64_t tail = ~std::uint64_t{0} << (out.cols() % 64);
  for (std::int64_t m = 0; m < out.rows(); ++m) {
    if ((out.row(m)[out.words_per_row() - 1] & tail) != 0) {
      ADD_FAILURE() << what << " sets a bit at or above K=" << out.cols() << " in row " << m;
      return;
    }
  }
}

// Fixed adversarial shapes plus seeded random draws.  Channels are chosen to
// hit every tail class (sub-word, word-exact, each vector width, ragged just
// past each width); K from 1 (below every tile width) past 2 * 16; spatial
// extents span tiny (1x1 output) to a large H*W.
std::vector<ConvShape> conv_shapes() {
  std::vector<ConvShape> shapes = {
      {3, 3, 7, 3, 3, 1, 0},       // sub-word channels, smallest output
      {6, 7, 64, 8, 3, 1, 1},      // word-exact, margin-carrying output
      {5, 5, 65, 5, 3, 2, 0},      // one bit past a word, strided
      {7, 6, 129, 4, 3, 1, 2},     // one bit past SSE width, fat margin
      {6, 6, 257, 6, 5, 1, 0},     // one bit past AVX2 width, 5x5 kernel
      {8, 8, 513, 3, 3, 2, 1},     // one bit past AVX-512 width
      {4, 9, 96, 7, 1, 1, 0},      // 1x1 kernel (pure channel reduction)
      {40, 40, 63, 4, 3, 1, 0},    // large H*W, ragged tail
      {7, 8, 70, 1, 3, 2, 1},      // K = 1: one lane of one tile
      {6, 5, 130, 2, 1, 1, 2},     // K = 2, 1x1, fat margin
      {9, 9, 64, 37, 3, 1, 1},     // two whole T = 16 tiles, a third with 5 filters
  };
  std::mt19937_64 rng(20260805);
  std::uniform_int_distribution<std::int64_t> dim(5, 14);
  std::uniform_int_distribution<std::int64_t> chan(1, 300);
  std::uniform_int_distribution<std::int64_t> filt(1, 40);
  std::uniform_int_distribution<std::int64_t> ker(1, 3);
  std::uniform_int_distribution<std::int64_t> stride(1, 2);
  std::uniform_int_distribution<std::int64_t> margin(0, 2);
  for (int i = 0; i < 6; ++i) {
    ConvShape s{};
    s.kernel = 2 * ker(rng) - 1;  // 1, 3, or 5
    s.h = dim(rng) + s.kernel;
    s.w = dim(rng) + s.kernel;
    s.c = chan(rng);
    s.k = filt(rng);
    s.stride = stride(rng);
    s.margin = margin(rng);
    shapes.push_back(s);
  }
  return shapes;
}

/// Per-filter thresholds near zero, so both binarization outcomes occur.
std::vector<float> near_zero_thresholds(std::int64_t k, std::uint64_t seed, float range) {
  std::vector<float> thresholds(static_cast<std::size_t>(k));
  std::mt19937_64 trng(seed);
  std::uniform_real_distribution<float> tdist(-range, range);
  for (auto& t : thresholds) t = tdist(trng);
  return thresholds;
}

/// `n` seeded random H x W x C images and the pointer array the kernels take.
struct Images {
  std::vector<PackedTensor> in;
  std::vector<const PackedTensor*> ptrs;
  Images(const ConvShape& s, std::int64_t n, std::uint64_t& seed) {
    for (std::int64_t b = 0; b < n; ++b) {
      in.emplace_back(s.h, s.w, s.c);
      fill_random_bits(in.back(), seed++);
    }
    for (const PackedTensor& t : in) ptrs.push_back(&t);
  }
};

// --- PressedConv -----------------------------------------------------------

TEST(IsaParity, PressedConvDotAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 1000;
  for (const ConvShape& s : conv_shapes()) {
    const Images img(s, 1, seed);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const Tensor want = testing::reference_binary_conv(img.in[0], filters, spec);
    for (const Plan& p : all_plans()) {
      const TiledFilterBank bank = bitpack::tile_filters(filters, p.tile);
      Tensor out = Tensor::hwc(want.height(), want.width(), s.k);
      Tensor* outs[] = {&out};
      dot_fn(p)(img.ptrs.data(), 1, bank, spec, pool, outs);
      ASSERT_EQ(max_abs_diff(out, want), 0.0f)
          << "kernel conv_dot[" << p.name() << "] vs src/baseline's reference, shape "
          << describe(s);
    }
  }
}

TEST(IsaParity, PressedConvBinarizeAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 2000;
  for (const ConvShape& s : conv_shapes()) {
    const Images img(s, 1, seed);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::vector<float> thresholds = near_zero_thresholds(s.k, seed++, 3.0f);
    const std::vector<std::int64_t> limits =
        graph::popcount_limits(filters.bits_per_filter(), thresholds, s.k);
    const PackedTensor want = float_oracle(img.in[0], filters, spec, thresholds, s.margin);
    for (const Plan& p : all_plans()) {
      const TiledFilterBank bank = bitpack::tile_filters(filters, p.tile);
      PackedTensor out(want.height(), want.width(), s.k);
      PackedTensor* outs[] = {&out};
      binarize_fn(p)(img.ptrs.data(), 1, bank, spec, limits.data(), pool, outs, s.margin);
      // Whole-buffer word compare: covers payload bits, tail-zero invariant,
      // and the untouched zero margin in one pass.
      expect_words_eq(out, want,
                      "kernel conv_binarize[" + p.name() + "] vs float oracle, shape " +
                          describe(s));
    }
  }
}

// --- batch-N PressedConv ---------------------------------------------------

TEST(IsaParity, PressedConvDotBatchMatchesSingleImageAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 6000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::int64_t n = 3;
    const Images img(s, n, seed);
    for (const Plan& p : all_plans()) {
      const TiledFilterBank bank = bitpack::tile_filters(filters, p.tile);
      std::vector<Tensor> out;
      std::vector<Tensor*> out_ptrs;
      for (std::int64_t b = 0; b < n; ++b) out.push_back(Tensor::hwc(oh, ow, s.k));
      for (Tensor& t : out) out_ptrs.push_back(&t);
      dot_fn(p)(img.ptrs.data(), n, bank, spec, pool, out_ptrs.data());
      // Reference: n independent single-image runs of the same kernel.
      for (std::int64_t b = 0; b < n; ++b) {
        Tensor ref = Tensor::hwc(oh, ow, s.k);
        Tensor* refs[] = {&ref};
        dot_fn(p)(&img.ptrs[static_cast<std::size_t>(b)], 1, bank, spec, pool, refs);
        ASSERT_EQ(max_abs_diff(out[static_cast<std::size_t>(b)], ref), 0.0f)
            << "kernel conv_dot[" << p.name() << "] image " << b << "/" << n
            << " diverges from its single-image run, shape " << describe(s);
      }
    }
  }
}

TEST(IsaParity, PressedConvBinarizeBatchMatchesSingleImageAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 7000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h) + 2 * s.margin, ow = spec.out_w(s.w) + 2 * s.margin;
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::vector<float> thresholds = near_zero_thresholds(s.k, seed++, 3.0f);
    const std::vector<std::int64_t> limits =
        graph::popcount_limits(filters.bits_per_filter(), thresholds, s.k);
    const std::int64_t n = 3;
    const Images img(s, n, seed);
    for (const Plan& p : all_plans()) {
      const TiledFilterBank bank = bitpack::tile_filters(filters, p.tile);
      std::vector<PackedTensor> out;
      std::vector<PackedTensor*> out_ptrs;
      for (std::int64_t b = 0; b < n; ++b) out.emplace_back(oh, ow, s.k);
      for (PackedTensor& t : out) out_ptrs.push_back(&t);
      binarize_fn(p)(img.ptrs.data(), n, bank, spec, limits.data(), pool, out_ptrs.data(),
                     s.margin);
      for (std::int64_t b = 0; b < n; ++b) {
        PackedTensor ref(oh, ow, s.k);
        PackedTensor* refs[] = {&ref};
        binarize_fn(p)(&img.ptrs[static_cast<std::size_t>(b)], 1, bank, spec, limits.data(),
                       pool, refs, s.margin);
        expect_words_eq(out[static_cast<std::size_t>(b)], ref,
                        "kernel conv_binarize[" + p.name() + "] image " + std::to_string(b) +
                            " vs its single-image run, shape " + describe(s));
      }
    }
  }
}

// --- the row walk and its register blocks ---------------------------------
//
// Each thread walks its static block row by row and runs blocks of P
// adjacent output pixels, then the pixels left at the end of a row or of
// the block at P = 1.  Output widths in every class mod P (and below P),
// n = 3 images and pools of 1, 2, 3 and 5 threads make blocks end mid-row
// and mid-block; every output is checked against src/baseline, and every
// binarize output's bits at or above K must read 0.

/// Output widths 1..11: every residue mod 2 and mod 4, widths below P, and
/// whole blocks.
constexpr std::int64_t kWalkWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
constexpr int kWalkThreads[] = {1, 2, 3, 5};

struct WalkShape {
  ConvShape s;
  std::int64_t out_h, out_w;
};

/// The walk shape of an out_h x out_w output under a kernel x kernel window
/// at `stride`; a stride-2 input carries one column and row no window
/// reaches.
WalkShape walk_shape(std::int64_t out_h, std::int64_t out_w, std::int64_t kernel,
                     std::int64_t stride, std::int64_t c, std::int64_t k, std::int64_t margin) {
  ConvShape s{};
  s.kernel = kernel;
  s.stride = stride;
  s.h = (out_h - 1) * stride + kernel + (stride - 1);
  s.w = (out_w - 1) * stride + kernel + (stride - 1);
  s.c = c;
  s.k = k;
  s.margin = margin;
  return {s, out_h, out_w};
}

/// 1x1, 3x3 and 5x5 windows at stride 1 and 2.  K = 37 (a padded last tile
/// at every T) alternates with K = 70 (a second output word), C = 70 (two
/// words per pixel) with C = 3 (sub-word).  Then one margin-carrying shape
/// per padded_ks() K, at output widths 5 and 9.
std::vector<WalkShape> walk_shapes() {
  std::vector<WalkShape> shapes;
  std::int64_t i = 0;
  for (const std::int64_t out_w : kWalkWidths) {
    for (const std::int64_t kernel : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        shapes.push_back(walk_shape(2 + i % 2, out_w, kernel, stride, i % 2 == 0 ? 70 : 3,
                                    i % 3 == 0 ? 70 : 37, i % 3));
        ++i;
      }
    }
  }
  for (const std::int64_t k : padded_ks()) {
    shapes.push_back(walk_shape(2, 5 + 4 * (i % 2), 3, 1 + i % 2, i % 2 == 0 ? 70 : 3, k,
                                1 + i % 2));
    ++i;
  }
  return shapes;
}

TEST(IsaParity, PressedConvRowWalkMatchesBaselineAtEveryPoolSize) {
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  for (const int t : kWalkThreads) pools.push_back(std::make_unique<runtime::ThreadPool>(t));
  std::uint64_t seed = 17000;
  const std::int64_t n = 3;
  for (const WalkShape& ws : walk_shapes()) {
    const ConvShape& s = ws.s;
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    ASSERT_EQ(spec.out_w(s.w), ws.out_w) << describe(s);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::vector<float> thresholds = near_zero_thresholds(s.k, seed++, 3.0f);
    const std::vector<std::int64_t> limits =
        graph::popcount_limits(filters.bits_per_filter(), thresholds, s.k);
    const Images img(s, n, seed);
    std::vector<Tensor> want_dot;
    std::vector<PackedTensor> want_bin;
    for (std::int64_t b = 0; b < n; ++b) {
      const PackedTensor& in = img.in[static_cast<std::size_t>(b)];
      want_dot.push_back(testing::reference_binary_conv(in, filters, spec));
      want_bin.push_back(float_oracle(in, filters, spec, thresholds, s.margin));
    }
    for (const Plan& p : all_plans()) {
      const TiledFilterBank bank = bitpack::tile_filters(filters, p.tile);
      for (std::size_t pi = 0; pi < pools.size(); ++pi) {
        const std::string where = p.name() + "] on " + std::to_string(kWalkThreads[pi]) +
                                  " threads, n=3, shape " + describe(s);
        std::vector<Tensor> dot;
        std::vector<Tensor*> dot_ptrs;
        std::vector<PackedTensor> bin;
        std::vector<PackedTensor*> bin_ptrs;
        for (std::int64_t b = 0; b < n; ++b) {
          dot.push_back(Tensor::hwc(ws.out_h, ws.out_w, s.k));
          bin.emplace_back(ws.out_h + 2 * s.margin, ws.out_w + 2 * s.margin, s.k);
        }
        for (Tensor& t : dot) dot_ptrs.push_back(&t);
        for (PackedTensor& t : bin) bin_ptrs.push_back(&t);
        dot_fn(p)(img.ptrs.data(), n, bank, spec, *pools[pi], dot_ptrs.data());
        binarize_fn(p)(img.ptrs.data(), n, bank, spec, limits.data(), *pools[pi],
                       bin_ptrs.data(), s.margin);
        for (std::int64_t b = 0; b < n; ++b) {
          const auto bi = static_cast<std::size_t>(b);
          ASSERT_EQ(max_abs_diff(dot[bi], want_dot[bi]), 0.0f)
              << "kernel conv_dot[" << where << ", image " << b;
          const std::string bin_where =
              "kernel conv_binarize[" + where + ", image " + std::to_string(b);
          expect_words_eq(bin[bi], want_bin[bi], bin_where);
          expect_zero_tail(bin[bi], bin_where);
        }
      }
    }
  }
}

TEST(IsaParity, ConvBatchArgChecks) {
  PackedTensor a(4, 4, 8), b(4, 4, 8), wrong(5, 4, 8), wide(4, 4, 9);
  const TiledFilterBank filters = bitpack::tile_filters(PackedFilterBank(2, 3, 3, 8), 4);
  const ConvSpec spec{3, 3, 1};
  const PackedTensor* ok[] = {&a, &b};
  EXPECT_NO_THROW(kernels::check_conv_args(ok, 2, filters, spec));
  EXPECT_THROW(kernels::check_conv_args(ok, 0, filters, spec), std::invalid_argument);
  const PackedTensor* mixed[] = {&a, &wrong};
  EXPECT_THROW(kernels::check_conv_args(mixed, 2, filters, spec), std::invalid_argument);
  const PackedTensor* channels[] = {&wide};
  EXPECT_THROW(kernels::check_conv_args(channels, 1, filters, spec), std::invalid_argument);
  EXPECT_THROW(kernels::check_conv_args(ok, 2, filters, ConvSpec{1, 1, 1}),
               std::invalid_argument);  // spec/filter extent mismatch
  PackedTensor tiny(2, 2, 8);
  const PackedTensor* small[] = {&tiny};
  EXPECT_THROW(kernels::check_conv_args(small, 1, filters, spec),
               std::invalid_argument);  // the window does not fit
}

// --- bgemm -----------------------------------------------------------------

struct GemmShape {
  std::int64_t m, n_bits, k;
};

std::string describe(const GemmShape& s) {
  return "A " + std::to_string(s.m) + "x" + std::to_string(s.n_bits) + " bits, W " +
         std::to_string(s.k) + "x" + std::to_string(s.n_bits) + " bits";
}

std::vector<GemmShape> gemm_shapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},       // degenerate single bit
      {1, 63, 10},     // sub-word tail
      {1, 512, 128},   // AVX-512 exact, whole tiles
      {2, 513, 33},    // ragged everything
      {3, 1000, 17},   // several vector widths + tail
      {1, 4096, 101},  // large-N fully connected layer shape
      {2, 70, 2},      // K = 2: one tile, the rest pad rows
      {3, 130, 3},     // K = 3
  };
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<std::int64_t> m(1, 4);
  std::uniform_int_distribution<std::int64_t> n(1, 2000);
  std::uniform_int_distribution<std::int64_t> k(1, 150);
  for (int i = 0; i < 6; ++i) shapes.push_back({m(rng), n(rng), k(rng)});
  return shapes;
}

kernels::BgemmFn bgemm_fn(const Plan& p) {
  return kernels::bgemm_kernel(p.v.isa, p.v.use_vpopcntdq);
}
kernels::BgemmBinarizeFn bgemm_binarize_fn(const Plan& p) {
  return kernels::bgemm_binarize_kernel(p.v.isa, p.v.use_vpopcntdq);
}

TEST(IsaParity, BgemmDotAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 3000;
  for (const GemmShape& s : gemm_shapes()) {
    // A carries two rows past m_rows — the serving path's "fill n of
    // max_batch rows" usage.
    PackedMatrix a(s.m + 2, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    std::vector<float> want(static_cast<std::size_t>(s.m * s.k));
    for (std::int64_t i = 0; i < s.m * s.k; ++i) {
      want[static_cast<std::size_t>(i)] =
          static_cast<float>(testing::reference_binary_dot(a, i / s.k, w, i % s.k));
    }
    for (const Plan& p : all_plans()) {
      const TiledBitMatrix bank = bitpack::tile_fc_weights(w, p.tile);
      std::vector<float> y(static_cast<std::size_t>(s.m * s.k), -12345.0f);
      bgemm_fn(p)(a, s.m, bank, pool, y.data());
      for (std::int64_t i = 0; i < s.m * s.k; ++i) {
        ASSERT_EQ(y[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)])
            << "kernel bgemm[" << p.name() << "] vs src/baseline's reference dot at element ("
            << i / s.k << "," << i % s.k << "), shape " << describe(s);
      }
    }
  }
}

TEST(IsaParity, BgemmBinarizeAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 4000;
  for (const GemmShape& s : gemm_shapes()) {
    PackedMatrix a(s.m, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    const std::vector<float> thresholds = near_zero_thresholds(s.k, seed, 5.0f);
    const std::vector<std::int64_t> limits = graph::popcount_limits(s.n_bits, thresholds, s.k);
    const PackedMatrix want = float_oracle(a, s.m, w, thresholds);
    for (const Plan& p : all_plans()) {
      const TiledBitMatrix bank = bitpack::tile_fc_weights(w, p.tile);
      PackedMatrix out(s.m, s.k);
      bgemm_binarize_fn(p)(a, s.m, bank, limits.data(), pool, out);
      expect_words_eq(out, want,
                      "kernel bgemm_binarize[" + p.name() + "] vs float oracle, shape " +
                          describe(s));
    }
  }
}

// --- row-limited bgemm -----------------------------------------------------

TEST(IsaParity, BgemmRowsMatchesFullAllVariants) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 8000;
  for (const GemmShape& s : gemm_shapes()) {
    // A carries max_batch rows; only the first m_rows are computed, and they
    // must equal the same rows of a run over all of A.
    const std::int64_t rows = s.m + 3;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    for (const Plan& p : all_plans()) {
      const TiledBitMatrix bank = bitpack::tile_fc_weights(w, p.tile);
      std::vector<float> full(static_cast<std::size_t>(rows * s.k));
      bgemm_fn(p)(a, rows, bank, pool, full.data());
      std::vector<float> y(static_cast<std::size_t>(s.m * s.k), -777.0f);
      bgemm_fn(p)(a, s.m, bank, pool, y.data());
      for (std::int64_t i = 0; i < s.m * s.k; ++i) {
        ASSERT_EQ(y[static_cast<std::size_t>(i)], full[static_cast<std::size_t>(i)])
            << "kernel bgemm[" << p.name() << "] m_rows=" << s.m
            << " diverges from the full run at element " << i << ", shape " << describe(s);
      }
    }
  }
}

TEST(IsaParity, BgemmBinarizeRowsMatchesFullAndLeavesTailUntouched) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 9000;
  for (const GemmShape& s : gemm_shapes()) {
    const std::int64_t rows = s.m + 2;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    const std::vector<float> thresholds = near_zero_thresholds(s.k, seed++, 5.0f);
    const std::vector<std::int64_t> limits = graph::popcount_limits(s.n_bits, thresholds, s.k);
    for (const Plan& p : all_plans()) {
      const TiledBitMatrix bank = bitpack::tile_fc_weights(w, p.tile);
      PackedMatrix full(rows, s.k);
      bgemm_binarize_fn(p)(a, rows, bank, limits.data(), pool, full);
      PackedMatrix out(rows, s.k);
      fill_random_bits(out, seed);  // same fill per plan: sentinel for rows >= m_rows
      PackedMatrix sentinel(rows, s.k);
      fill_random_bits(sentinel, seed);
      bgemm_binarize_fn(p)(a, s.m, bank, limits.data(), pool, out);
      const std::int64_t words_per_row = out.words_per_row();
      for (std::int64_t m = 0; m < rows; ++m) {
        const PackedMatrix& want = m < s.m ? full : sentinel;
        for (std::int64_t i = m * words_per_row; i < (m + 1) * words_per_row; ++i) {
          ASSERT_EQ(out.words()[i], want.words()[i])
              << "kernel bgemm_binarize[" << p.name() << "] row " << m
              << (m < s.m ? " diverges from the full run" : " was not left untouched")
              << " at word " << i << ", shape " << describe(s) << " m_rows=" << s.m;
        }
      }
    }
    ++seed;
  }
}

// Row blocks of bgemm: m_rows 1..9 covers every residue mod P, rows below
// P and several blocks, on pools that split the group-major range mid-group
// and mid-block; K = 37, 70 and every padded_ks() K.  Every binarize row's
// bits at or above K must read 0.
TEST(IsaParity, BgemmRowBlocksMatchBaselineAtEveryPoolSize) {
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  for (const int t : kWalkThreads) pools.push_back(std::make_unique<runtime::ThreadPool>(t));
  std::vector<GemmShape> shapes = {{0, 200, 37}, {0, 65, 70}};
  for (const std::int64_t k : padded_ks()) shapes.push_back({0, shapes.size() % 2 ? 65 : 200, k});
  std::uint64_t seed = 18000;
  for (std::int64_t m_rows = 1; m_rows <= 9; ++m_rows) {
    for (const GemmShape& shape : shapes) {
      const GemmShape s{m_rows, shape.n_bits, shape.k};
      // Two rows past m_rows: the serving path's "fill n of max_batch rows".
      PackedMatrix a(m_rows + 2, s.n_bits), w(s.k, s.n_bits);
      fill_random_bits(a, seed++);
      fill_random_bits(w, seed++);
      const std::vector<float> thresholds = near_zero_thresholds(s.k, seed++, 5.0f);
      const std::vector<std::int64_t> limits = graph::popcount_limits(s.n_bits, thresholds, s.k);
      const PackedMatrix want_bin = float_oracle(a, m_rows, w, thresholds);
      for (const Plan& p : all_plans()) {
        const TiledBitMatrix bank = bitpack::tile_fc_weights(w, p.tile);
        for (std::size_t pi = 0; pi < pools.size(); ++pi) {
          const std::string where = p.name() + "] on " + std::to_string(kWalkThreads[pi]) +
                                    " threads, m_rows=" + std::to_string(m_rows) + ", " +
                                    describe(s);
          std::vector<float> y(static_cast<std::size_t>(m_rows * s.k), -12345.0f);
          bgemm_fn(p)(a, m_rows, bank, *pools[pi], y.data());
          for (std::int64_t i = 0; i < m_rows * s.k; ++i) {
            ASSERT_EQ(y[static_cast<std::size_t>(i)],
                      static_cast<float>(testing::reference_binary_dot(a, i / s.k, w, i % s.k)))
                << "kernel bgemm[" << where << " at element " << i;
          }
          PackedMatrix out(a.rows(), s.k);
          bgemm_binarize_fn(p)(a, m_rows, bank, limits.data(), *pools[pi], out);
          expect_words_eq(out, want_bin, "kernel bgemm_binarize[" + where);
          expect_zero_tail(out, "kernel bgemm_binarize[" + where);
        }
      }
    }
  }
}

// --- the interleaved weight layout -------------------------------------------
//
// The conv_shapes() K values (1..40) and gemm_shapes() k values straddle the
// tile widths (4 and 16), so K < T, K = T exactly, and K % T != 0 padded
// last tiles are all exercised at every plan above.

/// Fails unless `m` holds `rows` rows of `row_words` words in whole tiles,
/// each real row's words where row_word() resolves the interleave (word(k,
/// w) gives them) and every word of a pad row zero.
template <typename Word>
void expect_tiled(const TiledBitMatrix& m, std::int64_t rows, std::int64_t row_words,
                  Word&& word, const std::string& what) {
  ASSERT_EQ(m.rows(), rows) << what;
  ASSERT_EQ(m.row_words(), row_words) << what;
  ASSERT_EQ(m.tiles(), (rows + m.tile() - 1) / m.tile()) << what;
  ASSERT_EQ(m.num_words(), m.tiles() * m.tile() * row_words) << what;
  for (std::int64_t k = 0; k < m.tiles() * m.tile(); ++k) {
    for (std::int64_t w = 0; w < row_words; ++w) {
      ASSERT_EQ(m.row_word(k, w), k < rows ? word(k, w) : 0)
          << what << (k < rows ? ": lost word " : ": pad row holds word ") << w << " of row "
          << k;
    }
  }
}

TEST(IsaParity, TileFiltersIsAPermutation) {
  // Every word kept and every pad word zero, at each ISA's one tile width.
  std::uint64_t seed = 11000;
  for (const ConvShape& s : conv_shapes()) {
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    for (const IsaLevel isa : {IsaLevel::kU64, IsaLevel::kAvx512}) {
      const std::int64_t tile = kernels::weight_tile_width(isa);
      const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
      ASSERT_EQ(tiled.num_filters(), s.k);
      ASSERT_EQ(tiled.words_per_filter(), filters.words_per_filter());
      expect_tiled(
          tiled.rows(), s.k, filters.words_per_filter(),
          [&](std::int64_t k, std::int64_t w) { return filters.filter(k)[w]; },
          "tile_filters at T=" + std::to_string(tile) + ", shape " + describe(s));
    }
  }
}

TEST(IsaParity, InPlaceTilingMatchesReferencePermutation) {
  // The tilers interleave the moved-in bank's own storage block by block,
  // after growing it by the pad rows only when T does not divide K.  At
  // every tile width some host ISA supports, and for K = 1 and T - 1 (one
  // padded tile), T (one whole tile, in place) and 2T + 3 (whole tiles and
  // a padded one), every word must land where row_word() resolves it and
  // every pad word be zero.  Ragged C and n_bits leave tail bits in each
  // row's last word.
  std::set<std::int64_t> widths;
  for (const IsaLevel isa : simd::supported_isa_levels()) {
    widths.insert(kernels::weight_tile_width(isa));
  }
  ASSERT_FALSE(widths.empty());
  std::uint64_t seed = 11500;
  for (const std::int64_t tile : widths) {
    for (const std::int64_t k : {std::int64_t{1}, tile - 1, tile, 2 * tile + 3}) {
      const std::string at = " at T=" + std::to_string(tile) + " K=" + std::to_string(k);
      PackedFilterBank filters(k, 3, 3, 70);
      fill_random_bits(filters, seed++);
      const TiledFilterBank tiled = bitpack::tile_filters(PackedFilterBank(filters), tile);
      ASSERT_EQ(tiled.num_filters(), k);
      ASSERT_EQ(tiled.tile(), tile);
      expect_tiled(
          tiled.rows(), k, filters.words_per_filter(),
          [&](std::int64_t f, std::int64_t w) { return filters.filter(f)[w]; },
          "tile_filters" + at);

      PackedMatrix fc(k, 200);
      fill_random_bits(fc, seed++);
      const TiledBitMatrix rows = bitpack::tile_fc_weights(PackedMatrix(fc), tile);
      expect_tiled(
          rows, k, fc.words_per_row(), [&](std::int64_t r, std::int64_t w) { return fc.row(r)[w]; },
          "tile_fc_weights" + at);
    }
  }
}

// The fused binarize at every ISA variant, at its tile width, against the
// float oracle: the kernels' popcount-limit epilogue is checked against the
// float compare it replaces.  Thresholds hit every edge of the
// limit: NaN, infinities, signed zeros, integers exactly on a dot product
// the fan-in's parity can reach (dot == threshold passes) and one off it,
// and their float neighbours.

/// Edge-case thresholds for `k` filters of `bits` bits, cycling through the
/// kinds above.  The reachable dots are drawn where random data's dots land
/// (popcount ~ Binomial(bits, 1/2)), so both outcomes occur.
std::vector<float> edge_thresholds(std::int64_t bits, std::int64_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::binomial_distribution<std::int64_t> pop(bits, 0.5);
  std::uniform_real_distribution<float> real(-6.0f, 6.0f);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> th(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    const auto dot = static_cast<float>(bits - 2 * pop(rng));
    float& t = th[static_cast<std::size_t>(i)];
    switch (i % 11) {
      case 0: t = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: t = kInf; break;
      case 2: t = -kInf; break;
      case 3: t = (i / 11) % 2 == 0 ? 0.0f : -0.0f; break;
      case 4: t = dot; break;         // on a reachable dot: passes
      case 5: t = dot + 1.0f; break;  // the other parity: between two dots
      case 6: t = dot - 1.0f; break;
      case 7: t = std::nextafter(dot, kInf); break;
      case 8: t = std::nextafter(dot, -kInf); break;
      case 9: t = dot + 0.5f; break;
      default: t = real(rng); break;
    }
  }
  return th;
}

/// The K values of the oracle tests: K mod 16 in {1, 8, 15}, below and
/// past one 64-bit output word, so every width has a padded last tile.
constexpr std::int64_t kOracleKs[] = {1, 17, 24, 31, 65, 72, 79};
constexpr std::int64_t kOracleCs[] = {3, 64, 96, 128, 513};

TEST(IsaParity, PressedConvBinarizeMatchesFloatOracleAtEveryTileWidth) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 13000;
  for (const std::int64_t c : kOracleCs) {
    for (const std::int64_t k : kOracleKs) {
      const std::int64_t stride = 1 + k % 2, margin = k % 3;
      const ConvSpec spec{3, 3, stride};
      const std::int64_t h = 7, w = 8;
      const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
      PackedFilterBank filters(k, 3, 3, c);
      fill_random_bits(filters, seed++);
      const std::vector<float> thresholds = edge_thresholds(filters.bits_per_filter(), k, seed++);
      const std::vector<std::int64_t> limits =
          graph::popcount_limits(filters.bits_per_filter(), thresholds, k);
      const std::int64_t n = 2;
      std::vector<PackedTensor> in;
      std::vector<const PackedTensor*> in_ptrs;
      std::vector<PackedTensor> want;
      for (std::int64_t b = 0; b < n; ++b) {
        in.emplace_back(h, w, c);
        fill_random_bits(in.back(), seed++);
        want.push_back(float_oracle(in.back(), filters, spec, thresholds, margin));
      }
      for (const PackedTensor& t : in) in_ptrs.push_back(&t);
      const std::string shape = "C=" + std::to_string(c) + " K=" + std::to_string(k) +
                                " stride=" + std::to_string(stride) +
                                " margin=" + std::to_string(margin);

      const auto check = [&](const std::string& kernel, const auto& run) {
        std::vector<PackedTensor> out;
        std::vector<PackedTensor*> out_ptrs;
        for (std::int64_t b = 0; b < n; ++b) out.emplace_back(oh + 2 * margin, ow + 2 * margin, k);
        for (PackedTensor& t : out) out_ptrs.push_back(&t);
        run(out_ptrs.data());
        for (std::int64_t b = 0; b < n; ++b) {
          expect_words_eq(out[static_cast<std::size_t>(b)], want[static_cast<std::size_t>(b)],
                          kernel + " image " + std::to_string(b) + ", " + shape);
        }
      };
      for (const Plan& p : all_plans()) {
        const TiledFilterBank tiled = bitpack::tile_filters(filters, p.tile);
        check("conv_binarize[" + p.name() + "]", [&](PackedTensor* const* out) {
          binarize_fn(p)(in_ptrs.data(), n, tiled, spec, limits.data(), pool, out, margin);
        });
      }
    }
  }
}

TEST(IsaParity, TiledKernelRejectsMismatchedTileWidth) {
  runtime::ThreadPool pool(1);
  PackedTensor in(4, 4, 8);
  PackedFilterBank filters(8, 3, 3, 8);
  const ConvSpec spec{3, 3, 1};
  const PackedTensor* in_ptr = &in;
  Tensor out = Tensor::hwc(2, 2, 8);
  Tensor* out_ptr = &out;
  // Each kernel takes banks tiled at its ISA's one width only.
  for (const IsaVariant& v : simd::supported_isa_variants()) {
    const std::int64_t wrong = kernels::weight_tile_width(v.isa) == 4 ? 16 : 4;
    const TiledFilterBank bad = bitpack::tile_filters(filters, wrong);
    EXPECT_THROW(kernels::conv_dot_kernel(v.isa, v.use_vpopcntdq)(&in_ptr, 1, bad, spec, pool,
                                                                 &out_ptr),
                 std::invalid_argument)
        << "variant " << v.name;
  }
}

/// The message of the std::invalid_argument `fn` throws, or "" if none.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(IsaParity, RawDotKernelsRejectRowsOf2To24Words) {
  // The raw-dot tile epilogue computes bits - 2p in int32, exact while
  // bits < 2^30, so a filter or weight row of 2^24 words or more is
  // rejected at entry.  A 3x3 filter at C = 2^27 (9 * 2^21 words) is one a
  // model file can hold.  K = 0 banks and empty inputs allocate nothing.
  constexpr std::int64_t kBound = std::int64_t{1} << 24;
  runtime::ThreadPool pool(1);
  Tensor* out_ptr = nullptr;
  const auto conv_message = [&](const Plan& p, std::int64_t kh, std::int64_t c) {
    const PackedTensor in(0, 0, c);
    const PackedTensor* in_ptr = &in;
    const TiledFilterBank bank(TiledBitMatrix(0, kh * kh * words_for_channels(c), p.tile), kh,
                               kh, c);
    return invalid_argument_message(
        [&] { dot_fn(p)(&in_ptr, 1, bank, ConvSpec{kh, kh, 1}, pool, &out_ptr); });
  };
  const auto fc_message = [&](const Plan& p, std::int64_t words) {
    const PackedMatrix a(0, words * 64);
    const TiledBitMatrix w(0, words, p.tile);
    return invalid_argument_message([&] { bgemm_fn(p)(a, 0, w, pool, nullptr); });
  };
  for (const Plan& p : all_plans()) {
    SCOPED_TRACE(p.name());
    EXPECT_NE(conv_message(p, 3, std::int64_t{1} << 27).find("2^24"), std::string::npos);
    EXPECT_NE(conv_message(p, 1, kBound * 64).find("2^24"), std::string::npos);
    // One word under the bound passes the check (and then fails on the
    // empty input, which the window does not fit).
    EXPECT_EQ(conv_message(p, 1, (kBound - 1) * 64).find("2^24"), std::string::npos);
    EXPECT_NE(fc_message(p, kBound).find("2^24"), std::string::npos);
    EXPECT_EQ(fc_message(p, kBound - 1), "");  // m_rows = 0: nothing to compute
  }
}

TEST(IsaParity, BgemmBinarizeRowsMatchesFloatOracleAtEveryTileWidth) {
  runtime::ThreadPool pool(3);
  std::uint64_t seed = 15000;
  for (const std::int64_t n_bits : kOracleCs) {
    for (const std::int64_t k : kOracleKs) {
      const std::int64_t rows = 3, m_rows = 2;
      PackedMatrix a(rows, n_bits), w(k, n_bits);
      fill_random_bits(a, seed++);
      fill_random_bits(w, seed++);
      const std::vector<float> thresholds = edge_thresholds(n_bits, k, seed++);
      const std::vector<std::int64_t> limits = graph::popcount_limits(n_bits, thresholds, k);
      const PackedMatrix want = float_oracle(a, m_rows, w, thresholds);
      const std::string shape = "N=" + std::to_string(n_bits) + " K=" + std::to_string(k);
      for (const Plan& p : all_plans()) {
        const TiledBitMatrix tiled = bitpack::tile_fc_weights(w, p.tile);
        PackedMatrix out(rows, k);
        bgemm_binarize_fn(p)(a, m_rows, tiled, limits.data(), pool, out);
        expect_words_eq(out, want, "bgemm_binarize[" + p.name() + "], " + shape);
      }
    }
  }
}

// --- binary max pool -------------------------------------------------------

struct PoolShape {
  std::int64_t h, w, c, pool, stride, margin;
};

std::string describe(const PoolShape& s) {
  return "in " + std::to_string(s.h) + "x" + std::to_string(s.w) + "x" + std::to_string(s.c) +
         " pool=" + std::to_string(s.pool) + " stride=" + std::to_string(s.stride) +
         " margin=" + std::to_string(s.margin);
}

std::vector<PoolShape> pool_shapes() {
  std::vector<PoolShape> shapes = {
      {2, 2, 1, 2, 2, 0},       // single output pixel, single channel
      {6, 6, 64, 2, 2, 1},      // word-exact, margin-carrying
      {7, 9, 65, 3, 2, 0},      // ragged channels, overlapping windows
      {8, 8, 513, 2, 2, 2},     // past AVX-512 width, fat margin
      {32, 32, 100, 2, 2, 0},   // large H*W
  };
  std::mt19937_64 rng(20260807);
  std::uniform_int_distribution<std::int64_t> dim(4, 16);
  std::uniform_int_distribution<std::int64_t> chan(1, 300);
  std::uniform_int_distribution<std::int64_t> ps(2, 3);
  std::uniform_int_distribution<std::int64_t> margin(0, 1);
  for (int i = 0; i < 5; ++i) {
    PoolShape s{};
    s.pool = ps(rng);
    s.stride = ps(rng);
    s.h = dim(rng) + s.pool;
    s.w = dim(rng) + s.pool;
    s.c = chan(rng);
    s.margin = margin(rng);
    shapes.push_back(s);
  }
  return shapes;
}

TEST(IsaParity, BinaryMaxpoolAllLevels) {
  runtime::ThreadPool pool(3);
  const auto levels = simd::supported_isa_levels();
  std::uint64_t seed = 5000;
  for (const PoolShape& s : pool_shapes()) {
    PackedTensor in(s.h, s.w, s.c);
    fill_random_bits(in, seed++);
    const PoolSpec spec{s.pool, s.pool, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);

    PackedTensor ref(oh + 2 * s.margin, ow + 2 * s.margin, s.c);
    kernels::binary_maxpool(in, spec, IsaLevel::kU64, pool, ref, s.margin);
    // Pin the scalar path to the decoded naive max pool (interior only).
    const Tensor naive = testing::reference_binary_maxpool(in, spec);
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        for (std::int64_t c = 0; c < s.c; ++c) {
          ASSERT_EQ(ref.get_bit(y + s.margin, x + s.margin, c), naive.at(y, x, c) >= 0.0f)
              << "kernel binary_maxpool[u64] vs naive at (" << y << "," << x << "," << c
              << "), shape " << describe(s);
        }
      }
    }

    for (IsaLevel isa : levels) {
      PackedTensor out(oh + 2 * s.margin, ow + 2 * s.margin, s.c);
      kernels::binary_maxpool(in, spec, isa, pool, out, s.margin);
      for (std::int64_t i = 0; i < ref.num_words(); ++i) {
        ASSERT_EQ(out.words()[i], ref.words()[i])
            << "kernel binary_maxpool[" << simd::isa_name(isa)
            << "] diverges from u64 at word " << i << ", shape " << describe(s);
      }
    }
  }
}

}  // namespace
}  // namespace bitflow
