// Generic PressedConv inner loops, templated over an ISA policy.
//
// Included only by the per-ISA kernel TUs (pressedconv_<isa>.cpp); each TU
// instantiates the templates with a policy whose xor_popcount resolves to
// the inline primitive of that TU's enabled ISA, so the word loop inlines
// into the spatial loops with no function-call overhead.
//
// Loop structure (paper Alg. 1):
//   multi-core  : fused b*y*x output range, static blocks     (parallel_for)
//   per pixel   : filters k, 2-way unrolled to share the input window loads
//   per filter  : kernel rows i — the kw * words_per_pixel packed words of
//                 one window row are contiguous in both operands (NHWC
//                 channel packing), one xor+popcount run each
//   vector      : inside the run, the policy's ISA
//
// Batch-N: every entry point is implemented over a batch of N images (the
// batch axis is fused with the spatial output range into one n*out_h*out_w
// parallel_for, so deep layers with small H*W still expose enough grains to
// fill the pool, and N requests cost one fork/join instead of N).  Each
// image has its own input/output tensor; a pixel's value depends only on
// its own image's words, so batch-N output b is bit-identical to a batch-1
// run of image b — the single-image entry points are the n = 1 case of the
// same code path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::kernels::impl {

/// Specialized inner body for the dominant BNN case of 3x3 filters over a
/// single packed word per pixel (C <= 64, e.g. VGG conv2.1): the nine
/// window words are hoisted into registers once per output pixel and each
/// filter costs exactly nine xor+popcnt — no word-run loop, no pointer
/// arithmetic in the hot loop.  This is the "loop unrolling" of the paper's
/// gemm-level optimizations applied where it pays the most.
inline void conv_dot_3x3_w1_batch(const PackedTensor* const* in, std::int64_t n,
                                  const PackedFilterBank& filters, const ConvSpec& spec,
                                  runtime::ThreadPool& pool, Tensor* const* out) {
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const std::uint64_t* f_words = filters.words();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* w0 = in[img]->words() + (y * stride) * in_w + (x * stride);
      const std::uint64_t* w1 = w0 + in_w;
      const std::uint64_t* w2 = w1 + in_w;
      const std::uint64_t a0 = w0[0], a1 = w0[1], a2 = w0[2];
      const std::uint64_t a3 = w1[0], a4 = w1[1], a5 = w1[2];
      const std::uint64_t a6 = w2[0], a7 = w2[1], a8 = w2[2];
      float* out_px = out[img]->data() + pix * num_k;
      const std::uint64_t* f = f_words;
      for (std::int64_t k = 0; k < num_k; ++k, f += 9) {
        std::int64_t pops = __builtin_popcountll(a0 ^ f[0]);
        pops += __builtin_popcountll(a1 ^ f[1]);
        pops += __builtin_popcountll(a2 ^ f[2]);
        pops += __builtin_popcountll(a3 ^ f[3]);
        pops += __builtin_popcountll(a4 ^ f[4]);
        pops += __builtin_popcountll(a5 ^ f[5]);
        pops += __builtin_popcountll(a6 ^ f[6]);
        pops += __builtin_popcountll(a7 ^ f[7]);
        pops += __builtin_popcountll(a8 ^ f[8]);
        out_px[k] = static_cast<float>(bits - 2 * pops);
      }
    }
  });
}

template <typename Ops>
void conv_dot_batch_impl(const PackedTensor* const* in, std::int64_t n,
                         const PackedFilterBank& filters, const ConvSpec& spec,
                         runtime::ThreadPool& pool, Tensor* const* out) {
  if (in[0]->words_per_pixel() == 1 && filters.kernel_h() == 3 && filters.kernel_w() == 3) {
    conv_dot_3x3_w1_batch(in, n, filters, spec, pool, out);
    return;
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t kw = filters.kernel_w();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = kw * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      float* out_px = out[img]->data() + pix * num_k;
      std::int64_t k = 0;
      // 2-way filter unroll: both filters consume the same window row, so
      // its words are loaded from L1 once per pair.
      for (; k + 2 <= num_k; k += 2) {
        const std::uint64_t* f0 = filters.filter(k);
        const std::uint64_t* f1 = filters.filter(k + 1);
        std::uint64_t pops0 = 0, pops1 = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::uint64_t* row = window + i * in_w * pc;
          pops0 += Ops::xor_popcount(row, f0 + i * row_words, row_words);
          pops1 += Ops::xor_popcount(row, f1 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops0));
        out_px[k + 1] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops1));
      }
      for (; k < num_k; ++k) {
        const std::uint64_t* f0 = filters.filter(k);
        std::uint64_t pops = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
      }
    }
  });
}

template <typename Ops>
void conv_dot_impl(const PackedTensor& in, const PackedFilterBank& filters, const ConvSpec& spec,
                   runtime::ThreadPool& pool, Tensor& out) {
  const PackedTensor* in_ptr = &in;
  Tensor* out_ptr = &out;
  conv_dot_batch_impl<Ops>(&in_ptr, 1, filters, spec, pool, &out_ptr);
}

/// Fused binarize counterpart of conv_dot_3x3_w1_batch.
inline void conv_binarize_3x3_w1_batch(const PackedTensor* const* in, std::int64_t n,
                                       const PackedFilterBank& filters, const ConvSpec& spec,
                                       const std::int64_t* limits, runtime::ThreadPool& pool,
                                       PackedTensor* const* out, std::int64_t margin) {
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const std::uint64_t* f_words = filters.words();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* w0 = in[img]->words() + (y * stride) * in_w + (x * stride);
      const std::uint64_t* w1 = w0 + in_w;
      const std::uint64_t* w2 = w1 + in_w;
      const std::uint64_t a0 = w0[0], a1 = w0[1], a2 = w0[2];
      const std::uint64_t a3 = w1[0], a4 = w1[1], a5 = w1[2];
      const std::uint64_t a6 = w2[0], a7 = w2[1], a8 = w2[2];
      std::uint64_t* out_px = out[img]->pixel(y + margin, x + margin);
      const std::uint64_t* f = f_words;
      std::int64_t k = 0;
      std::int64_t word_idx = 0;
      while (k < num_k) {
        const std::int64_t block = std::min<std::int64_t>(64, num_k - k);
        std::uint64_t packed = 0;
        for (std::int64_t b = 0; b < block; ++b, ++k, f += 9) {
          std::int64_t pops = __builtin_popcountll(a0 ^ f[0]);
          pops += __builtin_popcountll(a1 ^ f[1]);
          pops += __builtin_popcountll(a2 ^ f[2]);
          pops += __builtin_popcountll(a3 ^ f[3]);
          pops += __builtin_popcountll(a4 ^ f[4]);
          pops += __builtin_popcountll(a5 ^ f[5]);
          pops += __builtin_popcountll(a6 ^ f[6]);
          pops += __builtin_popcountll(a7 ^ f[7]);
          pops += __builtin_popcountll(a8 ^ f[8]);
          packed |= limit_bit(static_cast<std::uint64_t>(pops), limits[k]) << b;
        }
        out_px[word_idx++] = packed;
      }
    }
  });
}

template <typename Ops>
void conv_binarize_batch_impl(const PackedTensor* const* in, std::int64_t n,
                              const PackedFilterBank& filters, const ConvSpec& spec,
                              const std::int64_t* limits, runtime::ThreadPool& pool,
                              PackedTensor* const* out, std::int64_t margin) {
  std::vector<std::int64_t> sign;
  limits = resolve_limits(limits, filters.bits_per_filter(), filters.num_filters(), sign);
  if (in[0]->words_per_pixel() == 1 && filters.kernel_h() == 3 && filters.kernel_w() == 3) {
    conv_binarize_3x3_w1_batch(in, n, filters, spec, limits, pool, out, margin);
    return;
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t kw = filters.kernel_w();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = kw * pc;
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      std::uint64_t* out_px = out[img]->pixel(y + margin, x + margin);
      std::int64_t k = 0;
      std::int64_t word_idx = 0;
      while (k < num_k) {
        const std::int64_t block = std::min<std::int64_t>(64, num_k - k);
        std::uint64_t packed = 0;
        for (std::int64_t b = 0; b < block; ++b, ++k) {
          const std::uint64_t* f0 = filters.filter(k);
          std::uint64_t pops = 0;
          for (std::int64_t i = 0; i < kh; ++i) {
            pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
          }
          packed |= limit_bit(pops, limits[k]) << b;
        }
        out_px[word_idx++] = packed;
      }
    }
  });
}

template <typename Ops>
void conv_binarize_impl(const PackedTensor& in, const PackedFilterBank& filters,
                        const ConvSpec& spec, const std::int64_t* limits,
                        runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin) {
  const PackedTensor* in_ptr = &in;
  PackedTensor* out_ptr = &out;
  conv_binarize_batch_impl<Ops>(&in_ptr, 1, filters, spec, limits, pool, &out_ptr, margin);
}

// --- register-tiled variants over the interleaved weight layout --------------
//
// Activation-stationary dataflow (YFlows): the filter loop is tiled by
// T = Tile::kWidth, and inside a tile the roles invert — each packed
// activation word is loaded once, broadcast, and XOR+popcounted against the T
// matching filter words, which the finalize-time interleave
// (bitpack::tile_filters) made contiguous.  T per-filter counters live in
// registers across the whole kh*kw*pc word walk; the raw-dot kernel spills
// them once per tile, the fused binarize compares them in registers against
// the tile's T popcount limits and ORs the T result bits straight into the
// output word.  The K % T remainder filters were left filter-major by the
// repack and take the word-run path of the untiled kernel.
//
// Tile is an explicit template parameter (not Ops::Tile) so each per-ISA TU
// can stamp one entry point per supported width (the static rule's default
// and the auto-tuner's T axis).

template <typename Ops, typename Tile>
void conv_dot_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                               const TiledFilterBank& filters, const ConvSpec& spec,
                               runtime::ThreadPool& pool, Tensor* const* out) {
  constexpr std::int64_t kT = Tile::kWidth;
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t full_tiles = bank.full_tiles();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      float* out_px = out[img]->data() + pix * num_k;
      for (std::int64_t t = 0; t < full_tiles; ++t) {
        Tile acc{};
        // The interleaved block walks word-major over the whole filter, so
        // `f` just advances by kT per activation word across kernel rows.
        const std::uint64_t* f = bank.tile_block(t);
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::uint64_t* row = window + i * in_w * pc;
          for (std::int64_t w = 0; w < row_words; ++w, f += kT) {
            acc.accumulate(row[w], f);
          }
        }
        std::uint64_t pops[kT];
        acc.reduce(pops);
        float* out_t = out_px + t * kT;
        for (std::int64_t l = 0; l < kT; ++l) {
          out_t[l] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops[l]));
        }
      }
      for (std::int64_t k = full_tiles * kT; k < num_k; ++k) {
        const std::uint64_t* f0 = bank.remainder_row(k - full_tiles * kT);
        std::uint64_t pops = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
      }
    }
  });
}

template <typename Ops, typename Tile>
void conv_binarize_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                                    const TiledFilterBank& filters, const ConvSpec& spec,
                                    const std::int64_t* limits, runtime::ThreadPool& pool,
                                    PackedTensor* const* out, std::int64_t margin) {
  constexpr std::int64_t kT = Tile::kWidth;
  static_assert(64 % Tile::kWidth == 0, "filter tiles must not straddle output words");
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  std::vector<std::int64_t> sign;
  limits = resolve_limits(limits, filters.bits_per_filter(), filters.num_filters(), sign);
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t full_tiles = bank.full_tiles();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      std::uint64_t* out_px = out[img]->pixel(y + margin, x + margin);
      std::uint64_t packed = 0;
      std::int64_t bit = 0, word_idx = 0, k = 0;
      for (std::int64_t t = 0; t < full_tiles; ++t, k += kT) {
        Tile acc{};
        const std::uint64_t* f = bank.tile_block(t);
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::uint64_t* row = window + i * in_w * pc;
          for (std::int64_t w = 0; w < row_words; ++w, f += kT) {
            acc.accumulate(row[w], f);
          }
        }
        // kT divides 64, so a tile's bits never split across output words
        // and `bit` can only hit 64 between tiles.
        packed |= acc.le_mask(limits + k) << bit;
        bit += kT;
        if (bit == 64) {
          out_px[word_idx++] = packed;
          packed = 0;
          bit = 0;
        }
      }
      for (; k < num_k; ++k) {
        const std::uint64_t* f0 = bank.remainder_row(k - full_tiles * kT);
        std::uint64_t pops = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
        }
        packed |= limit_bit(pops, limits[k]) << bit;
        if (++bit == 64) {
          out_px[word_idx++] = packed;
          packed = 0;
          bit = 0;
        }
      }
      if (bit > 0) out_px[word_idx] = packed;
    }
  });
}

}  // namespace bitflow::kernels::impl

/// Stamps out the kernel entry points (single-image and batched) for one ISA
/// policy.  Used by each per-ISA TU after defining `Ops`.
#define BITFLOW_INSTANTIATE_PRESSEDCONV(SUFFIX, OPS)                                            \
  namespace bitflow::kernels::detail {                                                          \
  void conv_dot_##SUFFIX(const PackedTensor& in, const PackedFilterBank& filters,               \
                         const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out) {        \
    impl::conv_dot_impl<OPS>(in, filters, spec, pool, out);                                     \
  }                                                                                             \
  void conv_binarize_##SUFFIX(const PackedTensor& in, const PackedFilterBank& filters,          \
                              const ConvSpec& spec, const std::int64_t* limits,                 \
                              runtime::ThreadPool& pool, PackedTensor& out,                     \
                              std::int64_t margin) {                                            \
    impl::conv_binarize_impl<OPS>(in, filters, spec, limits, pool, out, margin);                \
  }                                                                                             \
  void conv_dot_batch_##SUFFIX(const PackedTensor* const* in, std::int64_t n,                   \
                               const PackedFilterBank& filters, const ConvSpec& spec,           \
                               runtime::ThreadPool& pool, Tensor* const* out) {                 \
    impl::conv_dot_batch_impl<OPS>(in, n, filters, spec, pool, out);                            \
  }                                                                                             \
  void conv_binarize_batch_##SUFFIX(const PackedTensor* const* in, std::int64_t n,              \
                                    const PackedFilterBank& filters, const ConvSpec& spec,      \
                                    const std::int64_t* limits, runtime::ThreadPool& pool,      \
                                    PackedTensor* const* out, std::int64_t margin) {            \
    impl::conv_binarize_batch_impl<OPS>(in, n, filters, spec, limits, pool, out, margin);       \
  }                                                                                             \
  }  // namespace bitflow::kernels::detail

/// Stamps out the register-tiled entry points for one (ISA policy, tile
/// accumulator) pair.  A TU invokes this once per tile width it supports;
/// SUFFIX conventionally appends the width, e.g. avx2_t8.
#define BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(SUFFIX, OPS, TILE)                                \
  namespace bitflow::kernels::detail {                                                          \
  void conv_dot_tiled_batch_##SUFFIX(const PackedTensor* const* in, std::int64_t n,             \
                                     const TiledFilterBank& filters, const ConvSpec& spec,      \
                                     runtime::ThreadPool& pool, Tensor* const* out) {           \
    impl::conv_dot_tiled_batch_impl<OPS, TILE>(in, n, filters, spec, pool, out);                \
  }                                                                                             \
  void conv_binarize_tiled_batch_##SUFFIX(                                                      \
      const PackedTensor* const* in, std::int64_t n, const TiledFilterBank& filters,            \
      const ConvSpec& spec, const std::int64_t* limits, runtime::ThreadPool& pool,              \
      PackedTensor* const* out, std::int64_t margin) {                                          \
    impl::conv_binarize_tiled_batch_impl<OPS, TILE>(in, n, filters, spec, limits, pool, out,    \
                                                    margin);                                    \
  }                                                                                             \
  }  // namespace bitflow::kernels::detail
