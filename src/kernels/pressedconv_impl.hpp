// PressedConv inner loops, templated over an ISA policy and a register-tile
// accumulator.
//
// Included only by the per-ISA kernel TUs (pressedconv_<isa>.cpp); each TU
// instantiates the templates with a policy whose xor_popcount resolves to
// the inline primitive of that TU's enabled ISA, and with the TileAcc of
// each tile width it supports, so the word loops inline into the spatial
// loops with no function-call overhead.
//
// Loop structure (paper Alg. 1, activation-stationary dataflow — YFlows):
//   multi-core  : fused b*y*x output range, static blocks     (parallel_for)
//   per pixel   : filter tiles of T = Tile::kWidth filters
//   per tile    : the kh * kw * words_per_pixel window words — each packed
//                 activation word is loaded once, broadcast, and
//                 XOR+popcounted against the T matching filter words, which
//                 the interleave (bitpack::tile_filters) made contiguous
//   vector      : across the T filters, the Tile's ISA
// T per-filter counters live in registers across the whole word walk; the
// raw-dot kernel spills them once per tile, the fused binarize compares them
// in registers against the tile's T popcount limits and ORs the T result
// bits straight into the output word.  The K % T remainder filters are
// stored filter-major after the tiles and take the policy's word-run
// xor_popcount; a bank with K < T has no full tile, so every filter takes it.
//
// Batch-N: the batch axis is fused with the spatial output range into one
// n*out_h*out_w parallel_for, so deep layers with small H*W still expose
// enough grains to fill the pool, and N requests cost one fork/join instead
// of N.  Each image has its own input/output tensor; a pixel's value depends
// only on its own image's words, so batch-N output b is bit-identical to a
// batch-1 run of image b — a single image is the n = 1 case.
//
// Tile is an explicit template parameter (not Ops::Tile) so each per-ISA TU
// can stamp one entry point per supported width.
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

template <typename Ops, typename Tile>
void conv_dot_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                               const TiledFilterBank& filters, const ConvSpec& spec,
                               runtime::ThreadPool& pool, Tensor* const* out) {
  constexpr std::int64_t kT = Tile::kWidth;
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  if (filters.words_per_filter() >= kMaxDotRowWords) {
    throw std::invalid_argument("PressedConv tiled: a filter spans 2^24 words or more");
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const auto bits32 = static_cast<std::int32_t>(bits);
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t full_tiles = bank.full_tiles();

  pool.parallel_for(n * pixels, [&](runtime::Range r, int) {
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
          out_t[l] = static_cast<float>(bits32 - 2 * static_cast<std::int32_t>(pops[l]));
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

  pool.parallel_for(n * pixels, [&](runtime::Range r, int) {
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
