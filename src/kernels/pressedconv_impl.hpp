// PressedConv inner loops, templated over an ISA policy and its register-
// tile accumulator.
//
// Included only by the per-ISA kernel TUs (pressedconv_<isa>.cpp); each TU
// instantiates the templates once, with its ISA's one TileAcc, so the tile
// loops inline into the spatial loops with no function-call overhead.  The
// policy (Ops) carries the TU's simd::IsaLevel as Ops::kIsa and is declared
// in the TU's anonymous namespace: its internal linkage gives every TU its
// own instantiation, compiled with that TU's -m flags.  Without it the two
// AVX-512 TUs, which share TileAcc16Avx512, would emit one weak symbol and
// the linker would keep either lowering for both.
//
// Loop structure (paper Alg. 1, activation-stationary dataflow — YFlows):
//   multi-core  : fused b*y*x output range, static blocks     (parallel_for)
//   per thread  : its block row by row (tile_walk.hpp): one division at the
//                 block start, then x, y and image increments
//   per row     : blocks of P = pixel_block(ISA) adjacent output pixels;
//                 the pixels left at the end of the row or of the block run
//                 the same template at P = 1
//   per block   : the ceil(K / T) filter tiles of T = Tile::kWidth filters
//   per tile    : the kh * kw * words_per_pixel window words — each T-word
//                 interleaved filter tile row (bitpack::tile_filters) is
//                 loaded once and XOR+popcounted against the P pixels'
//                 broadcast activation words, into P x T counters
//   vector      : across the T filters, the Tile's ISA
// The P x T counters live in registers across the whole word walk; the
// raw-dot kernel spills them once per tile, the fused binarize compares them
// in registers against the tile's T popcount limits and ORs each pixel's T
// result bits straight into its output word.  Every filter takes this one
// path: when T does not divide K the bank's last tile ends in zero pad
// filters, whose lanes the raw dot does not store and the binarize compares
// against a limit of -1 (TileLimits), so their output bits stay 0.
//
// Batch-N: the batch axis is fused with the spatial output range into one
// n*out_h*out_w parallel_for, so deep layers with small H*W still expose
// enough grains to fill the pool, and N requests cost one fork/join instead
// of N.  Each image has its own input/output tensor; a pixel's value depends
// only on its own image's words, so batch-N output b is bit-identical to a
// batch-1 run of image b — a single image is the n = 1 case.  A block of P
// pixels never spans two rows, so it never spans two images either.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kernels/conv_spec.hpp"
#include "kernels/tile_walk.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::kernels::impl {

template <typename Ops, typename Tile>
void conv_dot_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                               const TiledFilterBank& filters, const ConvSpec& spec,
                               runtime::ThreadPool& pool, Tensor* const* out) {
  constexpr std::int64_t kT = Tile::kWidth;
  constexpr std::int64_t kP = pixel_block(Ops::kIsa);
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  if (filters.words_per_filter() >= kMaxDotRowWords) {
    throw std::invalid_argument("PressedConv tiled: a filter spans 2^24 words or more");
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const auto bits32 = static_cast<std::int32_t>(filters.bits_per_filter());
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_row = in[0]->width() * pc;  // words from one kernel row to the next
  const std::int64_t step = spec.stride * pc;       // words from one window to the next
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t tiles = bank.tiles();

  pool.parallel_for(n * out_h * out_w, [&](runtime::Range r, int) {
    for_each_row_segment(r, out_h, out_w, [&](std::int64_t img, std::int64_t y, std::int64_t x0,
                                              std::int64_t x1) {
      const std::uint64_t* in_y = in[img]->words() + y * spec.stride * in_row;
      float* out_y = out[img]->data() + y * out_w * num_k;
      for_each_block<kP>(x0, x1, [&](auto q, std::int64_t x) {
        constexpr std::int64_t kQ = decltype(q)::value;
        const std::uint64_t* window = in_y + x * step;
        float* out_px = out_y + x * num_k;
        for (std::int64_t t = 0; t < tiles; ++t) {
          Tile acc[kQ] = {};
          // The interleaved block walks word-major over the whole filter, so
          // `f` just advances by kT per activation word across kernel rows.
          const std::uint64_t* f = bank.tile_block(t);
          for (std::int64_t i = 0; i < kh; ++i) {
            f = accumulate_runs<kQ>(acc, window + i * in_row, step, row_words, f);
          }
          // Only the last tile has pad lanes, and they are not stored.
          const std::int64_t lanes = std::min(kT, num_k - t * kT);
          for (std::int64_t j = 0; j < kQ; ++j) {
            std::uint64_t pops[kT];
            acc[j].reduce(pops);
            float* out_t = out_px + j * num_k + t * kT;
            for (std::int64_t l = 0; l < lanes; ++l) {
              out_t[l] = static_cast<float>(bits32 - 2 * static_cast<std::int32_t>(pops[l]));
            }
          }
        }
      });
    });
  });
}

template <typename Ops, typename Tile>
void conv_binarize_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                                    const TiledFilterBank& filters, const ConvSpec& spec,
                                    const std::int64_t* limits, runtime::ThreadPool& pool,
                                    PackedTensor* const* out, std::int64_t margin) {
  constexpr std::int64_t kT = Tile::kWidth;
  constexpr std::int64_t kP = pixel_block(Ops::kIsa);
  static_assert(64 % Tile::kWidth == 0, "filter tiles must not straddle output words");
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const std::int64_t in_row = in[0]->width() * pc;  // words from one kernel row to the next
  const std::int64_t step = spec.stride * pc;       // words from one window to the next
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t tiles = bank.tiles();
  const TileLimits<kT> tile_limits(limits, filters.bits_per_filter(), filters.num_filters());

  pool.parallel_for(n * out_h * out_w, [&](runtime::Range r, int) {
    for_each_row_segment(r, out_h, out_w, [&](std::int64_t img, std::int64_t y, std::int64_t x0,
                                              std::int64_t x1) {
      const std::uint64_t* in_y = in[img]->words() + y * spec.stride * in_row;
      const std::int64_t out_pc = out[img]->words_per_pixel();
      std::uint64_t* out_y = out[img]->pixel(y + margin, margin);
      for_each_block<kP>(x0, x1, [&](auto q, std::int64_t x) {
        constexpr std::int64_t kQ = decltype(q)::value;
        const std::uint64_t* window = in_y + x * step;
        std::uint64_t* out_px = out_y + x * out_pc;
        std::uint64_t packed[kQ] = {};
        std::int64_t bit = 0, word_idx = 0;
        // Locals, so the tile loop keeps them in registers.
        const std::int64_t* lim = tile_limits.first();
        const std::int64_t lim_step = tile_limits.step(), last = tiles - 1;
        for (std::int64_t t = 0; t <= last; ++t, lim += lim_step) {
          Tile acc[kQ] = {};
          const std::uint64_t* f = bank.tile_block(t);
          for (std::int64_t i = 0; i < kh; ++i) {
            f = accumulate_runs<kQ>(acc, window + i * in_row, step, row_words, f);
          }
          // kT divides 64, so a tile's bits never split across output words
          // and `bit` can only hit 64 between tiles.
          const std::int64_t* tile_lim = t < last ? lim : tile_limits.last();
          for (std::int64_t j = 0; j < kQ; ++j) packed[j] |= acc[j].le_mask(tile_lim) << bit;
          bit += kT;
          if (bit == 64) {
            for (std::int64_t j = 0; j < kQ; ++j) {
              out_px[j * out_pc + word_idx] = packed[j];
              packed[j] = 0;
            }
            ++word_idx;
            bit = 0;
          }
        }
        // The last, partial output word: ceil(K / T) * T <= out_pc * 64.
        if (bit > 0) {
          for (std::int64_t j = 0; j < kQ; ++j) out_px[j * out_pc + word_idx] = packed[j];
        }
      });
    });
  });
}

}  // namespace bitflow::kernels::impl

/// Stamps out the register-tiled entry points of one per-ISA TU: SUFFIX
/// names them (e.g. avx2), OPS is the TU's policy and TILE its TileAcc.
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
