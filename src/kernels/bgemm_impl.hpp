// bgemm inner loops, templated over an ISA policy and its register-tile
// accumulator (same scheme as pressedconv_impl.hpp, whose header says why
// the policy lives in each TU's anonymous namespace — included only by the
// per-ISA kernel TUs).
//
// The weight matrix W is in the T-way register-tile layout
// (bitpack::tile_fc_weights): for each activation word, the T = Tile::kWidth
// matching weight words are one contiguous line, and the T neuron counters
// stay in registers across the whole activation row; the fused binarize
// compares them against the T popcount limits in registers.  Every neuron
// takes this one path: when T does not divide K, W's last tile ends in zero
// pad rows, whose dots the raw dot does not store and whose bits the
// binarize clears (a limit of -1, TileLimits).
//
// Batch-N: the kernels compute only the first `m_rows` rows of A (the
// serving path keeps a max_batch-row activation matrix and fills the first
// n rows per micro-batch).  The K and M dimensions are fused into one
// group-major parallel_for — a neuron tile (raw dot) or a 64-neuron output
// word (binarize) times the m_rows rows — so a batch of N requests through
// a small FC layer costs one fork/join instead of N, the same fusion
// PressedConv applies to N*H*W.  Each thread walks its block with
// tile_walk.hpp: the rows of one group run in blocks of P = pixel_block(ISA)
// with P x T counters, so each tile row of W is loaded once per P rows and
// a thread streams its share of W once per block of P rows; the rows left
// over run the same template at P = 1.  Each output element depends only on
// its own (m, k) pair, so results are bit-identical for any m_rows and any
// thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kernels/conv_spec.hpp"
#include "kernels/tile_walk.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels::impl {

template <typename Ops, typename Tile>
void bgemm_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows, const TiledBitMatrix& w,
                           runtime::ThreadPool& pool, float* y) {
  constexpr std::int64_t kT = Tile::kWidth;
  constexpr std::int64_t kP = pixel_block(Ops::kIsa);
  if (w.tile() != kT) {
    throw std::invalid_argument("bgemm tiled: matrix tile width does not match kernel");
  }
  if (w.row_words() >= kMaxDotRowWords) {
    throw std::invalid_argument("bgemm tiled: a weight row spans 2^24 words or more");
  }
  if (w.row_words() != a.words_per_row()) throw std::invalid_argument("bgemm tiled: N mismatch");
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm tiled: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const auto bits32 = static_cast<std::int32_t>(a.cols());
  // One grain per (neuron tile, row of A), tile-major: a thread streams its
  // share of W once per block of kP rows.
  pool.parallel_for(w.tiles() * m_rows, [&](runtime::Range r, int) {
    for_each_row_segment(r, w.tiles(), m_rows, [&](std::int64_t, std::int64_t g, std::int64_t m0,
                                                   std::int64_t m1) {
      // Only the last tile has pad lanes, and they are not stored.
      const std::int64_t lanes = std::min(kT, k_rows - g * kT);
      for_each_block<kP>(m0, m1, [&](auto q, std::int64_t m) {
        constexpr std::int64_t kQ = decltype(q)::value;
        Tile acc[kQ] = {};
        accumulate_runs<kQ>(acc, a.row(m), n_words, n_words, w.tile_block(g));
        for (std::int64_t j = 0; j < kQ; ++j) {
          std::uint64_t pops[kT];
          acc[j].reduce(pops);
          float* yk = y + (m + j) * k_rows + g * kT;
          for (std::int64_t l = 0; l < lanes; ++l) {
            yk[l] = static_cast<float>(bits32 - 2 * static_cast<std::int32_t>(pops[l]));
          }
        }
      });
    });
  });
}

template <typename Ops, typename Tile>
void bgemm_binarize_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows,
                                    const TiledBitMatrix& w, const std::int64_t* limits,
                                    runtime::ThreadPool& pool, PackedMatrix& out) {
  constexpr std::int64_t kT = Tile::kWidth;
  constexpr std::int64_t kP = pixel_block(Ops::kIsa);
  static_assert(64 % Tile::kWidth == 0, "neuron tiles must not straddle output words");
  if (w.tile() != kT) {
    throw std::invalid_argument("bgemm_binarize tiled: matrix tile width does not match kernel");
  }
  if (w.row_words() != a.words_per_row()) {
    throw std::invalid_argument("bgemm_binarize tiled: N mismatch");
  }
  if (out.rows() != a.rows() || out.cols() != w.rows()) {
    throw std::invalid_argument("bgemm_binarize tiled: output mis-shaped");
  }
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm_binarize tiled: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const std::int64_t out_words = out.words_per_row();
  const std::int64_t tiles = w.tiles();
  const TileLimits<kT> tile_limits(limits, a.cols(), k_rows);
  // One grain per (output word, row of A), word-major, as in the raw dot.
  pool.parallel_for(out_words * m_rows, [&](runtime::Range r, int) {
    for_each_row_segment(r, out_words, m_rows, [&](std::int64_t, std::int64_t wi,
                                                   std::int64_t m0, std::int64_t m1) {
      const std::int64_t k0 = wi * 64;
      const std::int64_t block = std::min<std::int64_t>(64, k_rows - k0);
      for_each_block<kP>(m0, m1, [&](auto q, std::int64_t m) {
        constexpr std::int64_t kQ = decltype(q)::value;
        std::uint64_t packed[kQ] = {};
        // k0 is a multiple of 64, hence of kT, so tiles align to this word's
        // bit positions; kT divides 64, so no tile straddles the word, and
        // the last tile's pad lanes still fall inside it.
        for (std::int64_t b = 0; b < block; b += kT) {
          const std::int64_t t = (k0 + b) / kT;
          Tile acc[kQ] = {};
          accumulate_runs<kQ>(acc, a.row(m), n_words, n_words, w.tile_block(t));
          const std::int64_t* lim =
              t < tiles - 1 ? tile_limits.first() + t * tile_limits.step() : tile_limits.last();
          for (std::int64_t j = 0; j < kQ; ++j) packed[j] |= acc[j].le_mask(lim) << b;
        }
        for (std::int64_t j = 0; j < kQ; ++j) out.row(m + j)[wi] = packed[j];
      });
    });
  });
}

}  // namespace bitflow::kernels::impl

/// Stamps out the register-tiled bgemm entry points of one per-ISA TU (see
/// BITFLOW_INSTANTIATE_PRESSEDCONV_TILED).
#define BITFLOW_INSTANTIATE_BGEMM_TILED(SUFFIX, OPS, TILE)                                      \
  namespace bitflow::kernels::detail {                                                          \
  void bgemm_rows_tiled_##SUFFIX(const PackedMatrix& a, std::int64_t m_rows,                    \
                                 const TiledBitMatrix& w, runtime::ThreadPool& pool,            \
                                 float* y) {                                                    \
    impl::bgemm_rows_tiled_impl<OPS, TILE>(a, m_rows, w, pool, y);                              \
  }                                                                                             \
  void bgemm_binarize_rows_tiled_##SUFFIX(const PackedMatrix& a, std::int64_t m_rows,           \
                                          const TiledBitMatrix& w, const std::int64_t* limits,  \
                                          runtime::ThreadPool& pool, PackedMatrix& out) {       \
    impl::bgemm_binarize_rows_tiled_impl<OPS, TILE>(a, m_rows, w, limits, pool, out);           \
  }                                                                                             \
  }  // namespace bitflow::kernels::detail
