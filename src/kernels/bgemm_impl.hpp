// bgemm inner loops, templated over an ISA policy and a register-tile
// accumulator (same scheme as pressedconv_impl.hpp — included only by the
// per-ISA kernel TUs).
//
// The weight matrix W is in the T-way register-tile layout
// (bitpack::tile_fc_weights): for each activation word, the T = Tile::kWidth
// matching weight words are one contiguous line, and the T neuron counters
// stay in registers across the whole activation row; the fused binarize
// compares them against the T popcount limits in registers.  Remainder
// neurons (K % T, all of them when K < T) are stored row-major after the
// tiles and take the policy's word-run xor_popcount.
//
// Batch-N: the kernels compute only the first `m_rows` rows of A (the
// serving path keeps a max_batch-row activation matrix and fills the first
// n rows per micro-batch).  The M and K dimensions are fused into one
// parallel_for, so a batch of N requests through a small FC layer costs one
// fork/join instead of N — the same fusion PressedConv applies to N*H*W.
// Each output element depends only on its own (m, k) pair, so results are
// bit-identical for any m_rows and any thread count.
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

namespace bitflow::kernels::impl {

template <typename Ops, typename Tile>
void bgemm_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows, const TiledBitMatrix& w,
                           runtime::ThreadPool& pool, float* y) {
  constexpr std::int64_t kT = Tile::kWidth;
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
  const std::int64_t bits = a.cols();
  const auto bits32 = static_cast<std::int32_t>(bits);
  const std::int64_t full_tiles = w.full_tiles();
  const std::int64_t tiled_rows = w.tiled_rows();
  // One grain per (row of A, filter tile or remainder neuron) — the fused
  // range keeps small layers saturated at M > 1.
  const std::int64_t groups = full_tiles + w.remainder_rows();
  pool.parallel_for(m_rows * groups, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t m = idx / groups;
      const std::int64_t g = idx - m * groups;
      const std::uint64_t* xa = a.row(m);
      float* ym = y + m * k_rows;
      if (g < full_tiles) {
        Tile acc{};
        const std::uint64_t* f = w.tile_block(g);
        for (std::int64_t wi = 0; wi < n_words; ++wi, f += kT) {
          acc.accumulate(xa[wi], f);
        }
        std::uint64_t pops[kT];
        acc.reduce(pops);
        float* yk = ym + g * kT;
        for (std::int64_t l = 0; l < kT; ++l) {
          yk[l] = static_cast<float>(bits32 - 2 * static_cast<std::int32_t>(pops[l]));
        }
      } else {
        const std::int64_t rr = g - full_tiles;
        const std::uint64_t p = Ops::xor_popcount(xa, w.remainder_row(rr), n_words);
        ym[tiled_rows + rr] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p));
      }
    }
  });
}

template <typename Ops, typename Tile>
void bgemm_binarize_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows,
                                    const TiledBitMatrix& w, const std::int64_t* limits,
                                    runtime::ThreadPool& pool, PackedMatrix& out) {
  constexpr std::int64_t kT = Tile::kWidth;
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
  const std::int64_t tiled_rows = w.tiled_rows();
  const std::int64_t out_words = out.words_per_row();
  std::vector<std::int64_t> sign;
  limits = resolve_limits(limits, a.cols(), k_rows, sign);
  pool.parallel_for(m_rows * out_words, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t m = idx / out_words;
      const std::int64_t wi = idx - m * out_words;
      const std::uint64_t* xa = a.row(m);
      const std::int64_t k0 = wi * 64;
      const std::int64_t block = std::min<std::int64_t>(64, k_rows - k0);
      std::uint64_t packed = 0;
      std::int64_t b = 0;
      // k0 is a multiple of 64, hence of kT, so tiles align to this word's
      // bit positions; kT divides 64, so no tile straddles the word.
      for (; b < block && k0 + b < tiled_rows; b += kT) {
        Tile acc{};
        const std::uint64_t* f = w.tile_block((k0 + b) / kT);
        for (std::int64_t nw = 0; nw < n_words; ++nw, f += kT) {
          acc.accumulate(xa[nw], f);
        }
        packed |= acc.le_mask(limits + k0 + b) << b;
      }
      for (; b < block; ++b) {
        const std::uint64_t p =
            Ops::xor_popcount(xa, w.remainder_row(k0 + b - tiled_rows), n_words);
        packed |= limit_bit(p, limits[k0 + b]) << b;
      }
      out.row(m)[wi] = packed;
    }
  });
}

}  // namespace bitflow::kernels::impl

/// Stamps out the register-tiled bgemm entry points for one (ISA policy,
/// tile accumulator) pair — one invocation per supported tile width.
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
