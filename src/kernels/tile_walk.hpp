// The walk both register-tiled kernel families share (pressedconv_impl.hpp
// and bgemm_impl.hpp): a thread's static block of the fused output range,
// row by row, in blocks of P adjacent outputs that share every filter tile
// row load.
//
// A kernel's output range is images x rows x width: conv walks
// n x out_h x out_w pixels, bgemm groups x m_rows with one image.  Each
// thread divides once, at the start of its block, and then steps x, the row
// and the image.  Within a row it runs P x T accumulators over blocks of P
// adjacent outputs, so each T-word tile row is loaded once per block
// instead of once per output; the outputs left at the end of a row or of
// the block run the same template at P = 1.  Results do not depend on P or
// on the thread count: every output still reduces its own window in the
// same word order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "runtime/thread_pool.hpp"

namespace bitflow::kernels::impl {

/// Calls run(image, row, x0, x1) for each segment [x0, x1) of one row that
/// the non-empty static block `r` of an images x `rows` x `width` range
/// covers, in order: one division at the block start, then increments.
template <typename Run>
inline void for_each_row_segment(runtime::Range r, std::int64_t rows, std::int64_t width,
                                 Run&& run) {
  const std::int64_t per_image = rows * width;
  std::int64_t image = r.begin / per_image;
  const std::int64_t rest = r.begin - image * per_image;
  std::int64_t row = rest / width;
  std::int64_t x = rest - row * width;
  for (std::int64_t left = r.size(); left > 0; x = 0) {
    const std::int64_t x1 = std::min(width, x + left);
    run(image, row, x, x1);
    left -= x1 - x;
    if (++row == rows) {
      row = 0;
      ++image;
    }
  }
}

/// Splits [x0, x1) into blocks of P adjacent outputs and a tail of single
/// ones: block(std::integral_constant<std::int64_t, Q>{}, x) with Q = P or
/// Q = 1, so both stamp one template body.
template <std::int64_t P, typename Block>
inline void for_each_block(std::int64_t x0, std::int64_t x1, Block&& block) {
  std::int64_t x = x0;
  if constexpr (P > 1) {
    for (; x + P <= x1; x += P) block(std::integral_constant<std::int64_t, P>{}, x);
  }
  for (; x < x1; ++x) block(std::integral_constant<std::int64_t, 1>{}, x);
}

/// Adds the xor-popcounts of Q activation runs of `n` words (run j starts at
/// a + j * step) against the n interleaved tile rows at `f` into acc[0..Q):
/// each T-word tile row is loaded once and fanned out across the Q
/// accumulators.  Returns `f` advanced past the n tile rows.
template <std::int64_t Q, typename Tile>
inline const std::uint64_t* accumulate_runs(Tile* acc, const std::uint64_t* a, std::int64_t step,
                                            std::int64_t n, const std::uint64_t* f) {
  for (std::int64_t w = 0; w < n; ++w, f += Tile::kWidth) {
    for (std::int64_t j = 0; j < Q; ++j) acc[j].accumulate(a[j * step + w], f);
  }
  return f;
}

}  // namespace bitflow::kernels::impl
