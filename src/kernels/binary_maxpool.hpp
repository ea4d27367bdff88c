// Binary max pooling (paper Sec. III-C).
//
// Under the {-1 -> 0, +1 -> 1} encoding, max of a window of binary values is
// the bitwise OR of their packed words: any +1 in the window wins.  The
// kernel keeps the NHWC channel packing, so one output pixel is the OR of
// pool_h * pool_w word runs of words_per_pixel each.
//
// Execution: for each output row, the window's input rows are OR-ed
// vertically into a full-width scratch row (long contiguous runs — this is
// where SIMD pays off), then the horizontal window combine gathers the
// per-pixel words.  Multi-core parallelism is over output rows.
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels {

/// Pooling window geometry.
struct PoolSpec {
  std::int64_t pool_h = 2;
  std::int64_t pool_w = 2;
  std::int64_t stride = 2;

  [[nodiscard]] std::int64_t out_h(std::int64_t in_h) const noexcept {
    return (in_h - pool_h) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w(std::int64_t in_w) const noexcept {
    return (in_w - pool_w) / stride + 1;
  }
};

/// OR-pools `in` into the interior of `out` at offset `margin` per side
/// (same zero-cost padding contract as the fused binarize PressedConv).  `out`
/// extents must be (out_h + 2*margin, out_w + 2*margin, C).  The SIMD level
/// of the vertical OR pass is `isa`.
void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, simd::IsaLevel isa,
                    runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin);

/// Dispatching wrapper (widest hardware ISA).
void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, runtime::ThreadPool& pool,
                    PackedTensor& out, std::int64_t margin);

}  // namespace bitflow::kernels
