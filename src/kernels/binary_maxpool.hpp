// Binary max pooling (paper Sec. III-C).
//
// Under the {-1 -> 0, +1 -> 1} encoding, max of a window of binary values is
// the bitwise OR of their packed words: any +1 in the window wins.  The
// kernel keeps the NHWC channel packing, so one output pixel is the OR of
// pool_h * pool_w word runs of words_per_pixel each.
//
// Execution: for each output row, the window's input rows are OR-ed
// vertically into a scratch row (long contiguous runs — this is where SIMD
// pays off), then the horizontal window combine gathers the per-pixel words.
// The scratch row is kPoolScratchWords on the worker's stack, so a call
// allocates nothing; an input row wider than that is pooled in chunks of
// whole windows.  Multi-core parallelism is over the fused batch * output
// rows range, so a batch costs one fork/join.
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

/// Words of the vertical-OR scratch row each worker keeps on its stack
/// (8 KiB).  A window row, pool_w * words_per_pixel words, must fit in it:
/// up to 32768 channels for a 2-wide window.
inline constexpr std::int64_t kPoolScratchWords = 1024;

/// OR-pools a batch of `n` images: in[b] into the interior of out[b] at
/// offset `margin` per side (same zero-cost padding contract as the fused
/// binarize PressedConv), writing every interior word whole.  All in[b]
/// share in[0]'s extents, and every out[b] has extents (out_h + 2*margin,
/// out_w + 2*margin, C).  The SIMD level of the vertical OR pass is `isa`.
/// Output b is bit-identical to an n = 1 call over in[b].  Throws
/// std::invalid_argument on mis-shaped operands or a window row wider than
/// kPoolScratchWords.
void binary_maxpool(const PackedTensor* const* in, std::int64_t n, const PoolSpec& spec,
                    simd::IsaLevel isa, runtime::ThreadPool& pool, PackedTensor* const* out,
                    std::int64_t margin);

/// Single image: the n = 1 call of the batch form.
void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, simd::IsaLevel isa,
                    runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin);

/// Dispatching wrapper (widest hardware ISA).
void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, runtime::ThreadPool& pool,
                    PackedTensor& out, std::int64_t margin);

}  // namespace bitflow::kernels
