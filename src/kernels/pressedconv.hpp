// PressedConv: binary convolution over channel-packed tensors (paper
// Algorithm 1, Sec. III-B).
//
// Step 1/2 (bit-packing of input and filters along the channel dimension)
// live in bitpack/packer.hpp; the functions here are step 3: convolution of
// the pressed operands, multiplications as XOR, accumulations as popcount,
// vector parallelism along C, multi-core parallelism over the fused H*W
// output range.
//
// Two output forms are provided:
//  * `_dot`      — raw Eq. 1 inner products as floats (last layer of a
//                  network, or anywhere full-precision outputs are needed);
//  * `_binarize` — fused sign(dot - threshold[k]) re-packed straight into
//                  the (optionally margin-carrying) output of the next
//                  layer.  The per-output-channel threshold is how folded
//                  batch-normalization enters a BNN at inference time; the
//                  kernels take it as an integer popcount limit per filter
//                  (graph::popcount_limit), so the epilogue is one integer
//                  compare per filter, vectorized across a register tile.
//
// Each ISA variant is compiled in its own TU with exactly that ISA enabled;
// `conv_dot_kernel(isa)` / `conv_binarize_kernel(isa)` return the variant,
// and the vector execution scheduler (graph/scheduler.hpp) chooses `isa`.
#pragma once

#include <cstdint>

#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::kernels {

/// Raw-dot PressedConv: writes Eq. 1 inner products into an HWC float tensor
/// of extents out_h x out_w x K.  `out` must be pre-shaped by the caller.
using ConvDotFn = void (*)(const PackedTensor& in, const PackedFilterBank& filters,
                           const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out);

/// Fused PressedConv + binarize: bit k of output pixel (y, x) is set iff
/// the xor-popcount p of that window against filter k is <= limits[k] —
/// `dot(y,x,k) >= threshold[k]` with the threshold lowered to a popcount
/// limit once per layer (graph::popcount_limit).  `limits` holds K entries,
/// or is null for sign(dot) (p <= bits / 2).  The result is written into the
/// interior of `out` at offset `margin` on each side; `out` extents must be
/// (out_h + 2*margin, out_w + 2*margin, K) and its margin region is left
/// untouched (zero bits = -1), realizing the next layer's padding at zero
/// cost (paper Fig. 5).
using ConvBinarizeFn = void (*)(const PackedTensor& in, const PackedFilterBank& filters,
                                const ConvSpec& spec, const std::int64_t* limits,
                                runtime::ThreadPool& pool, PackedTensor& out,
                                std::int64_t margin);

/// Batch-N raw-dot PressedConv: `in` and `out` are arrays of `n` tensor
/// pointers with identical extents; the batch axis is fused with the spatial
/// output range into one n*out_h*out_w parallel_for, so N requests cost one
/// fork/join and deep layers with small H*W still fill the pool.  Output b
/// is bit-identical to a single-image run over in[b] (the single-image entry
/// points are the n = 1 case of the same loop).
using ConvDotBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                const PackedFilterBank& filters, const ConvSpec& spec,
                                runtime::ThreadPool& pool, Tensor* const* out);

/// Batch-N fused PressedConv + binarize; see ConvBinarizeFn for the margin
/// contract, applied to each of the `n` outputs.
using ConvBinarizeBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                     const PackedFilterBank& filters, const ConvSpec& spec,
                                     const std::int64_t* limits, runtime::ThreadPool& pool,
                                     PackedTensor* const* out, std::int64_t margin);

/// Batch-N raw-dot PressedConv over the interleaved weight layout: same
/// contract as ConvDotBatchFn, but the filters are a register-tile bank
/// produced by bitpack::tile_filters with tile = weight_tile_width(isa).
/// These kernels vectorize along K (one activation word against T filter
/// words), not along C, so any channel count fills every lane.  Bit-exact
/// with the filter-major kernels; throws std::invalid_argument if the
/// bank's tile width does not match the kernel's.
using ConvDotTiledBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                     const TiledFilterBank& filters, const ConvSpec& spec,
                                     runtime::ThreadPool& pool, Tensor* const* out);

/// Batch-N fused PressedConv + binarize over the interleaved weight layout;
/// see ConvBinarizeBatchFn for the margin contract.
using ConvBinarizeTiledBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                          const TiledFilterBank& filters, const ConvSpec& spec,
                                          const std::int64_t* limits, runtime::ThreadPool& pool,
                                          PackedTensor* const* out, std::int64_t margin);

/// Returns the raw-dot kernel compiled for `isa`.  The caller must have
/// verified hardware support (simd::cpu_features().supports(isa)).
[[nodiscard]] ConvDotFn conv_dot_kernel(simd::IsaLevel isa);

/// Returns the fused binarize kernel compiled for `isa`.
[[nodiscard]] ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa);

/// Batch-N counterparts of the kernel getters.
[[nodiscard]] ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa);
[[nodiscard]] ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa);
[[nodiscard]] ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa,
                                                             bool use_vpopcntdq);

/// Register-tiled kernel getters (interleaved weight layout).  The bank's
/// tile width must match the kernel's; the overloads without an explicit
/// `tile` return the weight_tile_width(isa) default, and single-image
/// callers pass n = 1 — the batch entry points are the only tiled entry
/// points.
[[nodiscard]] ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa);
[[nodiscard]] ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa);
[[nodiscard]] ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa,
                                                              bool use_vpopcntdq);
[[nodiscard]] ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq);

/// Tile-parameterized getters for the auto-tuner: `tile` must be one of
/// supported_tile_widths(isa) (throws std::invalid_argument otherwise).
[[nodiscard]] ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa,
                                                              bool use_vpopcntdq,
                                                              std::int64_t tile);
[[nodiscard]] ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq,
                                                                        std::int64_t tile);

/// Variant-pinned overloads: at kAvx512, `use_vpopcntdq` selects between the
/// byte-LUT TU and the native-VPOPCNTDQ TU instead of deferring to CPUID (the
/// ISA-parity harness exercises both on capable hosts).  At narrower levels
/// the flag is ignored.
[[nodiscard]] ConvDotFn conv_dot_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

/// Convenience wrappers that dispatch to the widest kernel the executing CPU
/// supports (the scheduler picks ISAs per layer; these pick purely by
/// hardware).
void pressed_conv_dot(const PackedTensor& in, const PackedFilterBank& filters,
                      const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out);

void pressed_conv_binarize(const PackedTensor& in, const PackedFilterBank& filters,
                           const ConvSpec& spec, const std::int64_t* limits,
                           runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin);

/// Validates extents shared by every PressedConv entry point; throws
/// std::invalid_argument on mismatch.  Exposed for reuse by baselines.
void check_conv_args(const PackedTensor& in, const PackedFilterBank& filters,
                     const ConvSpec& spec);

/// Batch variant: additionally requires n >= 1 and every image to share
/// image 0's extents (the fused range divides uniformly by out_h*out_w).
void check_conv_batch_args(const PackedTensor* const* in, std::int64_t n,
                           const PackedFilterBank& filters, const ConvSpec& spec);

}  // namespace bitflow::kernels
