// PressedConv: binary convolution over channel-packed tensors (paper
// Algorithm 1, Sec. III-B).
//
// Step 1/2 (bit-packing of input and filters along the channel dimension)
// live in bitpack/packer.hpp; the functions here are step 3: convolution of
// the pressed operands, multiplications as XOR, accumulations as popcount,
// multi-core parallelism over the fused batch * H * W output range.
//
// There is one kernel family.  It reads the filters in the T-way register-
// tile layout (TiledFilterBank, produced by bitpack::tile_filters) and
// vectorizes along K: one activation word is broadcast against the T
// interleaved words of a filter tile, so every lane holds a filter and no
// channel count wastes one.  A bank holds ceil(K / T) whole tiles; when T
// does not divide K the last one ends in zero pad filters, whose lanes the
// kernels neither store nor set, so every filter takes the one tiled path.
//
// Two output forms are provided:
//  * raw dot  — Eq. 1 inner products as floats (last layer of a network, or
//               anywhere full-precision outputs are needed);
//  * binarize — fused sign(dot - threshold[k]) re-packed straight into the
//               (optionally margin-carrying) output of the next layer.  The
//               per-output-channel threshold is how folded batch-
//               normalization enters a BNN at inference time; the kernels
//               take it as an integer popcount limit per filter
//               (graph::popcount_limit), so the epilogue is one integer
//               compare per filter, vectorized across a register tile.
//
// Each ISA variant is compiled in its own TU with exactly that ISA enabled,
// at its one tile width T = weight_tile_width(isa): u64 (which kSse also
// runs), AVX2, and AVX-512 with byte-LUT or VPOPCNTDQ popcounts.
// conv_dot_kernel / conv_binarize_kernel return it, and
// graph::default_kernel_plan chooses the ISA.
#pragma once

#include <cstdint>

#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::kernels {

/// Raw-dot PressedConv over a batch of `n` images: `in` and `out` are arrays
/// of `n` tensor pointers with identical extents, and out[b] receives the
/// Eq. 1 inner products of in[b] as an HWC float tensor of extents
/// out_h x out_w x K, which the caller pre-shapes.  The batch axis is fused
/// with the spatial output range into one n*out_h*out_w parallel_for, so N
/// requests cost one fork/join and deep layers with small H*W still fill the
/// pool; output b is bit-identical to an n = 1 run over in[b].  Throws
/// std::invalid_argument if the bank's tile width does not match the
/// kernel's.
using ConvDotFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                           const TiledFilterBank& filters, const ConvSpec& spec,
                           runtime::ThreadPool& pool, Tensor* const* out);

/// Fused PressedConv + binarize over a batch of `n` images: bit k of output
/// pixel (y, x) is set iff the xor-popcount p of that window against filter
/// k is <= limits[k] — `dot(y,x,k) >= threshold[k]` with the threshold
/// lowered to a popcount limit once per layer (graph::popcount_limit).
/// `limits` holds K entries, or is null for sign(dot) (p <= bits / 2); the
/// kernel allocates nothing for either.  Each
/// result is written into the interior of out[b] at offset `margin` on each
/// side; every out[b] has extents (out_h + 2*margin, out_w + 2*margin, K) and
/// its margin region is left untouched (zero bits = -1), realizing the next
/// layer's padding at zero cost (paper Fig. 5).
using ConvBinarizeFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                const TiledFilterBank& filters, const ConvSpec& spec,
                                const std::int64_t* limits, runtime::ThreadPool& pool,
                                PackedTensor* const* out, std::int64_t margin);

/// Returns the raw-dot kernel compiled for `isa`; it takes banks tiled at
/// weight_tile_width(isa).  At kAvx512, `use_vpopcntdq` selects the
/// native-VPOPCNTDQ TU over the byte-LUT one (the flag is ignored at
/// narrower levels).  kSse returns the kU64 kernel: SSE has no popcount
/// wider than the scalar one, so the u64 tile is its tile.  The caller must
/// have verified hardware support (simd::cpu_features().supports(isa)).
[[nodiscard]] ConvDotFn conv_dot_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

/// Returns the fused binarize kernel compiled for `isa`; see
/// conv_dot_kernel.
[[nodiscard]] ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

/// Validates what the kernels assume of their operands and throws
/// std::invalid_argument on a mismatch: a well-formed spec, a non-empty
/// bank whose channels and filter extents match in[0] and the spec, a
/// window that fits in[0], and n >= 1 images that all share in[0]'s extents
/// (the fused range divides uniformly by out_h*out_w).  Output extents are
/// the caller's to check.
void check_conv_args(const PackedTensor* const* in, std::int64_t n,
                     const TiledFilterBank& filters, const ConvSpec& spec);

}  // namespace bitflow::kernels
