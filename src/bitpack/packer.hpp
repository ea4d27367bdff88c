// Binarization + bit-packing transforms.
//
// Encoding convention (paper Sec. III, Eq. 3):  sign(x) = +1 for x >= 0
// (bit 1), -1 for x < 0 (bit 0).  All packers zero the tail bits of the last
// word so the Eq. 1 identity holds (see packed_tensor.hpp).
//
// Activations are packed along the channel dimension of an HWC tensor
// (PressedConv step 1, Fig. 3); filters likewise (step 2).  Fully connected
// weights use the fused binarize + pack + transpose of Table III.
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::bitpack {

// --- activations -----------------------------------------------------------

/// Packs an HWC float tensor along its channel dimension, choosing the
/// fastest implementation for the executing CPU.
PackedTensor pack_activations(const Tensor& hwc);

/// Paper-faithful scalar packer built on the Table II bit64_u bit-field
/// union: binarization and packing fused into one pass.
PackedTensor pack_activations_scalar(const Tensor& hwc);

/// AVX2 packer: 8-lane `>= 0` compares folded to bytes via movemask
/// (requires AVX2 at runtime; used automatically by pack_activations).
PackedTensor pack_activations_avx2(const Tensor& hwc);

namespace detail {
/// pack_activations_avx2's loop on raw words, alone in its -mavx2 TU: packs
/// `pixels` HWC pixels of `c` floats each into `pc` words per pixel.
void pack_pixels_avx2(const float* src, std::int64_t pixels, std::int64_t c, std::int64_t pc,
                      std::uint64_t* dst);
}  // namespace detail

/// Packs a channel-planar (CHW) tensor.  The strided gathers this forces are
/// the reason BitFlow adopts NHWC; kept for the layout ablation.
PackedTensor pack_activations_from_chw(const Tensor& chw);

/// Writes the packed form of `hwc` into an existing packed tensor of
/// identical extents (no allocation — used by the pre-allocating engine).
void pack_activations_into(const Tensor& hwc, PackedTensor& out);

/// Packs `hwc` into the interior of `out`, leaving a `margin`-pixel border
/// untouched on every side (out extents = hwc extents + 2*margin).  This is
/// how the engine's input stage realizes the first convolution's padding at
/// zero cost.
void pack_activations_into_interior(const Tensor& hwc, PackedTensor& out, std::int64_t margin);

/// Multi-threaded variant: rows are split across the pool's workers (the
/// engine's input stage, so the pack scales with the conv layers).
void pack_activations_into_interior(const Tensor& hwc, PackedTensor& out, std::int64_t margin,
                                    runtime::ThreadPool& pool);

/// Packs `hwc` into the interior of `out` like pack_activations_into_interior,
/// but with a per-channel threshold: bit (h,w,c) = hwc(h,w,c) >= thresholds[c]
/// (null thresholds = zero).  Used by the full-precision first-layer stage to
/// binarize its float convolution outputs straight into the next layer's
/// padded buffer.
void pack_thresholded_into_interior(const Tensor& hwc, const float* thresholds,
                                    PackedTensor& out, std::int64_t margin);

/// Flattens a packed H x W x C tensor into one packed row of H*W*C bits in
/// HWC order (the conv/pool -> fully-connected transition).  When C is a
/// multiple of 64 this is a straight word copy; otherwise the per-pixel tail
/// gaps are squeezed out bit by bit.  `out` must be a 1 x (H*W*C) matrix.
void flatten_packed(const PackedTensor& t, PackedMatrix& out);

/// Same flatten, but into row `row` of a multi-row matrix (the batch-N
/// serving path keeps one max_batch-row activation matrix and flattens each
/// image of a micro-batch into its own row).  `out.cols()` must be H*W*C.
void flatten_packed_row(const PackedTensor& t, PackedMatrix& out, std::int64_t row);

/// Binarizes + packs `count` floats into row `row` of `out` (tail bits
/// zero), without allocating — the multi-row counterpart of pack_rows.
void pack_row_into(const float* x, std::int64_t count, PackedMatrix& out, std::int64_t row);

// --- filters ---------------------------------------------------------------

/// Packs a float filter bank along the channel dimension (one-time,
/// at network initialization).
PackedFilterBank pack_filters(const FilterBank& filters);

/// Re-lays a packed filter bank into the T-way interleaved register-tile
/// layout (daBNN-style; once per process, see graph/weights.hpp): whole
/// tiles [ceil(K/T)][fh*fw*PC][T], the last one padded with zero filters.
/// Done in place: the bank is taken by value and its storage becomes the
/// tiled bank's, so the weights are never held twice (move the bank in;
/// pass a copy to keep the original).  Only when T does not divide K is the
/// storage first grown by the T - K % T zero pad filters.
TiledFilterBank tile_filters(PackedFilterBank filters, std::int64_t tile);

/// Same interleave for an FC weight matrix (rows = output neurons): the
/// tiled bgemm reads one contiguous line of T neuron words per activation
/// word instead of T strided rows.  Also in place on the matrix's storage,
/// grown only when T does not divide the row count.
TiledBitMatrix tile_fc_weights(PackedMatrix w, std::int64_t tile);

/// Writes one T-way tile block: `rows` holds `tile` rows of `row_words`
/// words each, row-major, and `block` receives them word-major ([w][lane],
/// TiledBitMatrix::tile_block's layout).  The two must not overlap.  The one
/// interleave behind tile_filters/tile_fc_weights and the model loader's
/// streamed lowering (graph/weights.hpp).
void interleave_block(const std::uint64_t* rows, std::int64_t tile, std::int64_t row_words,
                      std::uint64_t* block) noexcept;

// --- fully connected weights ------------------------------------------------

/// Fused binarize + bit-pack + implicit transpose (Table III): input is the
/// row-major n x k float weight matrix B, output row j holds the packed
/// column j of B, i.e. the packed weight vector of output neuron j.
/// `n` must be the number of input neurons, `k` the number of outputs.
PackedMatrix pack_transpose_fc_weights(const float* b, std::int64_t n, std::int64_t k);

/// Staged version of the same transform (binarize to a side buffer, then
/// transpose, then pack) — the fusion ablation's baseline.
PackedMatrix pack_transpose_fc_weights_unfused(const float* b, std::int64_t n, std::int64_t k);

/// Packs `rows` row-major float vectors of length `cols` without transposing
/// (used for FC activations, batch = 1 in practice).
PackedMatrix pack_rows(const float* x, std::int64_t rows, std::int64_t cols);

// --- decoding (tests / debugging) -------------------------------------------

/// Decodes a packed tensor back to a +-1.0f HWC float tensor.
Tensor unpack_to_signs(const PackedTensor& packed);

/// Decodes a packed filter bank back to +-1.0f floats.
FilterBank unpack_to_signs(const PackedFilterBank& packed);

}  // namespace bitflow::bitpack
