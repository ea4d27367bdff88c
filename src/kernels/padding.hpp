// Explicit padding of packed tensors.
//
// The engine never copy-pads on the hot path: padding is realized by
// writing layer outputs into the interior of pre-planned padded buffers
// (paper Fig. 5), whose margin ring zero_margin() clears in O(perimeter).
// Copy-padding exists for (a) standalone kernel use and tests, and (b) the
// padding ablation bench, which measures exactly the copy this avoids.
#pragma once

#include <cstdint>

#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels {

/// Returns a copy of `in` with `margin` zero-bit (-1) pixels on every side.
[[nodiscard]] PackedTensor pad_packed(const PackedTensor& in, std::int64_t margin);

/// Copies `in` into the interior of pre-allocated `out` (margin pixels on
/// each side must already be zero).  Out extents must be in + 2*margin.
void copy_into_interior(const PackedTensor& in, PackedTensor& out, std::int64_t margin);

/// Zeroes the `margin`-pixel ring around `t`'s interior and leaves the
/// interior alone: O(perimeter) stores.  The engine calls this on each
/// padded activation buffer right before its producer writes the interior,
/// because the ping-pong arena under the buffer held another layer's
/// activations the inference before.
void zero_margin(PackedTensor& t, std::int64_t margin);

}  // namespace bitflow::kernels
