// Convolution geometry shared by every conv kernel in the repository.
//
// BitFlow kernels compute *valid* convolutions: spatial padding is realized
// upstream by writing the producing layer's output into the interior of a
// pre-allocated, zero-initialized buffer (paper Fig. 5, "zero-cost
// padding"), so by the time a kernel runs, its input already carries the
// margin.  Padding bits are 0, which decode to -1 under the BNN encoding.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/check.hpp"
#include "simd/isa.hpp"

namespace bitflow::kernels {

/// Register-tile width T for the interleaved layout on a given ISA: how many
/// filters one TileAcc tracks at once.  4 on scalar/SSE (four independent
/// 64-bit popcnt chains), 16 on AVX2/AVX-512 (qword lanes of four 256-bit or
/// two 512-bit accumulators).  T always divides 64, so filter tiles never
/// straddle a 64-bit output word in the fused-binarize kernels.
///
/// This is the *default* width — what finalize() commits when auto-tuning is
/// off and K covers it (graph::default_kernel_plan takes the largest
/// supported width <= K otherwise, and 4 when K < 4).  The tuner searches
/// over supported_tile_widths().
[[nodiscard]] constexpr std::int64_t weight_tile_width(simd::IsaLevel isa) noexcept {
  return isa >= simd::IsaLevel::kAvx2 ? 16 : 4;
}

/// The fused binarize's output bit for a filter whose xor-popcount is `pops`:
/// set iff pops <= `limit` (see graph::popcount_limit for how a float
/// threshold becomes that limit; -1 clears it for every popcount).
[[nodiscard]] inline std::uint64_t limit_bit(std::uint64_t pops, std::int64_t limit) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(pops) <= limit);
}

/// The popcount limits of sign(dot) for `k` filters of `bits` bits:
/// bits - 2p >= 0, i.e. p <= bits / 2.
[[nodiscard]] inline std::vector<std::int64_t> sign_limits(std::int64_t bits, std::int64_t k) {
  return std::vector<std::int64_t>(static_cast<std::size_t>(k), bits / 2);
}

/// Resolves the `limits` argument of a fused binarize kernel: null means
/// sign(dot), materialized into `storage`.
[[nodiscard]] inline const std::int64_t* resolve_limits(const std::int64_t* limits,
                                                        std::int64_t bits, std::int64_t k,
                                                        std::vector<std::int64_t>& storage) {
  if (limits != nullptr) return limits;
  storage = sign_limits(bits, k);
  return storage.data();
}

/// The register-tile widths an ISA has kernel instantiations for — the
/// auto-tuner's candidate set.  Scalar/SSE stamp T in {4, 8} (independent
/// popcnt chains); AVX2/AVX-512 add T = 16 (two/four vector accumulators).
/// Every width divides 64 (tiles never straddle an output word).
struct TileWidthSet {
  std::array<std::int64_t, 3> widths{};
  std::int64_t count = 0;
  [[nodiscard]] bool contains(std::int64_t t) const noexcept {
    for (std::int64_t i = 0; i < count; ++i) {
      if (widths[static_cast<std::size_t>(i)] == t) return true;
    }
    return false;
  }
};

[[nodiscard]] constexpr TileWidthSet supported_tile_widths(simd::IsaLevel isa) noexcept {
  if (isa >= simd::IsaLevel::kAvx2) return TileWidthSet{{4, 8, 16}, 3};
  return TileWidthSet{{4, 8, 0}, 2};
}

/// Geometry of one convolution: filter extents and stride.  Output extents
/// follow from the (already padded) input extents.
struct ConvSpec {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  /// Parallel-axis granularity for the fused n*out_h*out_w parallel_for
  /// range: static block boundaries are rounded to multiples of this, so
  /// e.g. par_grain = out_w splits work by whole output rows instead of by
  /// pixels.  1 (the default) reproduces the pixel-level split exactly.  A
  /// tuner knob only — the partition never changes any output bit, just
  /// which worker computes which pixel.
  std::int64_t par_grain = 1;

  /// Contract check on the geometry itself (independent of any input):
  /// positive filter extents and stride.
  void validate() const {
    BF_CHECK(kernel_h >= 1 && kernel_w >= 1, "ConvSpec: filter extents ", kernel_h, "x",
             kernel_w);
    BF_CHECK(stride >= 1, "ConvSpec: stride ", stride);
    BF_CHECK(par_grain >= 1, "ConvSpec: par_grain ", par_grain);
  }

  [[nodiscard]] std::int64_t out_h(std::int64_t in_h) const {
    const std::int64_t o = (in_h - kernel_h) / stride + 1;
    if (o <= 0) throw std::invalid_argument("ConvSpec: kernel taller than input");
    return o;
  }
  [[nodiscard]] std::int64_t out_w(std::int64_t in_w) const {
    const std::int64_t o = (in_w - kernel_w) / stride + 1;
    if (o <= 0) throw std::invalid_argument("ConvSpec: kernel wider than input");
    return o;
  }
};

}  // namespace bitflow::kernels
