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
/// This is the width graph::default_kernel_plan commits when K covers it;
/// otherwise it takes the largest supported width <= K, and 4 when K < 4.
[[nodiscard]] constexpr std::int64_t weight_tile_width(simd::IsaLevel isa) noexcept {
  return isa >= simd::IsaLevel::kAvx2 ? 16 : 4;
}

/// The fused binarize's output bit for a filter whose xor-popcount is `pops`:
/// set iff pops <= `limit` (see graph::popcount_limit for how a float
/// threshold becomes that limit; -1 clears it for every popcount).
[[nodiscard]] inline std::uint64_t limit_bit(std::uint64_t pops, std::int64_t limit) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(pops) <= limit);
}

/// The raw-dot kernels reject a filter or weight row of this many words or
/// more.  Their tile epilogue computes the dot bits - 2p in int32, so it
/// vectorizes to one narrowing and one int-to-float conversion; that is
/// exact while bits < 2^30 (p <= bits under the zero-tail invariant).
inline constexpr std::int64_t kMaxDotRowWords = std::int64_t{1} << 24;

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

/// The register-tile widths an ISA has kernel instantiations for.
/// Scalar/SSE stamp T = 4 (four independent popcnt chains); AVX2/AVX-512
/// stamp T in {4, 8, 16}, so a layer with 4 <= K < 16 still fills a tile
/// (graph::default_kernel_plan).  Every width divides 64 (tiles never
/// straddle an output word).
struct TileWidthSet {
  std::array<std::int64_t, 3> widths{};
  std::int64_t count = 0;
};

[[nodiscard]] constexpr TileWidthSet supported_tile_widths(simd::IsaLevel isa) noexcept {
  if (isa >= simd::IsaLevel::kAvx2) return TileWidthSet{{4, 8, 16}, 3};
  return TileWidthSet{{4, 0, 0}, 1};
}

/// Register-block height P of the (`isa`, `tile`) kernels: how many output
/// pixels of one row (conv) or batch rows (bgemm) share each T-word filter
/// tile row load, with P x T counters in registers.  A compile-time constant
/// of each instantiation, chosen by measurement (EXPERIMENTS.md, "2-D
/// register tiles"): the P x T counters fill eight registers of the tile's
/// accumulator type — 64-bit GPRs for the T = 4 scalar chains (P = 2),
/// ymm on AVX2 (P = 2 at T = 16, 4 at T = 8), zmm on AVX-512 (P = 4 at
/// T = 16, 8 at T = 8).  Outputs left at the end of a row or of a thread's
/// block run the same kernel at P = 1.
[[nodiscard]] constexpr std::int64_t pixel_block(simd::IsaLevel isa, std::int64_t tile) noexcept {
  const std::int64_t counters_per_register =
      tile == 4 ? 1 : (isa == simd::IsaLevel::kAvx512 ? 8 : 4);
  return 8 * counters_per_register / tile;
}

/// Geometry of one convolution: filter extents and stride.  Output extents
/// follow from the (already padded) input extents.
struct ConvSpec {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;

  /// Contract check on the geometry itself (independent of any input):
  /// positive filter extents and stride.
  void validate() const {
    BF_CHECK(kernel_h >= 1 && kernel_w >= 1, "ConvSpec: filter extents ", kernel_h, "x",
             kernel_w);
    BF_CHECK(stride >= 1, "ConvSpec: stride ", stride);
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
