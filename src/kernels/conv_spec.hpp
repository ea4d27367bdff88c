// Convolution geometry shared by every conv kernel in the repository.
//
// BitFlow kernels compute *valid* convolutions: spatial padding is realized
// upstream by writing the producing layer's output into the interior of a
// pre-allocated, zero-initialized buffer (paper Fig. 5, "zero-cost
// padding"), so by the time a kernel runs, its input already carries the
// margin.  Padding bits are 0, which decode to -1 under the BNN encoding.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/check.hpp"
#include "simd/isa.hpp"

namespace bitflow::kernels {

/// Register-tile width T of the interleaved layout on a given ISA: how many
/// filters one TileAcc tracks at once.  4 on scalar/SSE (four independent
/// 64-bit popcnt chains), 16 on AVX2/AVX-512 (qword lanes of four 256-bit or
/// two 512-bit accumulators).  Each ISA has this one width: a bank holds
/// ceil(K / T) whole tiles, the last one padded with zero rows.  T divides
/// 64, so filter tiles never straddle a 64-bit output word in the
/// fused-binarize kernels.
[[nodiscard]] constexpr std::int64_t weight_tile_width(simd::IsaLevel isa) noexcept {
  return isa >= simd::IsaLevel::kAvx2 ? 16 : 4;
}

/// Register-block height P of the `isa` kernels: how many output pixels of
/// one row (conv) or batch rows (bgemm) share each T-word filter tile row
/// load, with P x T counters in registers.  A compile-time constant of each
/// instantiation, chosen by measurement (EXPERIMENTS.md, "2-D register
/// tiles"): the P x T counters fill eight registers of the tile's
/// accumulator type — 2 x 4 64-bit GPRs on u64/SSE, 2 x 4 ymm on AVX2,
/// 4 x 2 zmm on AVX-512.  Outputs left at the end of a row or of a thread's
/// block run the same kernel at P = 1.
[[nodiscard]] constexpr std::int64_t pixel_block(simd::IsaLevel isa) noexcept {
  return isa == simd::IsaLevel::kAvx512 ? 4 : 2;
}

/// The raw-dot kernels reject a filter or weight row of this many words or
/// more.  Their tile epilogue computes the dot bits - 2p in int32, so it
/// vectorizes to one narrowing and one int-to-float conversion; that is
/// exact while bits < 2^30 (p <= bits under the zero-tail invariant).
inline constexpr std::int64_t kMaxDotRowWords = std::int64_t{1} << 24;

/// The popcount limits a fused binarize kernel compares the register tiles
/// of a K-filter bank against: tile t of the layer's K `limits` reads
/// first() + t * step() — limits[t*T, t*T + T), or, when `limits` is null
/// (sign(dot): p <= bits / 2 for every filter), the same T sign limits
/// (step 0) — except the last tile, which reads last(): a kernel-local copy
/// padded with -1, which no popcount passes, so its pad lanes (the bank's
/// zero pad rows) always yield 0 bits.  Two T-entry arrays on the kernel's
/// stack: nothing is allocated.
template <std::int64_t T>
class TileLimits {
 public:
  TileLimits(const std::int64_t* limits, std::int64_t bits, std::int64_t k) noexcept
      : first_(limits != nullptr ? limits : sign_), step_(limits != nullptr ? T : 0) {
    const std::int64_t last_tile = (k - 1) / T;
    for (std::int64_t l = 0; l < T; ++l) {
      const std::int64_t f = last_tile * T + l;
      sign_[l] = bits / 2;
      last_[l] = f >= k ? -1 : limits != nullptr ? limits[f] : bits / 2;
    }
  }
  TileLimits(const TileLimits&) = delete;
  TileLimits& operator=(const TileLimits&) = delete;

  [[nodiscard]] const std::int64_t* first() const noexcept { return first_; }
  [[nodiscard]] std::int64_t step() const noexcept { return step_; }
  [[nodiscard]] const std::int64_t* last() const noexcept { return last_; }

 private:
  const std::int64_t* first_;
  std::int64_t step_;
  std::int64_t sign_[T];
  std::int64_t last_[T];
};

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
