// PressedConv and bgemm, SSE TU: the remainder filters' word runs use
// 128-bit XOR with scalar popcnt.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsSse {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kSse;
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_sse(a, b, n);
  }
};
}  // namespace

// 128-bit SSE has no profitable qword popcount fan-out, so the tile uses
// four scalar hardware-popcnt chains.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(sse_t4, OpsSse, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(sse_t4, OpsSse, bitflow::simd::inl::TileAcc4Scalar)
