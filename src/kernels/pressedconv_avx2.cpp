// PressedConv and bgemm, AVX2 TU: 256-bit tile accumulators.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx2 {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx2;
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx2(a, b, n);
  }
};
}  // namespace

// Tile widths: scalar 4-chain, vector 8 and 16 (the default).
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx2_t4, OpsAvx2, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx2_t8, OpsAvx2, bitflow::simd::inl::TileAcc8Avx2)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx2_t16, OpsAvx2, bitflow::simd::inl::TileAcc16Avx2)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx2_t4, OpsAvx2, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx2_t8, OpsAvx2, bitflow::simd::inl::TileAcc8Avx2)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx2_t16, OpsAvx2, bitflow::simd::inl::TileAcc16Avx2)
