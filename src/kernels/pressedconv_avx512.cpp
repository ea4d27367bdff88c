// PressedConv and bgemm, AVX-512 TU without VPOPCNTDQ (byte-LUT popcount):
// the portable AVX-512 path for CPUs like Skylake-SP.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Lut {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx512;
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx512(a, b, n);
  }
};
}  // namespace

// Tile widths: scalar 4-chain, one or two 512-bit accumulators (T = 16,
// the default; popcount lowers to the byte-LUT in this TU's -m flags).
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512_t4, OpsAvx512Lut,
                                      bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512_t8, OpsAvx512Lut,
                                      bitflow::simd::inl::TileAcc8Avx512)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512_t16, OpsAvx512Lut,
                                      bitflow::simd::inl::TileAcc16Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512_t4, OpsAvx512Lut, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512_t8, OpsAvx512Lut, bitflow::simd::inl::TileAcc8Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512_t16, OpsAvx512Lut, bitflow::simd::inl::TileAcc16Avx512)
