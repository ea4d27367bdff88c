// PressedConv and bgemm, AVX-512 TU without VPOPCNTDQ (byte-LUT popcount):
// the portable AVX-512 path for CPUs like Skylake-SP.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Lut {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx512;
};
}  // namespace

// Tile width 16: two 512-bit accumulators; popcount lowers to the byte-LUT
// in this TU's -m flags.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512, OpsAvx512Lut, bitflow::simd::inl::TileAcc16Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512, OpsAvx512Lut, bitflow::simd::inl::TileAcc16Avx512)
