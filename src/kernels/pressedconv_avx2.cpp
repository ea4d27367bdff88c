// PressedConv and bgemm, AVX2 TU: 256-bit tile accumulators.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx2 {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx2;
};
}  // namespace

// Tile width 16: four 256-bit qword accumulators.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx2, OpsAvx2, bitflow::simd::inl::TileAcc16Avx2)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx2, OpsAvx2, bitflow::simd::inl::TileAcc16Avx2)
