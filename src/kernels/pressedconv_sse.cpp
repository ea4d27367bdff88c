// PressedConv and bgemm, SSE TU.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsSse {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kSse;
};
}  // namespace

// 128-bit SSE has no profitable qword popcount fan-out, so the tile uses
// four scalar hardware-popcnt chains.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(sse, OpsSse, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(sse, OpsSse, bitflow::simd::inl::TileAcc4Scalar)
