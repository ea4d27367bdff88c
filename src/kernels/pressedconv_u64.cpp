// PressedConv and bgemm, scalar 64-bit TU: hardware popcnt chains, the
// kernels every x86-64 host can run (and the simd.force_fallback target).
// An SSE cap runs them too: 128-bit SSE has no vector popcount, so the
// scalar tile is its tile.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsU64 {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kU64;
};
}  // namespace

// Tile width 4: four independent popcnt chains.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(u64, OpsU64, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(u64, OpsU64, bitflow::simd::inl::TileAcc4Scalar)
