// PressedConv and bgemm, AVX-512 TU with native VPOPCNTDQ (Table I
// _mm512_popcnt_epi64 / maskz forms) — the paper's Xeon Phi path.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Vp {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx512;
};
}  // namespace

// The same tile as the LUT TU; TileAcc16Avx512's popcount_epi64_512 lowers
// to native VPOPCNTDQ in this TU's -m flags — same struct, different
// instruction selection.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512vp, OpsAvx512Vp, bitflow::simd::inl::TileAcc16Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512vp, OpsAvx512Vp, bitflow::simd::inl::TileAcc16Avx512)
