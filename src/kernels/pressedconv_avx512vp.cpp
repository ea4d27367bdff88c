// PressedConv and bgemm, AVX-512 TU with native VPOPCNTDQ (Table I
// _mm512_popcnt_epi64 / maskz forms) — the paper's Xeon Phi path.
#include "kernels/bgemm_impl.hpp"
#include "kernels/pressedconv_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Vp {
  static constexpr bitflow::simd::IsaLevel kIsa = bitflow::simd::IsaLevel::kAvx512;
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx512(a, b, n);
  }
};
}  // namespace

// The same tile widths as the LUT TU; the TileAcc*Avx512 popcount_epi64_512
// lowers to native VPOPCNTDQ in this TU's -m flags — same structs as the
// LUT TU, different instruction selection.
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512vp_t4, OpsAvx512Vp,
                                      bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512vp_t8, OpsAvx512Vp,
                                      bitflow::simd::inl::TileAcc8Avx512)
BITFLOW_INSTANTIATE_PRESSEDCONV_TILED(avx512vp_t16, OpsAvx512Vp,
                                      bitflow::simd::inl::TileAcc16Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512vp_t4, OpsAvx512Vp, bitflow::simd::inl::TileAcc4Scalar)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512vp_t8, OpsAvx512Vp, bitflow::simd::inl::TileAcc8Avx512)
BITFLOW_INSTANTIATE_BGEMM_TILED(avx512vp_t16, OpsAvx512Vp,
                                bitflow::simd::inl::TileAcc16Avx512)
