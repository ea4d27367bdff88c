// Runtime dispatch front for the per-ISA bgemm kernels.
#include "kernels/bgemm.hpp"

#include <stdexcept>
#include <string>

namespace bitflow::kernels {

namespace detail {
// Defined by BITFLOW_INSTANTIATE_BGEMM_TILED in the per-ISA TUs, one suffix
// per (ISA, tile width) pair the TU stamps.
#define BITFLOW_DECLARE_BGEMM_TILED(SUFFIX)                                                    \
  void bgemm_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t, const TiledBitMatrix&,     \
                                 runtime::ThreadPool&, float*);                                \
  void bgemm_binarize_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t,                   \
                                          const TiledBitMatrix&, const std::int64_t*,          \
                                          runtime::ThreadPool&, PackedMatrix&);
BITFLOW_DECLARE_BGEMM_TILED(u64_t4)
BITFLOW_DECLARE_BGEMM_TILED(sse_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t16)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t16)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t16)
#undef BITFLOW_DECLARE_BGEMM_TILED
}  // namespace detail

// Nested (ISA, tile width) dispatch, same scheme as pressedconv.cpp: an
// (isa, tile) pair with no instantiation throws rather than falling back.
#define BITFLOW_TILED_DISPATCH(NAME, GETTER)                                                  \
  switch (isa) {                                                                              \
    case simd::IsaLevel::kU64:                                                                \
      if (tile == 4) return &detail::NAME##_u64_t4;                                           \
      break;                                                                                  \
    case simd::IsaLevel::kSse:                                                                \
      if (tile == 4) return &detail::NAME##_sse_t4;                                           \
      break;                                                                                  \
    case simd::IsaLevel::kAvx2:                                                               \
      if (tile == 4) return &detail::NAME##_avx2_t4;                                          \
      if (tile == 8) return &detail::NAME##_avx2_t8;                                          \
      if (tile == 16) return &detail::NAME##_avx2_t16;                                        \
      break;                                                                                  \
    case simd::IsaLevel::kAvx512:                                                             \
      if (tile == 4) return use_vpopcntdq ? &detail::NAME##_avx512vp_t4                       \
                                          : &detail::NAME##_avx512_t4;                        \
      if (tile == 8) return use_vpopcntdq ? &detail::NAME##_avx512vp_t8                       \
                                          : &detail::NAME##_avx512_t8;                        \
      if (tile == 16) return use_vpopcntdq ? &detail::NAME##_avx512vp_t16                     \
                                           : &detail::NAME##_avx512_t16;                      \
      break;                                                                                  \
  }                                                                                           \
  throw std::invalid_argument(GETTER ": no instantiation for (isa, tile " +                   \
                              std::to_string(tile) + ")")

BgemmFn bgemm_kernel(simd::IsaLevel isa, bool use_vpopcntdq, std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(bgemm_rows_tiled, "bgemm_kernel");
}

BgemmBinarizeFn bgemm_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                      std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(bgemm_binarize_rows_tiled, "bgemm_binarize_kernel");
}

}  // namespace bitflow::kernels
