// Runtime dispatch front for the per-ISA bgemm kernels.
#include "kernels/bgemm.hpp"

#include <stdexcept>

namespace bitflow::kernels {

namespace detail {
// Defined by BITFLOW_INSTANTIATE_BGEMM_TILED in the per-ISA TUs, one suffix
// per TU.
#define BITFLOW_DECLARE_BGEMM_TILED(SUFFIX)                                                    \
  void bgemm_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t, const TiledBitMatrix&,     \
                                 runtime::ThreadPool&, float*);                                \
  void bgemm_binarize_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t,                   \
                                          const TiledBitMatrix&, const std::int64_t*,          \
                                          runtime::ThreadPool&, PackedMatrix&);
BITFLOW_DECLARE_BGEMM_TILED(u64)
BITFLOW_DECLARE_BGEMM_TILED(avx2)
BITFLOW_DECLARE_BGEMM_TILED(avx512)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp)
#undef BITFLOW_DECLARE_BGEMM_TILED
}  // namespace detail

// The ISA dispatch, same scheme as pressedconv.cpp.
#define BITFLOW_TILED_DISPATCH(NAME, GETTER)                                                   \
  switch (isa) {                                                                               \
    case simd::IsaLevel::kU64:                                                                 \
    case simd::IsaLevel::kSse:                                                                 \
      return &detail::NAME##_u64;                                                              \
    case simd::IsaLevel::kAvx2:                                                                \
      return &detail::NAME##_avx2;                                                             \
    case simd::IsaLevel::kAvx512:                                                              \
      return use_vpopcntdq ? &detail::NAME##_avx512vp : &detail::NAME##_avx512;                \
  }                                                                                            \
  throw std::invalid_argument(GETTER ": unknown ISA level")

BgemmFn bgemm_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  BITFLOW_TILED_DISPATCH(bgemm_rows_tiled, "bgemm_kernel");
}

BgemmBinarizeFn bgemm_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  BITFLOW_TILED_DISPATCH(bgemm_binarize_rows_tiled, "bgemm_binarize_kernel");
}

}  // namespace bitflow::kernels
