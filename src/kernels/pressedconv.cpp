// Runtime dispatch front for the per-ISA PressedConv kernels.
#include "kernels/pressedconv.hpp"

#include <stdexcept>
#include <string>

#include "core/check.hpp"

namespace bitflow::kernels {

namespace detail {
// Defined by BITFLOW_INSTANTIATE_PRESSEDCONV_TILED in the per-ISA TUs, one
// suffix per (ISA, tile width) pair the TU stamps.
#define BITFLOW_DECLARE_PRESSEDCONV_TILED(SUFFIX)                                                \
  void conv_dot_tiled_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,                   \
                                     const TiledFilterBank&, const ConvSpec&,                    \
                                     runtime::ThreadPool&, Tensor* const*);                      \
  void conv_binarize_tiled_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,              \
                                          const TiledFilterBank&, const ConvSpec&,               \
                                          const std::int64_t*, runtime::ThreadPool&,             \
                                          PackedTensor* const*, std::int64_t);
BITFLOW_DECLARE_PRESSEDCONV_TILED(u64_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(sse_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx2_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx2_t8)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx2_t16)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512_t8)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512_t16)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512vp_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512vp_t8)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512vp_t16)
#undef BITFLOW_DECLARE_PRESSEDCONV_TILED
}  // namespace detail

// Nested (ISA, tile width) dispatch shared by the two getters: every
// stamped suffix appears exactly once; an (isa, tile) pair with no
// instantiation throws rather than silently falling back, so no plan the
// kernel layer cannot execute is ever committed.
#define BITFLOW_TILED_DISPATCH(NAME, GETTER)                                                    \
  switch (isa) {                                                                                \
    case simd::IsaLevel::kU64:                                                                  \
      if (tile == 4) return &detail::NAME##_u64_t4;                                             \
      break;                                                                                    \
    case simd::IsaLevel::kSse:                                                                  \
      if (tile == 4) return &detail::NAME##_sse_t4;                                             \
      break;                                                                                    \
    case simd::IsaLevel::kAvx2:                                                                 \
      if (tile == 4) return &detail::NAME##_avx2_t4;                                            \
      if (tile == 8) return &detail::NAME##_avx2_t8;                                            \
      if (tile == 16) return &detail::NAME##_avx2_t16;                                          \
      break;                                                                                    \
    case simd::IsaLevel::kAvx512:                                                               \
      if (tile == 4) return use_vpopcntdq ? &detail::NAME##_avx512vp_t4                         \
                                          : &detail::NAME##_avx512_t4;                          \
      if (tile == 8) return use_vpopcntdq ? &detail::NAME##_avx512vp_t8                         \
                                          : &detail::NAME##_avx512_t8;                          \
      if (tile == 16) return use_vpopcntdq ? &detail::NAME##_avx512vp_t16                       \
                                           : &detail::NAME##_avx512_t16;                        \
      break;                                                                                    \
  }                                                                                             \
  throw std::invalid_argument(GETTER ": no instantiation for (isa, tile " +                     \
                              std::to_string(tile) + ")")

ConvDotFn conv_dot_kernel(simd::IsaLevel isa, bool use_vpopcntdq, std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(conv_dot_tiled_batch, "conv_dot_kernel");
}

ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq, std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(conv_binarize_tiled_batch, "conv_binarize_kernel");
}

void check_conv_args(const PackedTensor* const* in, std::int64_t n,
                     const TiledFilterBank& filters, const ConvSpec& spec) {
  BF_CHECK(in != nullptr, "PressedConv: null input array");
  if (n < 1) throw std::invalid_argument("PressedConv: n must be >= 1");
  spec.validate();
  BF_CHECK(filters.num_filters() >= 1, "PressedConv: empty filter bank");
  const PackedTensor& first = *in[0];
  if (first.channels() != filters.channels()) {
    throw std::invalid_argument("PressedConv: input/filter channel mismatch");
  }
  if (spec.kernel_h != filters.kernel_h() || spec.kernel_w != filters.kernel_w()) {
    throw std::invalid_argument("PressedConv: spec/filter kernel extent mismatch");
  }
  if (spec.stride < 1) throw std::invalid_argument("PressedConv: stride must be >= 1");
  (void)spec.out_h(first.height());  // throws if the kernel does not fit
  (void)spec.out_w(first.width());
  for (std::int64_t b = 1; b < n; ++b) {
    if (in[b]->height() != first.height() || in[b]->width() != first.width() ||
        in[b]->channels() != first.channels()) {
      throw std::invalid_argument("PressedConv: image " + std::to_string(b) +
                                  " extents differ from image 0");
    }
  }
}

}  // namespace bitflow::kernels
