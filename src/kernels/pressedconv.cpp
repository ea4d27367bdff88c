// Runtime dispatch front for the per-ISA PressedConv kernels.
#include "kernels/pressedconv.hpp"

#include <stdexcept>
#include <string>

#include "core/check.hpp"

namespace bitflow::kernels {

namespace detail {
// Defined by BITFLOW_INSTANTIATE_PRESSEDCONV_TILED in the per-ISA TUs, one
// suffix per TU.
#define BITFLOW_DECLARE_PRESSEDCONV_TILED(SUFFIX)                                                \
  void conv_dot_tiled_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,                   \
                                     const TiledFilterBank&, const ConvSpec&,                    \
                                     runtime::ThreadPool&, Tensor* const*);                      \
  void conv_binarize_tiled_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,              \
                                          const TiledFilterBank&, const ConvSpec&,               \
                                          const std::int64_t*, runtime::ThreadPool&,             \
                                          PackedTensor* const*, std::int64_t);
BITFLOW_DECLARE_PRESSEDCONV_TILED(u64)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx2)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512)
BITFLOW_DECLARE_PRESSEDCONV_TILED(avx512vp)
#undef BITFLOW_DECLARE_PRESSEDCONV_TILED
}  // namespace detail

// The ISA dispatch shared by the two getters: one TU per ISA level, two at
// AVX-512 (the popcount lowering) and none at SSE, whose 128-bit registers
// have no popcount: its tile is the u64 one, so it runs the u64 TU.
#define BITFLOW_TILED_DISPATCH(NAME, GETTER)                                                     \
  switch (isa) {                                                                                 \
    case simd::IsaLevel::kU64:                                                                   \
    case simd::IsaLevel::kSse:                                                                   \
      return &detail::NAME##_u64;                                                                \
    case simd::IsaLevel::kAvx2:                                                                  \
      return &detail::NAME##_avx2;                                                               \
    case simd::IsaLevel::kAvx512:                                                                \
      return use_vpopcntdq ? &detail::NAME##_avx512vp : &detail::NAME##_avx512;                  \
  }                                                                                              \
  throw std::invalid_argument(GETTER ": unknown ISA level")

ConvDotFn conv_dot_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  BITFLOW_TILED_DISPATCH(conv_dot_tiled_batch, "conv_dot_kernel");
}

ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
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
