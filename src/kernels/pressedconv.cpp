// Runtime dispatch front for the per-ISA PressedConv kernels.
#include "kernels/pressedconv.hpp"

#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::kernels {

namespace detail {
// Defined by BITFLOW_INSTANTIATE_PRESSEDCONV in the per-ISA TUs.
#define BITFLOW_DECLARE_PRESSEDCONV(SUFFIX)                                                      \
  void conv_dot_##SUFFIX(const PackedTensor&, const PackedFilterBank&, const ConvSpec&,          \
                         runtime::ThreadPool&, Tensor&);                                         \
  void conv_binarize_##SUFFIX(const PackedTensor&, const PackedFilterBank&, const ConvSpec&,     \
                              const std::int64_t*, runtime::ThreadPool&, PackedTensor&,          \
                              std::int64_t);                                                     \
  void conv_dot_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,                         \
                               const PackedFilterBank&, const ConvSpec&, runtime::ThreadPool&,   \
                               Tensor* const*);                                                  \
  void conv_binarize_batch_##SUFFIX(const PackedTensor* const*, std::int64_t,                    \
                                    const PackedFilterBank&, const ConvSpec&,                    \
                                    const std::int64_t*, runtime::ThreadPool&,                   \
                                    PackedTensor* const*, std::int64_t);
BITFLOW_DECLARE_PRESSEDCONV(u64)
BITFLOW_DECLARE_PRESSEDCONV(sse)
BITFLOW_DECLARE_PRESSEDCONV(avx2)
BITFLOW_DECLARE_PRESSEDCONV(avx512)
BITFLOW_DECLARE_PRESSEDCONV(avx512vp)
#undef BITFLOW_DECLARE_PRESSEDCONV

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
BITFLOW_DECLARE_PRESSEDCONV_TILED(u64_t8)
BITFLOW_DECLARE_PRESSEDCONV_TILED(sse_t4)
BITFLOW_DECLARE_PRESSEDCONV_TILED(sse_t8)
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

ConvDotFn conv_dot_kernel(simd::IsaLevel isa) {
  return conv_dot_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa) {
  return conv_binarize_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvDotFn conv_dot_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::conv_dot_u64;
    case simd::IsaLevel::kSse: return &detail::conv_dot_sse;
    case simd::IsaLevel::kAvx2: return &detail::conv_dot_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::conv_dot_avx512vp : &detail::conv_dot_avx512;
  }
  throw std::invalid_argument("conv_dot_kernel: bad ISA level");
}

ConvBinarizeFn conv_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::conv_binarize_u64;
    case simd::IsaLevel::kSse: return &detail::conv_binarize_sse;
    case simd::IsaLevel::kAvx2: return &detail::conv_binarize_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::conv_binarize_avx512vp : &detail::conv_binarize_avx512;
  }
  throw std::invalid_argument("conv_binarize_kernel: bad ISA level");
}

ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa) {
  return conv_dot_batch_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa) {
  return conv_binarize_batch_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::conv_dot_batch_u64;
    case simd::IsaLevel::kSse: return &detail::conv_dot_batch_sse;
    case simd::IsaLevel::kAvx2: return &detail::conv_dot_batch_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::conv_dot_batch_avx512vp : &detail::conv_dot_batch_avx512;
  }
  throw std::invalid_argument("conv_dot_batch_kernel: bad ISA level");
}

ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::conv_binarize_batch_u64;
    case simd::IsaLevel::kSse: return &detail::conv_binarize_batch_sse;
    case simd::IsaLevel::kAvx2: return &detail::conv_binarize_batch_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::conv_binarize_batch_avx512vp
                           : &detail::conv_binarize_batch_avx512;
  }
  throw std::invalid_argument("conv_binarize_batch_kernel: bad ISA level");
}

ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa) {
  return conv_dot_tiled_batch_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa) {
  return conv_binarize_tiled_batch_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return conv_dot_tiled_batch_kernel(isa, use_vpopcntdq, weight_tile_width(isa));
}

ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq) {
  return conv_binarize_tiled_batch_kernel(isa, use_vpopcntdq, weight_tile_width(isa));
}

// Nested (ISA, tile width) dispatch shared by the two tile-parameterized
// getters: every stamped suffix appears exactly once; an (isa, tile) pair
// with no instantiation throws rather than silently falling back, so the
// tuner can never commit a plan the kernel layer cannot execute.
#define BITFLOW_TILED_DISPATCH(NAME)                                                            \
  switch (isa) {                                                                                \
    case simd::IsaLevel::kU64:                                                                  \
      if (tile == 4) return &detail::NAME##_u64_t4;                                             \
      if (tile == 8) return &detail::NAME##_u64_t8;                                             \
      break;                                                                                    \
    case simd::IsaLevel::kSse:                                                                  \
      if (tile == 4) return &detail::NAME##_sse_t4;                                             \
      if (tile == 8) return &detail::NAME##_sse_t8;                                             \
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
  throw std::invalid_argument(#NAME "_kernel: no instantiation for (isa, tile " +               \
                              std::to_string(tile) + ")")

ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                                std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(conv_dot_tiled_batch);
}

ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq,
                                                          std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(conv_binarize_tiled_batch);
}

void check_conv_args(const PackedTensor& in, const PackedFilterBank& filters,
                     const ConvSpec& spec) {
  spec.validate();
  BF_CHECK(filters.num_filters() >= 1, "PressedConv: empty filter bank");
  if (in.channels() != filters.channels()) {
    throw std::invalid_argument("PressedConv: input/filter channel mismatch");
  }
  if (spec.kernel_h != filters.kernel_h() || spec.kernel_w != filters.kernel_w()) {
    throw std::invalid_argument("PressedConv: spec/filter kernel extent mismatch");
  }
  if (spec.stride < 1) throw std::invalid_argument("PressedConv: stride must be >= 1");
  (void)spec.out_h(in.height());  // throws if the kernel does not fit
  (void)spec.out_w(in.width());
}

void check_conv_batch_args(const PackedTensor* const* in, std::int64_t n,
                           const PackedFilterBank& filters, const ConvSpec& spec) {
  BF_CHECK(in != nullptr, "PressedConv batch: null input array");
  if (n < 1) throw std::invalid_argument("PressedConv batch: n must be >= 1");
  check_conv_args(*in[0], filters, spec);
  for (std::int64_t b = 1; b < n; ++b) {
    if (in[b]->height() != in[0]->height() || in[b]->width() != in[0]->width() ||
        in[b]->channels() != in[0]->channels()) {
      throw std::invalid_argument("PressedConv batch: image " + std::to_string(b) +
                                  " extents differ from image 0");
    }
  }
}

void pressed_conv_dot(const PackedTensor& in, const PackedFilterBank& filters,
                      const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out) {
  check_conv_args(in, filters, spec);
  const std::int64_t oh = spec.out_h(in.height());
  const std::int64_t ow = spec.out_w(in.width());
  if (out.height() != oh || out.width() != ow || out.channels() != filters.num_filters() ||
      out.layout() != Layout::kHWC) {
    throw std::invalid_argument("pressed_conv_dot: output tensor mis-shaped");
  }
  conv_dot_kernel(simd::cpu_features().best_isa())(in, filters, spec, pool, out);
}

void pressed_conv_binarize(const PackedTensor& in, const PackedFilterBank& filters,
                           const ConvSpec& spec, const std::int64_t* limits,
                           runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin) {
  check_conv_args(in, filters, spec);
  BF_CHECK(margin >= 0, "pressed_conv_binarize: negative margin ", margin);
  const std::int64_t oh = spec.out_h(in.height());
  const std::int64_t ow = spec.out_w(in.width());
  if (out.height() != oh + 2 * margin || out.width() != ow + 2 * margin ||
      out.channels() != filters.num_filters()) {
    throw std::invalid_argument("pressed_conv_binarize: output tensor mis-shaped for margin");
  }
  conv_binarize_kernel(simd::cpu_features().best_isa())(in, filters, spec, limits, pool, out,
                                                        margin);
}

}  // namespace bitflow::kernels
