// Shared helpers for the BitFlow test suite: reference (naive) binary
// operators computed on decoded +-1 floats, against which every optimized
// kernel is checked, and the engine's kernels at the default plan for
// composing layers by hand.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"
#include "graph/scheduler.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/conv_spec.hpp"
#include "kernels/pressedconv.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/util.hpp"

namespace bitflow::testing {

/// Naive binary convolution: decode signs, run the float direct reference.
/// `in` must already carry any padding (the kernels' contract).
inline Tensor reference_binary_conv(const PackedTensor& in, const PackedFilterBank& filters,
                                    const kernels::ConvSpec& spec) {
  const Tensor signs = bitpack::unpack_to_signs(in);
  const FilterBank fsigns = bitpack::unpack_to_signs(filters);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(spec.out_h(in.height()), spec.out_w(in.width()),
                           filters.num_filters());
  baseline::float_conv_direct(signs, fsigns, spec, pool, out);
  return out;
}

/// Naive Eq. 1 dot of packed rows via bit decoding.
inline std::int64_t reference_binary_dot(const PackedMatrix& a, std::int64_t row_a,
                                         const PackedMatrix& b, std::int64_t row_b) {
  std::int64_t dot = 0;
  for (std::int64_t i = 0; i < a.cols(); ++i) {
    dot += static_cast<std::int64_t>(a.sign_value(row_a, i) * b.sign_value(row_b, i));
  }
  return dot;
}

/// Naive binary max pool on decoded signs.
inline Tensor reference_binary_maxpool(const PackedTensor& in, const kernels::PoolSpec& spec) {
  const Tensor signs = bitpack::unpack_to_signs(in);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(spec.out_h(in.height()), spec.out_w(in.width()), in.channels());
  baseline::float_maxpool(signs, spec, pool, out);
  return out;
}

/// One layer on the engine's kernel at its default plan: the bank is tiled
/// at the tile width of graph::default_kernel_plan(cpu_features(), cap)'s
/// ISA — `cap` pins the ISA the way NetworkConfig::max_isa does — and run
/// on one image (n = 1), or on every row of A.  The way tests compose
/// layers by hand.
class EngineLayer {
 public:
  explicit EngineLayer(std::optional<simd::IsaLevel> cap = std::nullopt)
      : plan_(graph::default_kernel_plan(simd::cpu_features(), cap)) {}

  [[nodiscard]] const graph::KernelPlan& plan() const noexcept { return plan_; }
  /// The register-tile width T the plan's kernels take.
  [[nodiscard]] std::int64_t tile() const noexcept {
    return kernels::weight_tile_width(plan_.isa);
  }

  /// Raw-dot PressedConv of `in` into the pre-shaped `out`.
  void conv_dot(const PackedTensor& in, const PackedFilterBank& filters,
                const kernels::ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out) const {
    const TiledFilterBank bank = bitpack::tile_filters(filters, tile());
    const PackedTensor* ins[] = {&in};
    kernels::check_conv_args(ins, 1, bank, spec);
    Tensor* outs[] = {&out};
    kernels::conv_dot_kernel(plan_.isa, vpopcnt())(ins, 1, bank, spec, pool, outs);
  }

  /// Fused PressedConv + binarize of `in` into the interior of `out`.
  void conv_binarize(const PackedTensor& in, const PackedFilterBank& filters,
                     const kernels::ConvSpec& spec, const std::int64_t* limits,
                     runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin) const {
    const TiledFilterBank bank = bitpack::tile_filters(filters, tile());
    const PackedTensor* ins[] = {&in};
    kernels::check_conv_args(ins, 1, bank, spec);
    PackedTensor* outs[] = {&out};
    kernels::conv_binarize_kernel(plan_.isa, vpopcnt())(ins, 1, bank, spec, limits, pool, outs,
                                                        margin);
  }

  /// Raw-dot bgemm of every row of `a` against the K x N rows of `w`.
  void bgemm(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool,
             float* y) const {
    const TiledBitMatrix bank = bitpack::tile_fc_weights(w, tile());
    kernels::bgemm_kernel(plan_.isa, vpopcnt())(a, a.rows(), bank, pool, y);
  }

  /// Fused bgemm + binarize of every row of `a` into `out`.
  void bgemm_binarize(const PackedMatrix& a, const PackedMatrix& w, const std::int64_t* limits,
                      runtime::ThreadPool& pool, PackedMatrix& out) const {
    const TiledBitMatrix bank = bitpack::tile_fc_weights(w, tile());
    kernels::bgemm_binarize_kernel(plan_.isa, vpopcnt())(a, a.rows(), bank, limits, pool, out);
  }

 private:
  static bool vpopcnt() { return simd::cpu_features().avx512vpopcntdq; }

  graph::KernelPlan plan_;
};

}  // namespace bitflow::testing
