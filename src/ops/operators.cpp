#include "ops/operators.hpp"

#include <stdexcept>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"

namespace bitflow::ops {

namespace {

simd::IsaLevel pick_isa(std::int64_t packed_dim, const BinaryOpOptions& options) {
  if (options.force_isa.has_value()) return *options.force_isa;
  return graph::select_isa(packed_dim, simd::cpu_features());
}

/// The engine's plan for a conv or fc layer.
graph::KernelPlan plan_for(const BinaryOpOptions& options) {
  return graph::default_kernel_plan(simd::cpu_features(), options.force_isa);
}

}  // namespace

// --- BinaryConvOp -----------------------------------------------------------

BinaryConvOp::BinaryConvOp(FilterBank weights, std::int64_t stride, std::int64_t pad,
                           BinaryOpOptions options)
    : spec_{weights.kernel_h(), weights.kernel_w(), stride},
      pad_(pad),
      plan_(plan_for(options)),
      filters_(bitpack::tile_filters(bitpack::pack_filters(weights),
                                     kernels::weight_tile_width(plan_.isa))),
      dot_fn_(kernels::conv_dot_kernel(plan_.isa, simd::cpu_features().avx512vpopcntdq)) {
  if (pad < 0) throw std::invalid_argument("BinaryConvOp: negative pad");
}

void BinaryConvOp::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) {
  if (in.channels() != filters_.channels()) {
    throw std::invalid_argument("BinaryConvOp: channel mismatch");
  }
  const std::int64_t ph = in.height() + 2 * pad_;
  const std::int64_t pw = in.width() + 2 * pad_;
  if (in_buf_.height() != ph || in_buf_.width() != pw || in_buf_.channels() != in.channels()) {
    in_buf_ = PackedTensor(ph, pw, in.channels());
  }
  bitpack::pack_activations_into_interior(in, in_buf_, pad_);
  const PackedTensor* ins[] = {&in_buf_};
  kernels::check_conv_args(ins, 1, filters_, spec_);
  const std::int64_t oh = spec_.out_h(ph), ow = spec_.out_w(pw);
  if (out.height() != oh || out.width() != ow || out.channels() != filters_.num_filters() ||
      out.layout() != Layout::kHWC) {
    throw std::invalid_argument("BinaryConvOp: output mis-shaped");
  }
  Tensor* outs[] = {&out};
  dot_fn_(ins, 1, filters_, spec_, pool, outs);
}

// --- BinaryFcOp --------------------------------------------------------------

BinaryFcOp::BinaryFcOp(const float* w, std::int64_t n, std::int64_t k, BinaryOpOptions options)
    : n_(n),
      plan_(plan_for(options)),
      weights_(bitpack::tile_fc_weights(bitpack::pack_transpose_fc_weights(w, n, k),
                                        kernels::weight_tile_width(plan_.isa))),
      dot_fn_(kernels::bgemm_kernel(plan_.isa, simd::cpu_features().avx512vpopcntdq)),
      x_buf_(1, n) {}

void BinaryFcOp::run(const float* x, runtime::ThreadPool& pool, float* y) {
  // Fused binarize+pack of the activation row (bit64_u path), in place.
  bitpack::pack_row_into(x, n_, x_buf_, 0);
  dot_fn_(x_buf_, 1, weights_, pool, y);
}

// --- BinaryPoolOp -------------------------------------------------------------

BinaryPoolOp::BinaryPoolOp(kernels::PoolSpec spec, std::int64_t channels,
                           BinaryOpOptions options)
    : spec_(spec), isa_(pick_isa(channels, options)) {}

void BinaryPoolOp::run(const Tensor& in, runtime::ThreadPool& pool, PackedTensor& out) {
  if (in_buf_.height() != in.height() || in_buf_.width() != in.width() ||
      in_buf_.channels() != in.channels()) {
    in_buf_ = PackedTensor(in.height(), in.width(), in.channels());
  }
  bitpack::pack_activations_into(in, in_buf_);
  kernels::binary_maxpool(in_buf_, spec_, isa_, pool, out, 0);
}

void BinaryPoolOp::run_packed(const PackedTensor& in, runtime::ThreadPool& pool,
                              PackedTensor& out, std::int64_t margin) const {
  kernels::binary_maxpool(in, spec_, isa_, pool, out, margin);
}

// --- FloatConvOp ---------------------------------------------------------------

FloatConvOp::FloatConvOp(const FilterBank& weights, std::int64_t stride, std::int64_t pad)
    : spec_{weights.kernel_h(), weights.kernel_w(), stride},
      pad_(pad),
      k_(weights.num_filters()),
      weights_t_(baseline::flatten_filters_transposed(weights)) {
  if (pad < 0) throw std::invalid_argument("FloatConvOp: negative pad");
}

void FloatConvOp::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) {
  if (pad_ > 0) {
    const Tensor padded = baseline::pad_float(in, pad_);
    baseline::float_conv_im2col(padded, weights_t_, k_, spec_, pool, out, cols_scratch_);
  } else {
    baseline::float_conv_im2col(in, weights_t_, k_, spec_, pool, out, cols_scratch_);
  }
}

}  // namespace bitflow::ops
