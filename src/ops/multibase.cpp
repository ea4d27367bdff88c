#include "ops/multibase.hpp"

#include <cmath>
#include <stdexcept>

#include "bitpack/packer.hpp"
#include "graph/scheduler.hpp"

namespace bitflow::ops {

MultiBaseFilters approximate_filters(const FilterBank& w, int num_bases) {
  if (num_bases < 1) throw std::invalid_argument("approximate_filters: need >= 1 base");
  MultiBaseFilters mb;
  const std::int64_t k = w.num_filters();
  const std::int64_t per_filter = w.kernel_h() * w.kernel_w() * w.channels();

  // Residual starts as W itself.
  std::vector<float> residual(w.data(), w.data() + w.num_elements());
  FilterBank base_signs(k, w.kernel_h(), w.kernel_w(), w.channels());
  for (int m = 0; m < num_bases; ++m) {
    std::vector<float> alpha(static_cast<std::size_t>(k), 0.0f);
    for (std::int64_t f = 0; f < k; ++f) {
      // Least-squares scale for B = sign(R): alpha = mean |R| over the filter.
      double acc = 0.0;
      const float* r = residual.data() + f * per_filter;
      for (std::int64_t e = 0; e < per_filter; ++e) acc += std::abs(r[e]);
      alpha[static_cast<std::size_t>(f)] =
          static_cast<float>(acc / static_cast<double>(per_filter));
    }
    // Materialize the +-1 base and subtract alpha * B from the residual.
    float* signs = base_signs.data();
    for (std::int64_t f = 0; f < k; ++f) {
      float* r = residual.data() + f * per_filter;
      float* s = signs + f * per_filter;
      const float a = alpha[static_cast<std::size_t>(f)];
      for (std::int64_t e = 0; e < per_filter; ++e) {
        s[e] = r[e] >= 0.0f ? 1.0f : -1.0f;
        r[e] -= a * s[e];
      }
    }
    mb.bases.push_back(bitpack::pack_filters(base_signs));
    mb.alphas.push_back(std::move(alpha));
  }
  return mb;
}

std::vector<float> approximation_rmse(const FilterBank& w, const MultiBaseFilters& mb) {
  const std::int64_t k = w.num_filters();
  const std::int64_t per_filter = w.kernel_h() * w.kernel_w() * w.channels();
  std::vector<float> rmse(static_cast<std::size_t>(k), 0.0f);
  for (std::int64_t f = 0; f < k; ++f) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < w.kernel_h(); ++i) {
      for (std::int64_t j = 0; j < w.kernel_w(); ++j) {
        for (std::int64_t c = 0; c < w.channels(); ++c) {
          float approx = 0.0f;
          for (int m = 0; m < mb.num_bases(); ++m) {
            approx += mb.alphas[static_cast<std::size_t>(m)][static_cast<std::size_t>(f)] *
                      mb.bases[static_cast<std::size_t>(m)].sign_value(f, i, j, c);
          }
          const double d = static_cast<double>(w.at(f, i, j, c)) - approx;
          acc += d * d;
        }
      }
    }
    rmse[static_cast<std::size_t>(f)] =
        static_cast<float>(std::sqrt(acc / static_cast<double>(per_filter)));
  }
  return rmse;
}

MultiBaseConvOp::MultiBaseConvOp(const FilterBank& weights, int num_bases, std::int64_t stride,
                                 std::int64_t pad, BinaryOpOptions options)
    : spec_{weights.kernel_h(), weights.kernel_w(), stride},
      pad_(pad),
      mb_(approximate_filters(weights, num_bases)),
      plan_(graph::default_kernel_plan(simd::cpu_features(), options.force_isa)),
      dot_fn_(kernels::conv_dot_kernel(plan_.isa, simd::cpu_features().avx512vpopcntdq)) {
  if (pad < 0) throw std::invalid_argument("MultiBaseConvOp: negative pad");
  for (const PackedFilterBank& base : mb_.bases) {
    // A copy: mb_ keeps its bases.
    tiled_.push_back(bitpack::tile_filters(base, kernels::weight_tile_width(plan_.isa)));
  }
}

void MultiBaseConvOp::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) {
  if (in.channels() != mb_.bases.front().channels()) {
    throw std::invalid_argument("MultiBaseConvOp: channel mismatch");
  }
  const std::int64_t ph = in.height() + 2 * pad_;
  const std::int64_t pw = in.width() + 2 * pad_;
  if (in_buf_.height() != ph || in_buf_.width() != pw || in_buf_.channels() != in.channels()) {
    in_buf_ = PackedTensor(ph, pw, in.channels());
  }
  bitpack::pack_activations_into_interior(in, in_buf_, pad_);
  const PackedTensor* ins[] = {&in_buf_};
  kernels::check_conv_args(ins, 1, tiled_.front(), spec_);

  const std::int64_t oh = spec_.out_h(ph), ow = spec_.out_w(pw);
  const std::int64_t k = mb_.bases.front().num_filters();
  if (out.height() != oh || out.width() != ow || out.channels() != k) {
    throw std::invalid_argument("MultiBaseConvOp: output mis-shaped");
  }
  if (base_out_.height() != oh || base_out_.width() != ow || base_out_.channels() != k) {
    base_out_ = Tensor::hwc(oh, ow, k);
  }
  out.zero();
  Tensor* base_outs[] = {&base_out_};
  for (int m = 0; m < num_bases(); ++m) {
    dot_fn_(ins, 1, tiled_[static_cast<std::size_t>(m)], spec_, pool, base_outs);
    const std::vector<float>& alpha = mb_.alphas[static_cast<std::size_t>(m)];
    float* dst = out.data();
    const float* src = base_out_.data();
    // HWC output: channel (= filter) is minor, so the alpha index cycles.
    const std::int64_t pixels = oh * ow;
    for (std::int64_t px = 0; px < pixels; ++px) {
      for (std::int64_t f = 0; f < k; ++f) {
        dst[px * k + f] += alpha[static_cast<std::size_t>(f)] * src[px * k + f];
      }
    }
  }
}

}  // namespace bitflow::ops
