// The "unoptimized BNN implementation" baseline of Figs. 7-9.
//
// This is the implementation style BitFlow argues against (Sec. III-A): the
// conventional image-to-column dataflow inherited from float convolution,
// with binary arithmetic done on scalar 32-bit words — bit-packing happens
// *after* unfolding, so the h*w-fold input blow-up is binarized and packed
// on every inference, and no SIMD or loop tiling is applied.  Hardware
// POPCNT is used (the baseline is unvectorized, not artificially crippled).
//
// Weights are still packed once at construction: weight preprocessing is a
// network-level property shared by every binary engine, not part of what
// vectorization buys.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/binary_maxpool.hpp"
#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::baseline {

/// im2col + scalar-32-bit binary convolution.
class UnoptBinaryConv {
 public:
  UnoptBinaryConv(const FilterBank& filters, kernels::ConvSpec spec);

  /// `in` is the (pre-padded) float activation tensor; `out` receives the
  /// Eq. 1 dot products.  Each call unfolds, binarizes, packs, and multiplies
  /// — the full image-to-column pipeline the paper times.
  void run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) const;

  [[nodiscard]] const kernels::ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::int64_t num_filters() const noexcept { return weights_.rows(); }

 private:
  kernels::ConvSpec spec_;
  std::int64_t channels_;
  PackedMatrix weights_;  // K x (kh*kw*C) bits, row k = flattened filter k
  mutable std::vector<float> cols_scratch_;
};

/// Scalar-32-bit binary fully connected operator (n inputs, k outputs,
/// weights in the paper's row-major n x k float layout, packed transposed at
/// construction).
class UnoptBinaryFc {
 public:
  UnoptBinaryFc(const float* w, std::int64_t n, std::int64_t k);

  /// Binarizes + packs `x` (n floats), then computes the k Eq. 1 dots.
  void run(const float* x, runtime::ThreadPool& pool, float* y) const;

  [[nodiscard]] std::int64_t inputs() const noexcept { return n_; }
  [[nodiscard]] std::int64_t outputs() const noexcept { return weights_.rows(); }

 private:
  std::int64_t n_;
  PackedMatrix weights_;  // k x n bits
};

/// Scalar-32-bit binary max pooling (per-pixel word OR loop, no row-wise
/// vectorization).  Same output contract as kernels::binary_maxpool with
/// margin 0.
void unopt_binary_maxpool(const PackedTensor& in, const kernels::PoolSpec& spec,
                          runtime::ThreadPool& pool, PackedTensor& out);

namespace detail {
/// out[k] = bits - 2 * popcount(x ^ w_k) for k in [0, rows), where w_k is the
/// n64-word row at w + k * w_stride: scalar xor + popcount over uint32 halves,
/// the arithmetic granularity of a bit-packed but unvectorized engine.  The
/// -mpopcnt TU unopt_popcount.cpp holds it.
void xor_popcount_rows_u32(const std::uint64_t* x, const std::uint64_t* w,
                           std::int64_t w_stride, std::int64_t rows, std::int64_t n64,
                           std::int64_t bits, float* out);
}  // namespace detail

}  // namespace bitflow::baseline
