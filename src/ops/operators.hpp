// Stand-alone operator-level API (paper's "operator level").
//
// Each class is one benchmarkable operator with its one-time setup (weight
// binarize+pack, kernel selection and, for conv/fc, the register-tile
// interleave) done at construction and its per-inference work — input
// packing included, exactly the work PressedConv's Algorithm 1 counts — done
// in run(), which allocates nothing once the buffers are sized.  The binary
// conv and fc operators are thin wrappers over the graph engine's kernels
// and plan (graph::default_kernel_plan), run at n = 1; the engine
// (graph/network.hpp) fuses packing into the producing layer instead.  These
// wrappers exist for users running single operators and for the
// per-operator figures (7-10), where the float/binary engines must all start
// from the same float activation tensor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/scheduler.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::ops {

/// Shared options for binary operators.
struct BinaryOpOptions {
  /// Overrides the scheduler's ISA (ISA ablation): conv and fc run the
  /// engine plan capped at it, pools run it as is.  The caller must ensure
  /// hardware support.
  std::optional<simd::IsaLevel> force_isa;
};

/// BitFlow-optimized binary convolution (PressedConv): the engine's kernel at
/// default_kernel_plan(cpu_features(), force_isa).
class BinaryConvOp {
 public:
  BinaryConvOp(FilterBank weights, std::int64_t stride, std::int64_t pad,
               BinaryOpOptions options = {});

  /// Full per-inference pipeline from a float activation tensor: binarize +
  /// pack into the pre-allocated padded buffer, then convolve.  `out`
  /// receives Eq. 1 dot products (extents out_h x out_w x K).
  void run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out);

  [[nodiscard]] simd::IsaLevel isa() const noexcept { return plan_.isa; }
  /// Register-tile width T of the plan's ISA.
  [[nodiscard]] std::int64_t tile() const noexcept { return filters_.tile(); }
  [[nodiscard]] const kernels::ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::int64_t pad() const noexcept { return pad_; }
  [[nodiscard]] std::int64_t num_filters() const noexcept { return filters_.num_filters(); }

 private:
  kernels::ConvSpec spec_;
  std::int64_t pad_;
  graph::KernelPlan plan_;
  TiledFilterBank filters_;
  kernels::ConvDotFn dot_fn_;
  PackedTensor in_buf_;  // padded packed input, allocated on first run()
};

/// BitFlow-optimized binary fully connected operator: the engine's bgemm at
/// default_kernel_plan(cpu_features(), force_isa).
class BinaryFcOp {
 public:
  /// `w` is the row-major n x k float weight matrix; packed transposed once
  /// here (Table III fused transform).
  BinaryFcOp(const float* w, std::int64_t n, std::int64_t k, BinaryOpOptions options = {});

  /// Packs the n input floats and computes the k Eq. 1 dots.
  void run(const float* x, runtime::ThreadPool& pool, float* y);

  [[nodiscard]] simd::IsaLevel isa() const noexcept { return plan_.isa; }
  /// Register-tile width T of the plan's ISA.
  [[nodiscard]] std::int64_t tile() const noexcept { return weights_.tile(); }
  [[nodiscard]] std::int64_t inputs() const noexcept { return n_; }
  [[nodiscard]] std::int64_t outputs() const noexcept { return weights_.rows(); }

 private:
  std::int64_t n_;
  graph::KernelPlan plan_;
  TiledBitMatrix weights_;
  kernels::BgemmFn dot_fn_;
  PackedMatrix x_buf_;  // the packed activation row, packed in place
};

/// BitFlow-optimized binary max pooling, at the paper's channel rule
/// (select_isa) unless force_isa is set.
class BinaryPoolOp {
 public:
  BinaryPoolOp(kernels::PoolSpec spec, std::int64_t channels, BinaryOpOptions options = {});

  /// Packs the float input and OR-pools it; `out` receives the packed
  /// result (margin 0).
  void run(const Tensor& in, runtime::ThreadPool& pool, PackedTensor& out);

  /// Packed-to-packed pooling (graph-engine path standalone).
  void run_packed(const PackedTensor& in, runtime::ThreadPool& pool, PackedTensor& out,
                  std::int64_t margin) const;

  [[nodiscard]] simd::IsaLevel isa() const noexcept { return isa_; }
  [[nodiscard]] const kernels::PoolSpec& spec() const noexcept { return spec_; }

 private:
  kernels::PoolSpec spec_;
  simd::IsaLevel isa_;
  PackedTensor in_buf_;
};

/// Full-precision convolution baseline (conventional image-to-column +
/// sgemm; weights flattened/transposed once at construction).
class FloatConvOp {
 public:
  FloatConvOp(const FilterBank& weights, std::int64_t stride, std::int64_t pad);

  /// Pads (copy), unfolds, multiplies.  `out` extents out_h x out_w x K.
  void run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out);

  [[nodiscard]] const kernels::ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::int64_t pad() const noexcept { return pad_; }
  [[nodiscard]] std::int64_t num_filters() const noexcept { return k_; }

 private:
  kernels::ConvSpec spec_;
  std::int64_t pad_;
  std::int64_t k_;
  std::vector<float> weights_t_;  // (kh*kw*C) x K
  std::vector<float> cols_scratch_;
};

}  // namespace bitflow::ops
