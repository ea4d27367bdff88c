#include "baseline/unopt_binary.hpp"

#include <stdexcept>

#include "baseline/float_ops.hpp"

namespace bitflow::baseline {

namespace {

/// Bit-by-bit binarize + pack of one float row (no bit64_u fusion tricks).
void pack_row_simple(const float* src, std::int64_t bits, std::uint64_t* dst) {
  const std::int64_t words = (bits + 63) / 64;
  for (std::int64_t w = 0; w < words; ++w) dst[w] = 0;
  for (std::int64_t i = 0; i < bits; ++i) {
    if (src[i] >= 0.0f) dst[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
}

/// Packs a filter bank to the K x (kh*kw*C) row matrix the im2col gemm
/// consumes (filter taps are already contiguous in FilterBank).
PackedMatrix pack_filter_rows(const FilterBank& filters) {
  const std::int64_t kk =
      filters.kernel_h() * filters.kernel_w() * filters.channels();
  PackedMatrix w(filters.num_filters(), kk);
  for (std::int64_t k = 0; k < filters.num_filters(); ++k) {
    pack_row_simple(filters.data() + k * kk, kk, w.row(k));
  }
  return w;
}

}  // namespace

UnoptBinaryConv::UnoptBinaryConv(const FilterBank& filters, kernels::ConvSpec spec)
    : spec_(spec), channels_(filters.channels()), weights_(pack_filter_rows(filters)) {
  if (spec.kernel_h != filters.kernel_h() || spec.kernel_w != filters.kernel_w()) {
    throw std::invalid_argument("UnoptBinaryConv: spec/filter mismatch");
  }
}

void UnoptBinaryConv::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) const {
  if (in.channels() != channels_) {
    throw std::invalid_argument("UnoptBinaryConv: channel mismatch");
  }
  const std::int64_t oh = spec_.out_h(in.height());
  const std::int64_t ow = spec_.out_w(in.width());
  const std::int64_t m = oh * ow;
  const std::int64_t row_len = spec_.kernel_h * spec_.kernel_w * channels_;
  const std::int64_t num_k = weights_.rows();
  if (out.height() != oh || out.width() != ow || out.channels() != num_k) {
    throw std::invalid_argument("UnoptBinaryConv: output mis-shaped");
  }

  // Step 1: unfold (the float-width blow-up image-to-column always pays).
  cols_scratch_.resize(static_cast<std::size_t>(m * row_len));
  im2col(in, spec_, cols_scratch_.data());

  // Step 2: binarize + pack the unfolded matrix — after unfolding, so the
  // packing work is multiplied by the kernel footprint.
  PackedMatrix cols(m, row_len);
  pool.parallel_for(m, [&](runtime::Range r, int) {
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      pack_row_simple(cols_scratch_.data() + i * row_len, row_len, cols.row(i));
    }
  });

  // Step 3: scalar 32-bit binary gemm, no unrolling or tiling.
  const std::int64_t n_words = cols.words_per_row();
  float* out_data = out.data();
  pool.parallel_for(m, [&](runtime::Range r, int) {
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      detail::xor_popcount_rows_u32(cols.row(i), weights_.words(), weights_.words_per_row(),
                                    num_k, n_words, row_len, out_data + i * num_k);
    }
  });
}

UnoptBinaryFc::UnoptBinaryFc(const float* w, std::int64_t n, std::int64_t k)
    : n_(n), weights_(k, n) {
  // Transposed pack (column j of the n x k matrix -> row j), bit by bit.
  for (std::int64_t j = 0; j < k; ++j) {
    std::uint64_t* row = weights_.row(j);
    for (std::int64_t i = 0; i < n; ++i) {
      if (w[i * k + j] >= 0.0f) row[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
}

void UnoptBinaryFc::run(const float* x, runtime::ThreadPool& pool, float* y) const {
  PackedMatrix xa(1, n_);
  pack_row_simple(x, n_, xa.row(0));
  const std::int64_t n_words = xa.words_per_row();
  const std::int64_t k = weights_.rows();
  const std::int64_t stride = weights_.words_per_row();
  pool.parallel_for(k, [&](runtime::Range r, int) {
    detail::xor_popcount_rows_u32(xa.row(0), weights_.words() + r.begin * stride, stride,
                                  r.end - r.begin, n_words, n_, y + r.begin);
  });
}

void unopt_binary_maxpool(const PackedTensor& in, const kernels::PoolSpec& spec,
                          runtime::ThreadPool& pool, PackedTensor& out) {
  const std::int64_t oh = spec.out_h(in.height());
  const std::int64_t ow = spec.out_w(in.width());
  if (out.height() != oh || out.width() != ow || out.channels() != in.channels()) {
    throw std::invalid_argument("unopt_binary_maxpool: output mis-shaped");
  }
  const std::int64_t pc = in.words_per_pixel();
  pool.parallel_for(oh, [&](runtime::Range r, int) {
    for (std::int64_t y = r.begin; y < r.end; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        auto* dst32 = reinterpret_cast<std::uint32_t*>(out.pixel(y, x));
        for (std::int64_t p = 0; p < 2 * pc; ++p) dst32[p] = 0;
        for (std::int64_t i = 0; i < spec.pool_h; ++i) {
          for (std::int64_t j = 0; j < spec.pool_w; ++j) {
            const auto* src32 = reinterpret_cast<const std::uint32_t*>(
                in.pixel(y * spec.stride + i, x * spec.stride + j));
            for (std::int64_t p = 0; p < 2 * pc; ++p) dst32[p] |= src32[p];
          }
        }
      }
    }
  });
}

}  // namespace bitflow::baseline
