// bgemm: binary general matrix multiplication (paper Sec. III-C and the
// gemm-level optimizations of Sec. IV).
//
// A fully connected binary operator is a bgemm of the packed activation
// matrix A (M x N bits, M = batch) against the packed, pre-transposed weight
// matrix W (K x N bits, produced once by bitpack::pack_transpose_fc_weights).
// Output element (m, k) is the Eq. 1 inner product of row m of A with row k
// of W.
//
// Parallelism follows the paper: vector parallelism inside each inner
// product, multi-core parallelism over the K (output neuron) dimension,
// fused with M.  There is one kernel family: W is re-laid once into the
// T-way register-tile layout (bitpack::tile_fc_weights), so each loaded
// activation word feeds T contiguous neuron words — the "tiling and loop
// unrolling" borrowed from sgemm.  W holds ceil(K / T) whole tiles, the last
// padded with zero rows when T does not divide K, so every neuron takes the
// one tiled path.
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels {

/// Raw-dot bgemm over rows [0, m_rows) of A: y is row-major m_rows x K
/// floats, y[m*K + k] = Eq. 1 dot of A row m and W row k.  The serving path
/// keeps a max_batch-row activation matrix and fills the first n rows per
/// micro-batch; M and K are fused into one parallel_for so a batch costs one
/// fork/join.  Throws std::invalid_argument if W's tile width does not match
/// the kernel, W's row words differ from A's, or m_rows is outside
/// [0, A.rows()].
using BgemmFn = void (*)(const PackedMatrix& a, std::int64_t m_rows, const TiledBitMatrix& w,
                         runtime::ThreadPool& pool, float* y);

/// Fused bgemm + binarize over rows [0, m_rows) of A: bit k of output row m
/// is set iff the xor-popcount of A row m against W row k is <= limits[k],
/// the popcount limit of `dot(m,k) >= threshold[k]` (graph::popcount_limit;
/// null limits = sign, popcount <= N / 2; K entries, and nothing is
/// allocated for either).  `out` must be A.rows() x K bits; its rows
/// [m_rows, out.rows()) are left untouched.
using BgemmBinarizeFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                 const TiledBitMatrix& w, const std::int64_t* limits,
                                 runtime::ThreadPool& pool, PackedMatrix& out);

/// Returns the raw-dot bgemm compiled for `isa`; same contract as
/// conv_dot_kernel: W must be tiled at weight_tile_width(isa),
/// `use_vpopcntdq` picks the AVX-512 popcount TU, kSse returns the kU64
/// kernel, and hardware support is the caller's responsibility.
[[nodiscard]] BgemmFn bgemm_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

/// Returns the fused binarize bgemm compiled for `isa`.
[[nodiscard]] BgemmBinarizeFn bgemm_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

}  // namespace bitflow::kernels
