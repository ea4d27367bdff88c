// bgemm: binary general matrix multiplication (paper Sec. III-C and the
// gemm-level optimizations of Sec. IV).
//
// A fully connected binary operator is a bgemm of the packed activation
// matrix A (M x N bits, M = batch = 1 in inference) against the packed,
// pre-transposed weight matrix W (K x N bits, produced once at network
// initialization by bitpack::pack_transpose_fc_weights).  Output element
// (m, k) is the Eq. 1 inner product of row m of A with row k of W.
//
// Parallelism follows the paper: vector parallelism along the N (bit)
// dimension, multi-core parallelism over the K (output neuron) dimension.
// The K loop is 4-way register-blocked so each loaded activation word feeds
// four weight rows (the "tiling and loop unrolling" borrowed from sgemm).
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels {

/// Raw-dot bgemm: y is row-major M x K floats, y[m*K + k] = Eq.1 dot of
/// A row m and W row k.  A and W must agree on cols().
using BgemmFn = void (*)(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool,
                         float* y);

/// Fused bgemm + binarize: bit k of output row m is set iff the
/// xor-popcount of A row m against W row k is <= limits[k], the popcount
/// limit of `dot(m,k) >= threshold[k]` (graph::popcount_limit; null limits =
/// sign, popcount <= N / 2).  `out` must be M x K bits.
using BgemmBinarizeFn = void (*)(const PackedMatrix& a, const PackedMatrix& w,
                                 const std::int64_t* limits, runtime::ThreadPool& pool,
                                 PackedMatrix& out);

/// Row-limited raw-dot bgemm: computes only rows [0, m_rows) of A.  The
/// serving path keeps a max_batch-row activation matrix and fills the first
/// n rows per micro-batch; M and K are fused into one parallel_for so a
/// batch costs one fork/join.  Bit-identical to BgemmFn on the same rows.
using BgemmRowsFn = void (*)(const PackedMatrix& a, std::int64_t m_rows, const PackedMatrix& w,
                             runtime::ThreadPool& pool, float* y);

/// Row-limited fused bgemm + binarize; rows [m_rows, out.rows()) of `out`
/// are left untouched.
using BgemmBinarizeRowsFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                     const PackedMatrix& w, const std::int64_t* limits,
                                     runtime::ThreadPool& pool, PackedMatrix& out);

/// Row-limited raw-dot bgemm over the interleaved weight layout: W is the
/// K x N weight matrix re-laid by bitpack::tile_fc_weights with
/// tile = weight_tile_width(isa), so each activation word feeds T contiguous
/// neuron words instead of T strided rows.  Bit-exact with BgemmRowsFn;
/// throws std::invalid_argument if W's tile width does not match the kernel.
/// The filter-major overloads above remain for ad-hoc callers.
using BgemmRowsTiledFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                  const TiledBitMatrix& w, runtime::ThreadPool& pool, float* y);

/// Row-limited fused bgemm + binarize over the interleaved weight layout.
using BgemmBinarizeRowsTiledFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                          const TiledBitMatrix& w, const std::int64_t* limits,
                                          runtime::ThreadPool& pool, PackedMatrix& out);

/// Returns the raw-dot bgemm compiled for `isa` (hardware support is the
/// caller's responsibility, as with conv_dot_kernel).
[[nodiscard]] BgemmFn bgemm_kernel(simd::IsaLevel isa);

/// Returns the fused binarize bgemm compiled for `isa`.
[[nodiscard]] BgemmBinarizeFn bgemm_binarize_kernel(simd::IsaLevel isa);

/// Variant-pinned overloads: at kAvx512, `use_vpopcntdq` picks the byte-LUT
/// or native-VPOPCNTDQ translation unit explicitly rather than by CPUID (for
/// the ISA-parity harness); ignored at narrower levels.
[[nodiscard]] BgemmFn bgemm_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] BgemmBinarizeFn bgemm_binarize_kernel(simd::IsaLevel isa, bool use_vpopcntdq);

/// Row-limited counterparts of the kernel getters.
[[nodiscard]] BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa);
[[nodiscard]] BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa);
[[nodiscard]] BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa,
                                                             bool use_vpopcntdq);

/// Register-tiled kernel getters (interleaved weight layout).  Overloads
/// without an explicit `tile` return the weight_tile_width(isa) default.
[[nodiscard]] BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa);
[[nodiscard]] BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa);
[[nodiscard]] BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq);

/// Tile-parameterized getters for the auto-tuner: `tile` must be one of
/// supported_tile_widths(isa) (throws std::invalid_argument otherwise).
[[nodiscard]] BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                                       std::int64_t tile);
[[nodiscard]] BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq,
                                                                        std::int64_t tile);

/// Dispatching wrappers (widest hardware ISA).
void bgemm(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool, float* y);
void bgemm_binarize(const PackedMatrix& a, const PackedMatrix& w, const std::int64_t* limits,
                    runtime::ThreadPool& pool, PackedMatrix& out);

}  // namespace bitflow::kernels
