// Register-tiled xor+popcount accumulators for the interleaved weight
// layout (YFlows-style activation-stationary dataflow, daBNN-style
// finalize-time weight re-layout).
//
// A TileAcc holds kWidth per-filter popcount counters that live in registers
// for the whole filter-block word loop: accumulate(a, f) broadcasts one
// activation word against kWidth *contiguous* filter words (one interleaved
// tile row, at most two cache lines) and adds the kWidth xor+popcounts into
// the counters; at the end of the filter block reduce() spills them once (raw
// dot products), or le_mask() compares them in registers against the fused
// binarize's per-filter popcount limits and returns the kWidth output bits.
// Each ISA has one accumulator, so one tile width: TileAcc4Scalar on u64
// (which an SSE cap runs too), TileAcc16Avx2, and TileAcc16Avx512 for both
// AVX-512 popcount lowerings.  Compiled into the four per-ISA kernel
// objects, they are the program's only XOR + popcount (Eq. 1).  A bank
// whose K is not a multiple of kWidth ends in a tile padded with zero rows,
// whose counters the kernels never store or set; whole tiles have no tails,
// so Table I's masked XOR and popcount forms appear nowhere.
// The kernels keep P of them side by side, one per output pixel (conv) or
// batch row (bgemm), and hand each tile row to all P in turn
// (kernels/tile_walk.hpp): the loads of `f` are the same address, so the
// compiler loads the tile row once per P accumulates.
//
// Like bitops_inline.hpp, whose per-byte and per-qword popcounts the tiles
// call, this is a SIMD implementation header: the bodies lower to whatever
// ISA the including translation unit enables, so only the per-ISA kernel
// TUs may include it (enforced by tools/check_isa_hygiene.py).
#pragma once

#include <cstdint>

#if defined(__SSE4_2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "simd/bitops_inline.hpp"

namespace bitflow::simd::inl {

/// 1 when popcount `count` is within `limit`, else 0.  Limits may be -1
/// (no popcount passes), so the compare is signed.
inline std::uint64_t le_bit(std::uint64_t count, std::int64_t limit) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(count) <= limit);
}

/// 4-filter tile in four independent scalar 64-bit lanes (the u64 kernels,
/// which an SSE cap also runs: hardware popcnt has no vector form below
/// AVX-512VPOPCNTDQ, so four parallel dependency chains are the widest
/// profitable tile).
struct TileAcc4Scalar {
  static constexpr std::int64_t kWidth = 4;
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;

  inline void accumulate(std::uint64_t a, const std::uint64_t* f) noexcept {
    c0 += static_cast<std::uint64_t>(__builtin_popcountll(a ^ f[0]));
    c1 += static_cast<std::uint64_t>(__builtin_popcountll(a ^ f[1]));
    c2 += static_cast<std::uint64_t>(__builtin_popcountll(a ^ f[2]));
    c3 += static_cast<std::uint64_t>(__builtin_popcountll(a ^ f[3]));
  }

  inline void reduce(std::uint64_t* out) const noexcept {
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
  }

  /// Bit l is set iff counter l <= limits[l].
  inline std::uint64_t le_mask(const std::int64_t* limits) const noexcept {
    return le_bit(c0, limits[0]) | le_bit(c1, limits[1]) << 1 | le_bit(c2, limits[2]) << 2 |
           le_bit(c3, limits[3]) << 3;
  }
};

#ifdef __AVX2__

/// 4-bit mask of the qword lanes of `counts` that are <= their limit.  AVX2
/// has only a signed greater-than qword compare, so the mask is the
/// complement of cmpgt's movemask.
inline std::uint64_t le_mask_256(__m256i counts, const std::int64_t* limits) noexcept {
  const __m256i lim = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(limits));
  const int gt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(counts, lim)));
  return static_cast<std::uint64_t>(~gt & 0xF);
}

/// 16-filter tile in four 256-bit qword accumulators: one broadcast
/// activation word is XORed against 16 contiguous filter words, per-byte LUT
/// popcounts fold to qwords via vpsadbw, and the adds stay vertical — no
/// horizontal reduction until the filter block ends.  With the compare
/// epilogue it beat T = 8 over VGG-16's conv shapes, so it is AVX2's one
/// width (EXPERIMENTS.md, "Full-width tiles").
struct TileAcc16Avx2 {
  static constexpr std::int64_t kWidth = 16;
  __m256i c0 = _mm256_setzero_si256();
  __m256i c1 = _mm256_setzero_si256();
  __m256i c2 = _mm256_setzero_si256();
  __m256i c3 = _mm256_setzero_si256();

  inline void accumulate(std::uint64_t a, const std::uint64_t* f) noexcept {
    const __m256i va = _mm256_set1_epi64x(static_cast<long long>(a));
    const __m256i zero = _mm256_setzero_si256();
    const __m256i f0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f));
    const __m256i f1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f + 4));
    const __m256i f2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f + 8));
    const __m256i f3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f + 12));
    c0 = _mm256_add_epi64(
        c0, _mm256_sad_epu8(popcount_bytes_256(_mm256_xor_si256(va, f0)), zero));
    c1 = _mm256_add_epi64(
        c1, _mm256_sad_epu8(popcount_bytes_256(_mm256_xor_si256(va, f1)), zero));
    c2 = _mm256_add_epi64(
        c2, _mm256_sad_epu8(popcount_bytes_256(_mm256_xor_si256(va, f2)), zero));
    c3 = _mm256_add_epi64(
        c3, _mm256_sad_epu8(popcount_bytes_256(_mm256_xor_si256(va, f3)), zero));
  }

  inline void reduce(std::uint64_t* out) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), c0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), c1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), c2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 12), c3);
  }

  inline std::uint64_t le_mask(const std::int64_t* limits) const noexcept {
    return le_mask_256(c0, limits) | le_mask_256(c1, limits + 4) << 4 |
           le_mask_256(c2, limits + 8) << 8 | le_mask_256(c3, limits + 12) << 12;
  }
};

#endif  // __AVX2__

#ifdef __AVX512BW__

/// 16-filter tile in two 512-bit qword accumulators: one broadcast against
/// two cache lines of interleaved filter words, so accumulate() is
/// broadcast + 2 x (load + xor + popcount_epi64 + add) — popcount_epi64_512
/// picks native VPOPCNTDQ or the byte-LUT lowering by the TU's -m flags.
/// AVX-512's one width.
struct TileAcc16Avx512 {
  static constexpr std::int64_t kWidth = 16;
  __m512i lo = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();

  inline void accumulate(std::uint64_t a, const std::uint64_t* f) noexcept {
    const __m512i va = _mm512_set1_epi64(static_cast<long long>(a));
    const __m512i f0 = _mm512_loadu_si512(f);
    const __m512i f1 = _mm512_loadu_si512(f + 8);
    lo = _mm512_add_epi64(lo, popcount_epi64_512(_mm512_xor_si512(va, f0)));
    hi = _mm512_add_epi64(hi, popcount_epi64_512(_mm512_xor_si512(va, f1)));
  }

  inline void reduce(std::uint64_t* out) const noexcept {
    _mm512_storeu_si512(out, lo);
    _mm512_storeu_si512(out + 8, hi);
  }

  inline std::uint64_t le_mask(const std::int64_t* limits) const noexcept {
    return static_cast<std::uint64_t>(_mm512_cmple_epi64_mask(lo, _mm512_loadu_si512(limits))) |
           static_cast<std::uint64_t>(_mm512_cmple_epi64_mask(hi, _mm512_loadu_si512(limits + 8)))
               << 8;
  }
};

#endif  // __AVX512BW__

}  // namespace bitflow::simd::inl
