// Inline SIMD building blocks, guarded by the ISA macros of the including
// translation unit: the or-accumulate word runs behind the out-of-line
// dispatch wrappers in bitops_*.cpp (the binary max pool), and the per-byte
// and per-qword popcounts that the register tiles of bitops_tile.hpp run in
// the PressedConv / bgemm kernel TUs.  Each includer is compiled with its
// own -m flags, so the bodies lower to that ISA and inline into its loops
// without link-time optimization.
//
// Only the sections matching the TU's enabled ISA are visible; including
// this header never *requires* any ISA.
#pragma once

#include <cstdint>

#if defined(__SSE4_2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace bitflow::simd::inl {

// --- scalar 64-bit ---------------------------------------------------------

inline void or_accumulate_u64(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] |= src[i];
}

// --- SSE ---------------------------------------------------------------------

#ifdef __SSE4_2__

inline void or_accumulate_sse(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i vd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i vs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_or_si128(vd, vs));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

#endif  // __SSE4_2__

// --- AVX2 --------------------------------------------------------------------

#ifdef __AVX2__

/// Per-byte popcount via two 4-bit LUT lookups (Muła).
inline __m256i popcount_bytes_256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

inline void or_accumulate_avx2(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i vs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_or_si256(vd, vs));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

#endif  // __AVX2__

// --- AVX-512 -------------------------------------------------------------------

#ifdef __AVX512BW__

/// Per-byte popcount of a 512-bit vector (AVX-512BW vpshufb LUT).
inline __m512i popcount_bytes_512(__m512i v) {
  const __m512i lut =
      _mm512_broadcast_i32x4(_mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(v, 4), low_mask);
  return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi));
}

/// popcount of one 512-bit register as a vector of 8 qword counts; uses the
/// native VPOPCNTDQ instruction when the TU is compiled with it (Table I
/// _mm512_popcnt_epi64), the byte-LUT + vpsadbw otherwise.
inline __m512i popcount_epi64_512(__m512i v) {
#ifdef __AVX512VPOPCNTDQ__
  return _mm512_popcnt_epi64(v);
#else
  return _mm512_sad_epu8(popcount_bytes_512(v), _mm512_setzero_si512());
#endif
}

inline void or_accumulate_avx512(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vs = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(vd, vs));
  }
  if (i < n) {
    const __mmask8 k = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i vd = _mm512_maskz_loadu_epi64(k, dst + i);
    const __m512i vs = _mm512_maskz_loadu_epi64(k, src + i);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_or_si512(vd, vs));
  }
}

#endif  // __AVX512BW__

}  // namespace bitflow::simd::inl
