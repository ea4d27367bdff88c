// AVX2-accelerated binarize + pack: eight `>= 0` lane compares per
// instruction, folded to a sign byte with movemask.  The sign convention
// must match the scalar packer exactly: x >= 0 -> 1.  A plain
// _mm256_movemask_ps(x) would test the IEEE sign bit, which maps -0.0f and
// NaN-with-sign differently, so we compare against zero explicitly with
// _CMP_GE_OQ... except that unordered (NaN) compares false there while the
// scalar `x >= 0.0f` is also false for NaN — so GE_OQ matches the scalar
// semantics bit-for-bit, including x == -0.0f (>= 0 is true: bit 1).
//
// This TU sees raw pointers only: pack_activations_avx2 (packer.cpp) builds
// the tensor, so no checked tensor code is compiled here with -mavx2.
#include <immintrin.h>

#include "bitpack/packer.hpp"

namespace bitflow::bitpack {

namespace {

/// Packs 64 consecutive floats into one word with 8 AVX2 compare+movemask.
inline std::uint64_t pack64_avx2(const float* p) {
  const __m256 zero = _mm256_setzero_ps();
  std::uint64_t w = 0;
  for (int g = 0; g < 8; ++g) {
    const __m256 v = _mm256_loadu_ps(p + g * 8);
    const __m256 ge = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
    w |= static_cast<std::uint64_t>(static_cast<unsigned>(_mm256_movemask_ps(ge))) << (g * 8);
  }
  return w;
}

}  // namespace

void detail::pack_pixels_avx2(const float* src, std::int64_t pixels, std::int64_t c,
                              std::int64_t pc, std::uint64_t* dst) {
  for (std::int64_t px = 0; px < pixels; ++px) {
    const float* p = src + px * c;
    std::uint64_t* o = dst + px * pc;
    std::int64_t i = 0, word = 0;
    for (; i + 64 <= c; i += 64, ++word) o[word] = pack64_avx2(p + i);
    if (i < c) {
      std::uint64_t w = 0;
      for (std::int64_t r = 0; i + r < c; ++r) {
        w |= static_cast<std::uint64_t>(p[i + r] >= 0.0f) << r;
      }
      o[word] = w;
    }
  }
}

}  // namespace bitflow::bitpack
