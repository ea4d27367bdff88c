// AVX2 dispatch wrapper: 256-bit OR (_mm256_or_si256) over four words at a
// time.
#include "simd/bitops.hpp"
#include "simd/bitops_inline.hpp"

namespace bitflow::simd {

void or_accumulate_avx2(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  inl::or_accumulate_avx2(dst, src, n);
}

}  // namespace bitflow::simd
