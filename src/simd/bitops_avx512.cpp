// AVX-512 dispatch wrapper: 512-bit OR over eight words at a time, the 1..7
// word tail in one zero-masked load/store pair (Table I's masked forms).
#include "simd/bitops.hpp"
#include "simd/bitops_inline.hpp"

namespace bitflow::simd {

void or_accumulate_avx512(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  inl::or_accumulate_avx512(dst, src, n);
}

}  // namespace bitflow::simd
