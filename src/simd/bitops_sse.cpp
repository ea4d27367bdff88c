// SSE dispatch wrapper: 128-bit OR (_mm_or_si128) over two words at a time,
// the pools' rung for channel counts that are multiples of 128 but of
// nothing wider (paper rule 3).
#include "simd/bitops.hpp"
#include "simd/bitops_inline.hpp"

namespace bitflow::simd {

void or_accumulate_sse(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  inl::or_accumulate_sse(dst, src, n);
}

}  // namespace bitflow::simd
