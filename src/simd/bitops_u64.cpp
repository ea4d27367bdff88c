// Scalar 64-bit word implementation (dispatch wrapper over the shared inline
// inner loop): the pools' rung for channel counts that are multiples of
// 32/64 but of nothing wider (paper rule 4).
#include "simd/bitops.hpp"
#include "simd/bitops_inline.hpp"

namespace bitflow::simd {

void or_accumulate_u64(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n) {
  inl::or_accumulate_u64(dst, src, n);
}

}  // namespace bitflow::simd
