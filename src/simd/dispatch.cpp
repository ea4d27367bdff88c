#include <stdexcept>

#include "simd/bitops.hpp"

namespace bitflow::simd {

OrAccumulateFn or_accumulate_fn(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kU64: return &or_accumulate_u64;
    case IsaLevel::kSse: return &or_accumulate_sse;
    case IsaLevel::kAvx2: return &or_accumulate_avx2;
    case IsaLevel::kAvx512: return &or_accumulate_avx512;
  }
  throw std::invalid_argument("or_accumulate_fn: bad ISA level");
}

}  // namespace bitflow::simd
