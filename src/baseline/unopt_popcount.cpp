// The unoptimized baseline's one -mpopcnt loop: scalar 32-bit xor + hardware
// popcount over raw words.  It lives apart from unopt_binary.cpp so that no
// matrix or tensor code (inline, and checked in checked builds) is compiled
// with the flag.
#include "baseline/unopt_binary.hpp"

namespace bitflow::baseline::detail {

void xor_popcount_rows_u32(const std::uint64_t* x, const std::uint64_t* w,
                           std::int64_t w_stride, std::int64_t rows, std::int64_t n64,
                           std::int64_t bits, float* out) {
  const auto* x32 = reinterpret_cast<const std::uint32_t*>(x);
  for (std::int64_t k = 0; k < rows; ++k) {
    const auto* w32 = reinterpret_cast<const std::uint32_t*>(w + k * w_stride);
    std::uint64_t pops = 0;
    for (std::int64_t i = 0; i < 2 * n64; ++i) {
      pops += static_cast<std::uint64_t>(__builtin_popcount(x32[i] ^ w32[i]));
    }
    out[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
  }
}

}  // namespace bitflow::baseline::detail
