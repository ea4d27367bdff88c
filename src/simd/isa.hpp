// Instruction-set levels understood by the vector execution scheduler.
//
// The paper's code generator (Sec. III-B) picks a computing kernel by the
// channel dimension of the operator:
//   C % 512 == 0  -> AVX-512 (__m512i xor + vpopcntq)
//   C % 256 == 0  -> AVX2    (__m256i xor + nibble-LUT popcount)
//   C % 128 == 0  -> SSE     (__m128i xor + 2x scalar popcnt)
//   C %  32 == 0  -> scalar 64-bit words + popcnt instruction
//   otherwise     -> pad the channel dimension with zero bits
// BitFlow packs into 64-bit base words (the paper packs 32-bit unsigned
// ints and combines them); a channel count that is a multiple of 32 but not
// of 64 simply leaves a zeroed half-word tail, which the Eq. 1 identity
// absorbs (see packed_tensor.hpp).  Here the rule picks the ISA of the
// pools only; conv and fc run register tiles along K at the widest ISA, and
// at kSse, whose popcount is the scalar one, they run the u64 tile.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/check.hpp"

namespace bitflow::simd {

/// Vector ISA selected for a kernel, ordered from narrowest to widest.
enum class IsaLevel : std::uint8_t {
  kU64 = 0,    ///< scalar 64-bit words + hardware popcnt
  kSse = 1,    ///< 128-bit __m128i
  kAvx2 = 2,   ///< 256-bit __m256i
  kAvx512 = 3  ///< 512-bit __m512i (+ VPOPCNTDQ when available)
};

[[nodiscard]] constexpr std::string_view isa_name(IsaLevel isa) noexcept {
  switch (isa) {
    case IsaLevel::kU64: return "u64";
    case IsaLevel::kSse: return "sse";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kAvx512: return "avx512";
  }
  BF_UNREACHABLE("isa_name: corrupt IsaLevel ", static_cast<int>(isa));
}

/// Vector width of an ISA level in bits.
[[nodiscard]] constexpr int isa_bits(IsaLevel isa) noexcept {
  switch (isa) {
    case IsaLevel::kU64: return 64;
    case IsaLevel::kSse: return 128;
    case IsaLevel::kAvx2: return 256;
    case IsaLevel::kAvx512: return 512;
  }
  BF_UNREACHABLE("isa_bits: corrupt IsaLevel ", static_cast<int>(isa));
}

/// Vector width of an ISA level in 64-bit words.
[[nodiscard]] constexpr std::int64_t isa_words(IsaLevel isa) noexcept {
  return isa_bits(isa) / 64;
}

}  // namespace bitflow::simd
