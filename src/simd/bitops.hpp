// Vectorized bitwise-OR accumulation over runs of packed 64-bit words: the
// binary max-pool reduction, dst |= src over n words.
//
// The Eq. 1 XOR + popcount has no word-run form here: it runs only inside
// the register tiles of simd/bitops_tile.hpp, compiled into the per-ISA
// kernel translation units.
//
// One implementation per ISA level, each compiled in its own translation
// unit with exactly that ISA enabled (see CMakeLists.txt), dispatched at
// runtime by or_accumulate_fn.  Calling a variant the CPU does not support
// is undefined, so callers check cpu_features().supports(isa) first.
#pragma once

#include <cstdint>

#include "simd/isa.hpp"

namespace bitflow::simd {

// --- per-ISA bitwise-OR accumulation (binary max pooling) ----------------

void or_accumulate_u64(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n);
void or_accumulate_sse(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n);
void or_accumulate_avx2(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n);
void or_accumulate_avx512(std::uint64_t* dst, const std::uint64_t* src, std::int64_t n);

// --- runtime dispatch ------------------------------------------------------

using OrAccumulateFn = void (*)(std::uint64_t*, const std::uint64_t*, std::int64_t);

/// Function implementing or_accumulate at exactly `isa` (caller must have
/// verified cpu_features().supports(isa)).
[[nodiscard]] OrAccumulateFn or_accumulate_fn(IsaLevel isa);

}  // namespace bitflow::simd
