// ISA-parity harness support: enumerate what the executing CPU can run and
// check that every vector implementation of the or-accumulate primitive is
// bit-exact against the scalar u64 reference.
//
// The per-ISA translation units' only correctness contract is "same answer
// as the scalar path"; nothing in the type system enforces it.  This header
// gives tests (tests/isa_parity_test.cpp) and the benches one list of the
// variants the host runs, and one place to sweep the or-accumulate word runs
// over adversarial lengths — empty runs, single words, lengths straddling
// each vector width's tail handling — reporting the first divergence with
// enough context (kernel, shape, operand index) to reproduce it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simd/isa.hpp"

namespace bitflow::simd {

/// ISA levels the executing CPU supports, narrowest (kU64) first.  kU64 is
/// always present, so the scalar reference is always a member of the set.
[[nodiscard]] std::vector<IsaLevel> supported_isa_levels();

/// One named kernel variant: an ISA level plus, at kAvx512, which popcount
/// lowering it uses.  On a VPOPCNTDQ-capable host kAvx512 contributes two
/// variants ("avx512" byte-LUT and "avx512vp" native); elsewhere one.
struct IsaVariant {
  IsaLevel isa = IsaLevel::kU64;
  bool use_vpopcntdq = false;
  std::string_view name = "u64";  ///< "u64", "sse", "avx2", "avx512", "avx512vp"
};

/// Every kernel variant the executing CPU can run, narrowest first.
[[nodiscard]] std::vector<IsaVariant> supported_isa_variants();

/// Outcome of one parity sweep.  When !ok, the fields name the diverging
/// kernel and the exact inputs so the failure is reproducible.
struct ParityResult {
  bool ok = true;
  std::string kernel;  ///< e.g. "or_accumulate[avx512]"
  std::string shape;   ///< e.g. "n_words=37 seed=7"
  std::string detail;  ///< reference vs variant values at first divergence

  /// Empty when ok; otherwise "kernel ... shape ...: detail".
  [[nodiscard]] std::string to_string() const;
};

/// Checks or_accumulate at `isa` against the scalar reference (word-by-word
/// OR) over random operands of `n_words` words.  Deterministic in `seed`.
[[nodiscard]] ParityResult check_or_accumulate_parity(IsaLevel isa, std::int64_t n_words,
                                                      std::uint64_t seed);

/// Sweeps or_accumulate over every supported ISA level and a canonical set
/// of word-run lengths (0, 1, around each vector width's boundary, and runs
/// long enough to engage the main loops).  Returns the first failure, or
/// ok.
[[nodiscard]] ParityResult check_all_bitops_parity(std::uint64_t seed);

}  // namespace bitflow::simd
