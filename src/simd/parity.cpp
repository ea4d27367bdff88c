#include "simd/parity.hpp"

#include <random>
#include <sstream>

#include "core/check.hpp"
#include "simd/bitops.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::simd {

namespace {

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::int64_t n) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng();
  return v;
}

}  // namespace

std::vector<IsaLevel> supported_isa_levels() {
  const CpuFeatures& f = cpu_features();
  std::vector<IsaLevel> levels;
  for (IsaLevel isa : {IsaLevel::kU64, IsaLevel::kSse, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (f.supports(isa)) levels.push_back(isa);
  }
  BF_CHECK(!levels.empty() && levels.front() == IsaLevel::kU64,
           "supported_isa_levels: scalar level missing");
  return levels;
}

std::vector<IsaVariant> supported_isa_variants() {
  const CpuFeatures& f = cpu_features();
  std::vector<IsaVariant> variants;
  for (IsaLevel isa : supported_isa_levels()) {
    if (isa == IsaLevel::kAvx512) {
      variants.push_back({isa, false, "avx512"});
      if (f.avx512vpopcntdq) variants.push_back({isa, true, "avx512vp"});
    } else {
      variants.push_back({isa, false, isa_name(isa)});
    }
  }
  return variants;
}

std::string ParityResult::to_string() const {
  if (ok) return {};
  std::ostringstream os;
  os << "kernel " << kernel << " shape " << shape << ": " << detail;
  return os.str();
}

ParityResult check_or_accumulate_parity(IsaLevel isa, std::int64_t n_words, std::uint64_t seed) {
  BF_CHECK(n_words >= 0, "check_or_accumulate_parity: negative n_words ", n_words);
  std::mt19937_64 rng(seed);
  const auto src = random_words(rng, n_words);
  const auto base = random_words(rng, n_words);

  ParityResult r;
  r.kernel = "or_accumulate[" + std::string(isa_name(isa)) + "]";
  {
    std::ostringstream os;
    os << "n_words=" << n_words << " seed=" << seed;
    r.shape = os.str();
  }
  auto got = base;
  or_accumulate_fn(isa)(got.data(), src.data(), n_words);
  for (std::int64_t i = 0; i < n_words; ++i) {
    const std::uint64_t want = base[static_cast<std::size_t>(i)] | src[static_cast<std::size_t>(i)];
    if (got[static_cast<std::size_t>(i)] != want) {
      r.ok = false;
      std::ostringstream os;
      os << "word " << i << ": reference=0x" << std::hex << want << " variant=0x"
         << got[static_cast<std::size_t>(i)];
      r.detail = os.str();
      return r;
    }
  }
  return r;
}

ParityResult check_all_bitops_parity(std::uint64_t seed) {
  // Every tail class each vector width can see: empty, sub-word counts, one
  // short of / exactly / one past each of 2-, 4-, and 8-word boundaries, and
  // runs long enough to engage the main loops plus a ragged tail.
  static constexpr std::int64_t kRuns[] = {0, 1,  2,  3,  4,  5,  7,   8,   9,
                                           15, 16, 17, 31, 33, 64, 127, 257, 1000};
  for (IsaLevel isa : supported_isa_levels()) {
    for (std::int64_t n : kRuns) {
      ParityResult r = check_or_accumulate_parity(isa, n, seed + static_cast<std::uint64_t>(n));
      if (!r.ok) return r;
    }
  }
  return {};
}

}  // namespace bitflow::simd
