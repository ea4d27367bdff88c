// Cross-ISA equivalence of the or-accumulate word runs the binary max pool
// dispatches: every vector variant must agree bit-for-bit with the scalar
// reference on every run length, including the 1..7-word tails handled by
// the AVX-512 masked forms.  The Eq. 1 XOR + popcount lives only in the
// register tiles; pressedconv_test, bgemm_test and isa_parity_test check it
// against src/baseline and the float oracle.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "simd/bitops.hpp"
#include "simd/cpu_features.hpp"
#include "simd/isa.hpp"

namespace bitflow::simd {
namespace {

std::vector<std::uint64_t> random_words(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng();
  return v;
}

TEST(CpuFeatures, DetectionIsConsistent) {
  const CpuFeatures& f = cpu_features();
  // best_isa must be supported by definition.
  EXPECT_TRUE(f.supports(f.best_isa()));
  // The scalar level is always available.
  EXPECT_TRUE(f.supports(IsaLevel::kU64));
  EXPECT_FALSE(f.to_string().empty());
}

TEST(Isa, NamesAndWidths) {
  EXPECT_EQ(isa_name(IsaLevel::kU64), "u64");
  EXPECT_EQ(isa_name(IsaLevel::kAvx512), "avx512");
  EXPECT_EQ(isa_bits(IsaLevel::kSse), 128);
  EXPECT_EQ(isa_words(IsaLevel::kAvx2), 4);
  EXPECT_EQ(isa_words(IsaLevel::kAvx512), 8);
}

class BitopsIsaParam
    : public ::testing::TestWithParam<std::tuple<IsaLevel, std::int64_t>> {};

TEST_P(BitopsIsaParam, OrAccumulateMatchesNaive) {
  const auto [isa, n] = GetParam();
  if (!cpu_features().supports(isa)) GTEST_SKIP() << "ISA not available";
  auto dst = random_words(n, 3000 + static_cast<std::uint64_t>(n));
  const auto src = random_words(n, 4000 + static_cast<std::uint64_t>(n));
  auto expect = dst;
  for (std::int64_t i = 0; i < n; ++i) expect[static_cast<std::size_t>(i)] |= src[static_cast<std::size_t>(i)];
  or_accumulate_fn(isa)(dst.data(), src.data(), n);
  EXPECT_EQ(dst, expect) << "isa=" << isa_name(isa) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    AllIsaAllLengths, BitopsIsaParam,
    ::testing::Combine(::testing::Values(IsaLevel::kU64, IsaLevel::kSse, IsaLevel::kAvx2,
                                         IsaLevel::kAvx512),
                       ::testing::Values<std::int64_t>(1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 64,
                                                       100, 129)),
    [](const auto& info) {
      return std::string(isa_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Bitops, ZeroLengthRuns) {
  const std::uint64_t src = ~std::uint64_t{0};
  for (IsaLevel isa :
       {IsaLevel::kU64, IsaLevel::kSse, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!cpu_features().supports(isa)) continue;
    std::uint64_t dst = 0x5a5a5a5a5a5a5a5aULL;
    or_accumulate_fn(isa)(&dst, &src, 0);
    EXPECT_EQ(dst, 0x5a5a5a5a5a5a5a5aULL) << isa_name(isa);
  }
}

}  // namespace
}  // namespace bitflow::simd
