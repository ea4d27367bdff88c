// Byte-level corruption fuzzing of the tuning-cache loader (tune/tune_cache).
//
// The cache's trust model is "accelerator, never authority": any damage —
// truncation, bit flips, header mismatches — must degrade to an empty or
// prefix-truncated cache (silent re-search), never to a crash, a throw, or
// an entry the validator would not have written.  Round-trips a realistic
// cache through serialize(), then
//   * truncates the byte image at every offset,
//   * flips one deterministic bit in every byte position, and
//   * corrupts each header field specifically,
// asserting deserialize() never throws and every surviving entry still
// satisfies the on-disk well-formedness contract.  Fully deterministic so a
// failure reproduces from the test name alone.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "simd/isa.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"

namespace bitflow::tune {
namespace {

Key conv_key(std::int64_t h, std::int64_t w, std::int64_t c, std::int64_t k) {
  Key key;
  key.kind = 0;
  key.isa = static_cast<std::uint8_t>(simd::IsaLevel::kAvx2);
  key.threads = 1;
  key.in_h = h;
  key.in_w = w;
  key.c = c;
  key.k = k;
  key.kh = 3;
  key.kw = 3;
  key.stride = 1;
  return key;
}

Key fc_key(std::int64_t c, std::int64_t k) {
  Key key;
  key.kind = 1;
  key.isa = static_cast<std::uint8_t>(simd::IsaLevel::kAvx512);
  key.vpopcnt = 1;
  key.threads = 1;
  key.c = c;
  key.k = k;
  return key;
}

Decision make_decision(std::int64_t tile, std::int64_t grain, double ms) {
  Decision d;
  d.tile = tile;
  d.par_grain = grain;
  d.source = DecisionSource::kSearch;
  d.best_ms = ms;
  d.candidates = 5;
  return d;
}

/// A cache image with enough variety to make most byte positions
/// load-bearing: conv + fc keys, every tile width, a grain > 1.
TuneCache populated_cache() {
  TuneCache cache;
  cache.put(conv_key(20, 20, 256, 256), make_decision(8, 1, 0.125));
  cache.put(conv_key(34, 34, 64, 6), make_decision(4, 18, 0.5));
  cache.put(conv_key(10, 10, 128, 512), make_decision(16, 1, 0.0625));
  cache.put(fc_key(4096, 1024), make_decision(4, 1, 0.25));
  return cache;
}

/// The public half of the loader's per-entry validation: everything an
/// accepted entry promises downstream code.  deserialize() must never emit
/// an entry violating any of these, no matter the input bytes.
bool well_formed(const Entry& e) {
  const Key& k = e.key;
  if (k.kind > 1) return false;
  if (k.isa > static_cast<std::uint8_t>(simd::IsaLevel::kAvx512)) return false;
  if (k.vpopcnt > 1) return false;
  if (k.threads < 1) return false;
  for (const std::int64_t extent : {k.in_h, k.in_w, k.c, k.k, k.kh, k.kw, k.stride}) {
    if (extent < 1 || extent > (std::int64_t{1} << 24)) return false;
  }
  const Decision& d = e.decision;
  if (d.tile != 4 && d.tile != 8 && d.tile != 16) return false;
  if (d.par_grain < 1) return false;
  if (d.source != DecisionSource::kSearch && d.source != DecisionSource::kCache)
    return false;
  if (!std::isfinite(d.best_ms) || d.best_ms < 0.0) return false;
  return true;
}

/// deserialize() must absorb anything without throwing; returns the parsed
/// cache for inspection.
TuneCache absorb(const std::string& bytes) {
  TuneCache cache;
  // Pre-populate so we also verify deserialize() always clears stale state.
  cache.put(fc_key(8, 8), make_decision(4, 1, 1.0));
  EXPECT_NO_THROW(cache.deserialize(bytes.data(), bytes.size()));
  return cache;
}

TEST(TuneCacheFuzz, RoundTripPreservesEveryEntry) {
  const TuneCache original = populated_cache();
  const std::string bytes = original.serialize();
  TuneCache loaded;
  loaded.deserialize(bytes.data(), bytes.size());
  ASSERT_EQ(loaded.size(), original.size());
  for (const Entry& e : original.entries()) {
    const Decision* d = loaded.lookup(e.key);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->tile, e.decision.tile);
    EXPECT_EQ(d->par_grain, e.decision.par_grain);
    EXPECT_EQ(d->best_ms, e.decision.best_ms);
    EXPECT_EQ(d->candidates, e.decision.candidates);
  }
}

TEST(TuneCacheFuzz, TruncationAtEveryOffsetKeepsOnlyIntactEntries) {
  const TuneCache original = populated_cache();
  const std::string bytes = original.serialize();
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    const TuneCache cache = absorb(bytes.substr(0, len));
    // A prefix can only ever hold a prefix of the original entries — and
    // each survivor must be byte-identical to what was written (an entry is
    // either intact or dropped, never mangled).
    EXPECT_LE(cache.size(), original.size());
    for (const Entry& e : cache.entries()) {
      EXPECT_TRUE(well_formed(e));
      const Decision* truth = original.lookup(e.key);
      ASSERT_NE(truth, nullptr);
      EXPECT_EQ(e.decision.tile, truth->tile);
      EXPECT_EQ(e.decision.par_grain, truth->par_grain);
    }
  }
}

TEST(TuneCacheFuzz, SingleBitFlipAtEveryByteNeverYieldsMalformedEntries) {
  const std::string bytes = populated_cache().serialize();
  std::size_t emptied = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    const unsigned bit = static_cast<unsigned>((i * 7 + 3) % 8);
    mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^ (1u << bit));
    SCOPED_TRACE("bit " + std::to_string(bit) + " flipped at offset " + std::to_string(i));
    const TuneCache cache = absorb(mutated);
    for (const Entry& e : cache.entries()) EXPECT_TRUE(well_formed(e));
    if (cache.size() == 0) ++emptied;
  }
  // Header bytes (magic, format, schema, cores) must all be load-bearing:
  // flipping any of the first 16 bytes empties the cache entirely.
  EXPECT_GE(emptied, 16u);
}

TEST(TuneCacheFuzz, MultiBitCorruptionBurstsNeverCrash) {
  const std::string bytes = populated_cache().serialize();
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 256; ++round) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(next() % 8);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(next() % mutated.size());
      mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                       static_cast<unsigned char>(1u << (next() % 8)));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    const TuneCache cache = absorb(mutated);
    for (const Entry& e : cache.entries()) EXPECT_TRUE(well_formed(e));
  }
}

// --- targeted header corruption ---------------------------------------------
// Layout: magic[0..3] | format u32 [4..7] | schema u32 [8..11] |
//         host_cores u32 [12..15] | count u32 [16..19].

TEST(TuneCacheFuzz, WrongMagicIsIgnoredWholesale) {
  std::string bytes = populated_cache().serialize();
  bytes[0] = 'X';
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

TEST(TuneCacheFuzz, FormatVersionMismatchIsIgnoredWholesale) {
  std::string bytes = populated_cache().serialize();
  bytes[4] = static_cast<char>(static_cast<unsigned char>(bytes[4]) + 1);
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

TEST(TuneCacheFuzz, SchemaVersionMismatchIsIgnoredWholesale) {
  std::string bytes = populated_cache().serialize();
  bytes[8] = static_cast<char>(static_cast<unsigned char>(bytes[8]) + 1);
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

TEST(TuneCacheFuzz, HostCoreCountMismatchIsIgnoredWholesale) {
  // A cache measured on a different machine is stale in its entirety: the
  // winning grain/tile depend on the core count the plan runs under.
  std::string bytes = populated_cache().serialize();
  bytes[12] = static_cast<char>(static_cast<unsigned char>(bytes[12]) + 1);
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

TEST(TuneCacheFuzz, OversizedCountKeepsOnlyEntriesActuallyPresent) {
  const TuneCache original = populated_cache();
  std::string bytes = original.serialize();
  // Claim 0xFFFF entries; only the real ones follow.  The loader must stop
  // at the data's end with the valid prefix, not read out of bounds.
  bytes[16] = static_cast<char>(0xFF);
  bytes[17] = static_cast<char>(0xFF);
  const TuneCache cache = absorb(bytes);
  EXPECT_LE(cache.size(), original.size());
  for (const Entry& e : cache.entries()) EXPECT_TRUE(well_formed(e));
}

TEST(TuneCacheFuzz, CountBeyondHardCapIsIgnoredWholesale) {
  std::string bytes = populated_cache().serialize();
  const std::uint32_t count = kCacheMaxEntries + 1;
  std::memcpy(&bytes[16], &count, sizeof count);
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

TEST(TuneCacheFuzz, EmptyAndTinyInputsAreHarmless) {
  EXPECT_EQ(absorb(std::string()).size(), 0u);
  EXPECT_EQ(absorb(std::string("BFTC")).size(), 0u);
  EXPECT_EQ(absorb(std::string(3, '\0')).size(), 0u);
}

TEST(TuneCacheFuzz, OversizedImageIsRejectedBeforeParsing) {
  std::string bytes = populated_cache().serialize();
  bytes.resize(kCacheMaxBytes + 1, '\0');
  EXPECT_EQ(absorb(bytes).size(), 0u);
}

// --- file-level load/save ----------------------------------------------------

TEST(TuneCacheFuzz, LoadOfMissingFileYieldsEmptyCacheWithoutError) {
  TuneCache cache;
  cache.put(fc_key(8, 8), make_decision(4, 1, 1.0));
  cache.load("/nonexistent/dir/bitflow_tune_fuzz.bftc");
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuneCacheFuzz, SaveToUnwritablePathReportsFailure) {
  const TuneCache cache = populated_cache();
  EXPECT_FALSE(cache.save("/nonexistent/dir/bitflow_tune_fuzz.bftc"));
}

TEST(TuneCacheFuzz, CorruptFileOnDiskDegradesToEmptyNotError) {
  const std::string path =
      "bitflow_fuzz_tune_cache." + std::to_string(::getpid()) + ".bftc";
  std::string bytes = populated_cache().serialize();
  bytes[9] = static_cast<char>(static_cast<unsigned char>(bytes[9]) ^ 0x40);  // schema
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  TuneCache cache;
  EXPECT_NO_THROW(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bitflow::tune
