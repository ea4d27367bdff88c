// Byte-level corruption fuzzing of the .bflow model loader.
//
// Round-trips a small model through save(), then
//   * truncates the byte stream at every offset, and
//   * flips one deterministic bit in every byte position,
// asserting that Model::load either succeeds or throws a clean
// std::exception — never crashes, leaks, or trips UB (the suite runs under
// ASan+UBSan in CI) — and that every flip landing in a weight padding bit
// is rejected.  Every byte string is loaded through both routes,
// load(istream) and load(path) on one per-process file, which must load
// the same banks or throw the same what().  Seeding is fully deterministic
// so a failure reproduces from the test name alone.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"

namespace bitflow::io {
namespace {

/// Restores the model-load byte budget even when an assertion aborts the
/// test body early.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::int64_t bytes) : saved_(model_load_budget_bytes()) {
    set_model_load_budget_bytes(bytes);
  }
  ~BudgetGuard() { set_model_load_budget_bytes(saved_); }
  BudgetGuard(const BudgetGuard&) = delete;
  BudgetGuard& operator=(const BudgetGuard&) = delete;

 private:
  std::int64_t saved_;
};

/// The first `layers` layers of conv (C = 8, one word per tap) -> pool ->
/// fc (n = 72, two words per row), serialized.
std::string serialized_test_model(std::size_t layers = 3) {
  Model m(graph::TensorDesc{6, 6, 8});
  FilterBank filters = models::random_filters(8, 3, 3, 8, 21);
  std::vector<float> th(8, 0.5f);
  m.add_conv("conv", bitpack::pack_filters(filters), 1, 1, th);
  if (layers > 1) m.add_maxpool("pool", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(3 * 3 * 8, 4, 22);
  if (layers > 2) m.add_fc("fc", bitpack::pack_transpose_fc_weights(w.data(), 3 * 3 * 8, 4));
  std::stringstream ss;
  m.save(ss);
  return ss.str();
}

/// True when bit `bit` of byte `offset` of serialized_test_model() is a
/// weight padding bit.  Each layer's weights end the stream of the model cut
/// after it: the conv's 72 tap words (bits 8..63 above C = 8), and the fc's
/// 4 rows of 2 words (bits 8..63 of each row's second word, above n = 72).
bool is_padding_bit(std::size_t offset, unsigned bit) {
  static const std::size_t conv_end = serialized_test_model(1).size();
  static const std::size_t fc_end = serialized_test_model().size();
  const auto bit_in_word = [&](std::size_t payload_start) {
    return static_cast<unsigned>((offset - payload_start) % 8) * 8 + bit;
  };
  if (offset >= conv_end - 72 * 8 && offset < conv_end) {
    return bit_in_word(conv_end - 72 * 8) >= 8;
  }
  if (offset >= fc_end - 8 * 8) {
    const std::size_t word = (offset - (fc_end - 8 * 8)) / 8;
    return word % 2 == 1 && bit_in_word(fc_end - 8 * 8) >= 8;
  }
  return false;
}

/// This process's model file for load(path), removed at exit.
const std::string& model_path() {
  struct File {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("bitflow_fuzz_model_io." + std::to_string(::getpid()) + ".bflow"))
                           .string();
    ~File() { std::filesystem::remove(path); }
  };
  static const File file;
  return file.path;
}

/// What a load made of a byte string: the model's saved bytes followed by
/// every binary bank's words in memory (pad rows included), or what() of
/// the error it threw.
struct Result {
  bool loaded = false;
  std::string bytes_or_error;
};

Result result_of(const Model& m) {
  std::stringstream ss;
  m.save(ss);
  std::string out = ss.str();
  const auto append = [&out](const TiledBitMatrix& bank) {
    out.append(reinterpret_cast<const char*>(bank.words()),
               static_cast<std::size_t>(bank.num_words() * 8));
  };
  for (const LayerRecord& r : m.layers()) {
    if (r.kind == graph::LayerKind::kConv && !r.full_precision) append(r.filters.bank().rows());
    if (r.kind == graph::LayerKind::kFc) append(r.fc_weights.bank());
  }
  return {true, out};
}

/// load() must either succeed or throw std::exception; anything else
/// (crash, non-std exception) fails the test/sanitizer run.
template <typename Load>
Result load_with(const Load& load) {
  try {
    return result_of(load());
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

enum class Outcome { kLoaded, kRejected };

/// Loads `bytes` through load(istream) and load(path), and expects both to
/// load the same banks or throw the same error.
Outcome try_load(const std::string& bytes) {
  const Result streamed = load_with([&] {
    std::stringstream ss(bytes);
    return Model::load(ss);
  });
  {
    std::ofstream out(model_path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result from_path = load_with([] { return Model::load(model_path()); });
  EXPECT_EQ(from_path.loaded, streamed.loaded);
  EXPECT_TRUE(from_path.bytes_or_error == streamed.bytes_or_error)
      << "path: " << (from_path.loaded ? "loaded" : from_path.bytes_or_error)
      << "\nstream: " << (streamed.loaded ? "loaded" : streamed.bytes_or_error);
  return streamed.loaded ? Outcome::kLoaded : Outcome::kRejected;
}

TEST(ModelFuzz, TruncationAtEveryOffsetIsRejectedCleanly) {
  // Corrupt extents must die on the byte budget, not in a huge allocation.
  const BudgetGuard guard(std::int64_t{16} << 20);
  const std::string bytes = serialized_test_model();
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    // The format has no trailing padding: every strict prefix loses bytes
    // some read needs, so every truncation must be rejected.
    EXPECT_EQ(try_load(bytes.substr(0, len)), Outcome::kRejected);
  }
}

TEST(ModelFuzz, SingleBitFlipAtEveryByteNeverCrashes) {
  const BudgetGuard guard(std::int64_t{16} << 20);
  const std::string bytes = serialized_test_model();
  std::size_t rejected = 0, padding_flips = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    // Deterministic bit choice per offset — reproducible without a seed dump.
    const unsigned bit = static_cast<unsigned>((i * 7 + 3) % 8);
    mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^ (1u << bit));
    SCOPED_TRACE("bit " + std::to_string(bit) + " flipped at offset " + std::to_string(i));
    const Outcome outcome = try_load(mutated);
    if (outcome == Outcome::kRejected) ++rejected;
    if (is_padding_bit(i, bit)) {
      ++padding_flips;
      // The kernels do not mask weight tails: a set padding bit would
      // silently change scores, so the loader must refuse it.
      EXPECT_EQ(outcome, Outcome::kRejected) << "padding bit accepted";
    }
  }
  // 7 of every 8 bytes of each conv tap word, 7 of 16 per fc row.
  EXPECT_EQ(padding_flips, 72u * 7 + 4 * 7);
  // Most positions are load-bearing (magic, extents, sizes): a healthy
  // validator rejects a substantial share of single-bit corruptions.
  EXPECT_GT(rejected, bytes.size() / 16);
}

TEST(ModelFuzz, MultiBitCorruptionBurstsNeverCrash) {
  const BudgetGuard guard(std::int64_t{16} << 20);
  const std::string bytes = serialized_test_model();
  // Deterministic xorshift so every run fuzzes the same 256 mutants.
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
    (void)try_load(mutated);  // either outcome is fine; crashes/UB are not
  }
}

}  // namespace
}  // namespace bitflow::io
