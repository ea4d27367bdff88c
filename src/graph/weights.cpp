#include "graph/weights.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bitpack/packer.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "graph/scheduler.hpp"
#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::graph {

namespace {

/// The tile width finalize() commits under a default NetworkConfig: that of
/// its default_kernel_plan's ISA.  Consults no failpoint.
std::int64_t default_tile() {
  return kernels::weight_tile_width(default_kernel_plan(simd::cpu_features()).isa);
}

/// A bank's padding rule: each row (a filter or an fc row, named `unit` in
/// errors) is `runs` runs of `run_words` words with `bits` valid bits each,
/// and every bit from `bits` up in a run's last word must be zero.
struct Padding {
  std::int64_t runs, run_words, bits;
  const char* dim;
  const char* unit;
};

/// Throws when a padding bit is set in the `rows` rows at `words`, which are
/// the bank's rows from `first_row` on: the error names the layer and the
/// offending row by its index in the bank.
void check_padding(const std::uint64_t* words, std::int64_t first_row, std::int64_t rows,
                   const Padding& p, const std::string& layer) {
  if (p.bits % 64 == 0) return;
  const std::uint64_t padding = ~std::uint64_t{0} << (p.bits % 64);
  for (std::int64_t r = 0; r < rows * p.runs; ++r) {
    if ((words[(r + 1) * p.run_words - 1] & padding) != 0) {
      throw std::runtime_error("weights of layer '" + layer + "': padding bits above " + p.dim +
                               "=" + std::to_string(p.bits) + " are set in " + p.unit + " " +
                               std::to_string(first_row + r / p.runs));
    }
  }
}

/// CPUs this process may run on: its affinity mask where the OS has one.
std::int64_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// A bank of `rows` rows of `row_words` words in whole tiles of the default
/// width, its words not yet written: every one is written by BankLoad's
/// chunks, which fault its pages in where they write them.
TiledBitMatrix uninitialized_bank(std::int64_t rows, std::int64_t row_words) {
  const std::int64_t tile = default_tile();
  return TiledBitMatrix(
      AlignedBuffer::uninitialized(static_cast<std::size_t>(
                                       TiledBitMatrix::padded_rows(rows, tile) * row_words) *
                                   sizeof(std::uint64_t)),
      rows, row_words, tile);
}

/// Streams an interleaved matrix row-major, one tile block at a time through
/// scratch; the last block's pad rows are not written.
void stream_rows(const TiledBitMatrix& m, const WordSink& sink) {
  std::vector<std::uint64_t> block(static_cast<std::size_t>(m.tile() * m.row_words()));
  for (std::int64_t t = 0; t < m.tiles(); ++t) {
    m.untile_block(t, block.data());
    sink(block.data(), std::min(m.tile(), m.rows() - t * m.tile()) * m.row_words());
  }
}

/// A WordSink that appends to `out`.
WordSink copy_into(std::uint64_t* out) {
  return [out](const std::uint64_t* words, std::int64_t count) mutable {
    std::memcpy(out, words, static_cast<std::size_t>(count) * sizeof(std::uint64_t));
    out += count;
  };
}

}  // namespace

// --- conv ------------------------------------------------------------------

ConvWeights::ConvWeights(PackedFilterBank filters, std::int64_t tile)
    : ConvWeights(bitpack::tile_filters(std::move(filters), tile)) {}

ConvWeights::ConvWeights(TiledFilterBank bank)
    : k_(bank.num_filters()),
      kh_(bank.kernel_h()),
      kw_(bank.kernel_w()),
      c_(bank.channels()),
      bank_(std::make_shared<const TiledFilterBank>(std::move(bank))) {}

std::uint64_t ConvWeights::word(std::int64_t k, std::int64_t w) const noexcept {
  return bank().rows().row_word(k, w);
}

void ConvWeights::for_each_filter_major(const WordSink& sink) const {
  if (bank_) stream_rows(bank_->rows(), sink);
}

ConvWeights ConvWeights::in_layout(std::int64_t tile) const {
  if (tile == this->tile()) return *this;
  PackedFilterBank copy(k_, kh_, kw_, c_);
  for_each_filter_major(copy_into(copy.words()));
  return ConvWeights(std::move(copy), tile);
}

ConvWeights lower_conv_weights(PackedFilterBank filters, const std::string& layer) {
  check_padding(filters.words(), 0, filters.num_filters(),
                Padding{filters.kernel_h() * filters.kernel_w(), filters.words_per_pixel(),
                        filters.channels(), "C", "filter"},
                layer);
  const std::int64_t tile = default_tile();
  return ConvWeights(std::move(filters), tile);
}

// --- fc --------------------------------------------------------------------

FcWeights::FcWeights(PackedMatrix weights, std::int64_t tile)
    : rows_(weights.rows()),
      cols_(weights.cols()),
      bank_(std::make_shared<const TiledBitMatrix>(
          bitpack::tile_fc_weights(std::move(weights), tile))) {}

FcWeights::FcWeights(TiledBitMatrix bank, std::int64_t cols)
    : rows_(bank.rows()),
      cols_(cols),
      bank_(std::make_shared<const TiledBitMatrix>(std::move(bank))) {}

std::uint64_t FcWeights::word(std::int64_t r, std::int64_t w) const noexcept {
  return bank().row_word(r, w);
}

void FcWeights::for_each_filter_major(const WordSink& sink) const {
  if (bank_) stream_rows(*bank_, sink);
}

FcWeights FcWeights::in_layout(std::int64_t tile) const {
  if (tile == this->tile()) return *this;
  PackedMatrix copy(rows_, cols_);
  for_each_filter_major(copy_into(copy.words()));
  return FcWeights(std::move(copy), tile);
}

FcWeights lower_fc_weights(PackedMatrix weights, const std::string& layer) {
  check_padding(weights.words(), 0, weights.rows(),
                Padding{1, weights.words_per_row(), weights.cols(), "N", "row"}, layer);
  const std::int64_t tile = default_tile();
  return FcWeights(std::move(weights), tile);
}

// --- loading banks from a model file ------------------------------------------

/// One queued bank.
struct BankLoad::Bank {
  std::shared_ptr<const void> owner;  ///< keeps `words` alive while chunks may write them
  std::uint64_t* words;
  std::int64_t rows, row_words, tile;
  Padding padding;
  std::string layer;
  ByteSource read;
};

BankLoad::BankLoad(bool fan_out) : fan_out_(fan_out) {}

BankLoad::~BankLoad() = default;

ConvWeights BankLoad::conv(std::int64_t k, std::int64_t kh, std::int64_t kw, std::int64_t c,
                           const std::string& layer, ByteSource read) {
  const std::int64_t row_words = kh * kw * words_for_channels(c);
  TiledBitMatrix rows = uninitialized_bank(k, row_words);
  std::uint64_t* const words = rows.words();
  const std::int64_t tile = rows.tile();
  ConvWeights w(TiledFilterBank(std::move(rows), kh, kw, c));
  queue(Bank{w.bank_, words, k, row_words, tile,
             Padding{kh * kw, words_for_channels(c), c, "C", "filter"}, layer, std::move(read)});
  return w;
}

FcWeights BankLoad::fc(std::int64_t rows, std::int64_t cols, const std::string& layer,
                       ByteSource read) {
  const std::int64_t row_words = words_for_channels(cols);
  TiledBitMatrix m = uninitialized_bank(rows, row_words);
  std::uint64_t* const words = m.words();
  const std::int64_t tile = m.tile();
  FcWeights w(std::move(m), cols);
  queue(Bank{w.bank_, words, rows, row_words, tile, Padding{1, row_words, cols, "N", "row"},
             layer, std::move(read)});
  return w;
}

void BankLoad::queue(Bank bank) {
  // Whole tile blocks of about kStreamChunkBytes, at most the bank.
  const std::int64_t chunk_rows =
      bank.tile * std::clamp<std::int64_t>(kStreamChunkBytes / (bank.tile * bank.row_words * 8),
                                           1, ceil_div(bank.rows, bank.tile));
  // Reserve first, so that a bad_alloc leaves nothing queued.
  const std::size_t needed =
      chunks_.size() + static_cast<std::size_t>(ceil_div(bank.rows, chunk_rows));
  if (needed > chunks_.capacity()) chunks_.reserve(std::max(needed, 2 * chunks_.capacity()));
  banks_.push_back(std::move(bank));
  const Bank& b = banks_.back();
  for (std::int64_t first = 0; first < b.rows; first += chunk_rows) {
    chunks_.push_back(Chunk{banks_.size() - 1, first, std::min(b.rows, first + chunk_rows)});
  }
  if (!fan_out_) run();
}

void BankLoad::run() {
  const std::size_t begin = ran_;
  ran_ = chunks_.size();
  std::int64_t bytes = 0, scratch_words = 0;
  for (std::size_t c = begin; c < chunks_.size(); ++c) {
    const Chunk& chunk = chunks_[c];
    const Bank& b = banks_[chunk.bank];
    bytes += (chunk.end - chunk.first) * b.row_words * 8;
    scratch_words = std::max(scratch_words,
                             (ceil_div(chunk.end, b.tile) * b.tile - chunk.first) * b.row_words);
  }
  // A worker per kStreamBytesPerWorker, or per chunk scratch where a chunk
  // is larger (rows of MiBs), so that the scratch never exceeds the bytes.
  const std::int64_t workers =
      fan_out_ ? std::min({affinity_cpus(),
                           bytes / std::max(kStreamBytesPerWorker, scratch_words * 8),
                           static_cast<std::int64_t>(chunks_.size() - begin)})
               : 1;
  const int threads = workers < 2 ? 1 : static_cast<int>(workers);
  // Scratch for one chunk per worker, allocated here rather than by each
  // worker (a worker's first malloc costs it a heap arena of its own).
  std::vector<std::uint64_t> scratch(static_cast<std::size_t>(threads * scratch_words));
  next_.store(static_cast<std::int64_t>(begin), std::memory_order_relaxed);
  if (threads == 1) {
    work(scratch.data());
  } else {
    runtime::ThreadPool pool(threads);
    pool.run_on_all([&](int w) { work(scratch.data() + w * scratch_words); });
  }
  std::exception_ptr error;
  {
    core::MutexLock lock(mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void BankLoad::work(std::uint64_t* scratch) {
  for (;;) {
    const std::int64_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= static_cast<std::int64_t>(chunks_.size())) return;
    {
      // Chunks are taken in file order, so every chunk before a failed one
      // has been taken and runs to its end: c cannot be the first failure.
      core::MutexLock lock(mu_);
      if (failed_chunk_ < c) return;
    }
    try {
      place(chunks_[static_cast<std::size_t>(c)], scratch);
    } catch (...) {
      core::MutexLock lock(mu_);
      if (c < failed_chunk_) {
        failed_chunk_ = c;
        error_ = std::current_exception();
      }
      return;
    }
  }
}

void BankLoad::place(const Chunk& chunk, std::uint64_t* scratch) const {
  const Bank& b = banks_[chunk.bank];
  const std::int64_t rows = chunk.end - chunk.first;
  b.read(scratch, chunk.first * b.row_words * 8, rows * b.row_words * 8);
  check_padding(scratch, chunk.first, rows, b.padding, b.layer);
  // The bank's short last block: zero pad rows up to a whole tile.
  const std::int64_t padded_end = ceil_div(chunk.end, b.tile) * b.tile;
  std::fill(scratch + rows * b.row_words, scratch + (padded_end - chunk.first) * b.row_words,
            std::uint64_t{0});
  for (std::int64_t r = chunk.first; r < padded_end; r += b.tile) {
    bitpack::interleave_block(scratch + (r - chunk.first) * b.row_words, b.tile, b.row_words,
                              b.words + r * b.row_words);
  }
}

std::int64_t lowered_rows(std::int64_t rows) {
  return TiledBitMatrix::padded_rows(rows, default_tile());
}

// --- binarize thresholds ------------------------------------------------------

std::int64_t popcount_limit(std::int64_t bits, float threshold) noexcept {
  // float(bits - 2p) is non-increasing in p, so the popcounts that pass form
  // a prefix [0, L] of [0, bits].
  const auto passes = [&](std::int64_t p) {
    return static_cast<float>(bits - 2 * p) >= threshold;
  };
  if (!passes(0)) return -1;      // NaN, or above every dot
  if (passes(bits)) return bits;  // at or below every dot
  // Now 0 <= L < bits.  Start at the exact-arithmetic answer (the float
  // rounding of large fan-ins moves the boundary by a step or two) and walk
  // to where the rule itself flips.
  std::int64_t p = static_cast<std::int64_t>(
      std::floor((static_cast<double>(bits) - static_cast<double>(threshold)) / 2.0));
  p = std::clamp<std::int64_t>(p, 0, bits - 1);
  while (!passes(p)) --p;     // stops at p = 0 at the latest
  while (passes(p + 1)) ++p;  // stops at p = bits - 1 at the latest
  return p;
}

std::vector<std::int64_t> popcount_limits(std::int64_t bits,
                                          const std::vector<float>& thresholds, std::int64_t k) {
  std::vector<std::int64_t> limits(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < limits.size(); ++i) {
    limits[i] = popcount_limit(bits, thresholds.empty() ? 0.0f : thresholds[i]);
  }
  return limits;
}

}  // namespace bitflow::graph
