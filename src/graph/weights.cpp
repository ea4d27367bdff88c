#include "graph/weights.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
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

/// One bank's streamed lowering: `rows` rows of `row_words` words into the
/// ceil(rows / tile) tile blocks at `words`.  Chunks are runs of whole tile
/// blocks, numbered in file order; each is read into a worker's scratch and
/// interleaved from there.  The last block is read short — the file holds
/// only its real rows — and its pad rows are zero-filled in the scratch, so
/// every word of the bank is written before run() returns normally.
class BankStream {
 public:
  BankStream(std::uint64_t* words, std::int64_t rows, std::int64_t row_words, std::int64_t tile,
             const Padding& padding, const std::string& layer, const ByteSource& read)
      : words_(words),
        rows_(rows),
        row_words_(row_words),
        tile_(tile),
        chunk_rows_(tile * std::clamp<std::int64_t>(
                               kStreamChunkBytes / (tile * row_words * 8), 1,
                               std::max<std::int64_t>(1, ceil_div(rows, tile)))),
        chunks_(ceil_div(rows, chunk_rows_)),
        padding_(padding),
        layer_(layer),
        read_(read) {}

  BankStream(const BankStream&) = delete;
  BankStream& operator=(const BankStream&) = delete;

  void run() BF_EXCLUDES(mu_) {
    const std::int64_t workers =
        std::min(rows_ * row_words_ * 8 / kStreamBytesPerWorker, chunks_);
    const int threads = workers < 2 ? 1 : static_cast<int>(std::min(workers, affinity_cpus()));
    // Scratch for one chunk per worker, allocated here rather than by each
    // worker (a worker's first malloc costs it a heap arena of its own).
    const std::int64_t scratch_words = chunk_rows_ * row_words_;
    std::vector<std::uint64_t> scratch(static_cast<std::size_t>(threads * scratch_words));
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

 private:
  static std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

  /// Takes chunks until none are left or one has failed: reads each under
  /// the stream lock, then checks and places it outside the lock.
  void work(std::uint64_t* scratch) BF_EXCLUDES(mu_) {
    for (;;) {
      std::int64_t chunk = 0, first = 0, end = 0;
      {
        core::MutexLock lock(mu_);
        if (failed_chunk_ != kNone || next_ == chunks_) return;
        chunk = next_++;
        first = chunk * chunk_rows_;
        end = std::min(rows_, first + chunk_rows_);
        try {
          read_(scratch, (end - first) * row_words_ * 8);
        } catch (...) {
          fail(chunk, std::current_exception());
          return;
        }
      }
      try {
        check_padding(scratch, first, end - first, padding_, layer_);
        // The bank's short last block: zero pad rows up to a whole tile.
        const std::int64_t padded_end = ceil_div(end, tile_) * tile_;
        std::fill(scratch + (end - first) * row_words_, scratch + (padded_end - first) * row_words_,
                  std::uint64_t{0});
        for (std::int64_t r = first; r < padded_end; r += tile_) {
          bitpack::interleave_block(scratch + (r - first) * row_words_, tile_, row_words_,
                                    words_ + r * row_words_);
        }
      } catch (...) {
        core::MutexLock lock(mu_);
        fail(chunk, std::current_exception());
        return;
      }
    }
  }

  /// Keeps the error of the first failing chunk in file order: chunks are
  /// taken in order, so every chunk before it was taken and is checked.
  void fail(std::int64_t chunk, std::exception_ptr error) BF_REQUIRES(mu_) {
    if (chunk < failed_chunk_) {
      failed_chunk_ = chunk;
      error_ = std::move(error);
    }
  }

  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();

  std::uint64_t* const words_;
  const std::int64_t rows_, row_words_, tile_;
  const std::int64_t chunk_rows_;  ///< rows per chunk: whole tile blocks, at most the bank's
  const std::int64_t chunks_;
  const Padding padding_;
  const std::string& layer_;
  const ByteSource& read_;

  /// The stream lock: a leaf, held only to take a chunk and read it (or to
  /// record a failure).
  core::Mutex mu_;
  std::int64_t next_ BF_GUARDED_BY(mu_) = 0;
  std::int64_t failed_chunk_ BF_GUARDED_BY(mu_) = kNone;
  std::exception_ptr error_ BF_GUARDED_BY(mu_);
};

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

ConvWeights stream_conv_weights(std::int64_t k, std::int64_t kh, std::int64_t kw,
                                std::int64_t c, const std::string& layer,
                                const ByteSource& read) {
  const Padding padding{kh * kw, words_for_channels(c), c, "C", "filter"};
  const std::int64_t tile = default_tile();
  const std::int64_t row_words = kh * kw * words_for_channels(c);
  TiledBitMatrix rows(AlignedBuffer::uninitialized(
                          static_cast<std::size_t>(TiledBitMatrix::padded_rows(k, tile) *
                                                   row_words) *
                          sizeof(std::uint64_t)),
                      k, row_words, tile);
  BankStream(rows.words(), k, row_words, tile, padding, layer, read).run();
  return ConvWeights(TiledFilterBank(std::move(rows), kh, kw, c));
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

FcWeights stream_fc_weights(std::int64_t rows, std::int64_t cols, const std::string& layer,
                            const ByteSource& read) {
  const std::int64_t row_words = words_for_channels(cols);
  const Padding padding{1, row_words, cols, "N", "row"};
  const std::int64_t tile = default_tile();
  TiledBitMatrix m(AlignedBuffer::uninitialized(
                       static_cast<std::size_t>(TiledBitMatrix::padded_rows(rows, tile) *
                                                row_words) *
                       sizeof(std::uint64_t)),
                   rows, row_words, tile);
  BankStream(m.words(), rows, row_words, tile, padding, layer, read).run();
  return FcWeights(std::move(m), cols);
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
