// Binary layer weights in execution layout, lowered once per process.
//
// Packed weights enter the process in io::Model::load, io::Model::add_conv /
// add_fc and BinaryNetwork::add_conv / add_fc.  All of them lower each bank
// into the T-way register-tile interleave finalize() commits under a
// default NetworkConfig — both take T from the ISA of the same
// default_kernel_plan (graph/scheduler.hpp) — and reject set padding bits.
// A lowered bank holds ceil(K / T) whole tiles: when T does not divide K,
// its last tile ends in T - K % T zero pad rows, which exist only in memory
// (the model file and packed_weight_bytes() count the K real rows).  There
// are two routes there:
//
//   * in memory (lower_conv_weights / lower_fc_weights, from the add_*
//     calls): the bank is checked, then interleaved in place
//     (bitpack::tile_*), its storage grown by the pad rows first only when
//     T does not divide K;
//   * from the model file (BankLoad, from io::Model::load): each bank is
//     allocated without zeroing and its filter-major words are read in
//     chunks of about kStreamChunkBytes, whole tile blocks at a time; each
//     chunk is read into a worker's scratch, checked, and its blocks
//     interleaved straight into their final place.  The last block is read
//     short and its pad rows zero-filled.  On the serial route (any
//     std::istream, or a path that is not a regular file) a bank's chunks
//     run in order on the caller's thread as the bank is reached.  On the
//     fan-out (a regular file) the loader queues every bank's chunks at
//     their file offsets and run() takes them all from one atomic cursor on
//     one transient runtime::ThreadPool: one worker per
//     kStreamBytesPerWorker bytes, up to the CPUs in the process's affinity
//     mask and the chunk count, inline below two.  Each worker reads its
//     own chunks, outside any lock, so every page of every bank is first
//     touched by a worker.  run() joins the pool before returning, so no
//     load thread outlives the load and two loads may run at once.  On both
//     routes the error is the first failing chunk's in file order.
//
// BinaryNetwork::add_conv_packed / add_fc_packed take weights already
// lowered.  The result is immutable and shared_ptr-owned, so an io::Model and
// every network instantiated from it read the same bytes, and the bank lives
// exactly as long as its last holder.
//
// The file also lowers a binarizing layer's float thresholds into the
// integer popcount limits the fused binarize kernels compare against
// (popcount_limit), once per layer when finalize() builds its plan.
//
// finalize() adopts a bank whose tile width matches its plan and re-lays a
// private copy (in_layout()) only when the plan's T differs: a max_isa cap
// or an armed simd.force_fallback that changes T.  Lowering evaluates no
// failpoint of its own (a `once`
// simd.force_fallback still fires at finalize); BankLoad's bank allocations
// pass alloc.buffer on the caller's thread, and its pool's workers pass the
// runtime.worker points.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::graph {

/// Receives a bank's words in filter-major (model file) order, one chunk at
/// a time: `count` words starting at `words`, valid only during the call.
using WordSink = std::function<void(const std::uint64_t* words, std::int64_t count)>;

/// Reads `bytes` bytes of one bank's filter-major words, starting `offset`
/// bytes into them, into `dst`, or throws (a short read is a truncated
/// file).  BankLoad calls it once per chunk: on the serial route in file
/// order from one thread, on the fan-out from its load workers at once.
using ByteSource = std::function<void(void* dst, std::int64_t offset, std::int64_t bytes)>;

/// A model load's unit of work: whole tile blocks of about this many bytes
/// (at least one block) are read, checked and placed at a time.
inline constexpr std::int64_t kStreamChunkBytes = std::int64_t{64} << 10;

/// A load's fan-out gets one worker per this many bytes of its banks, up to
/// the CPUs the process may run on and its chunk count; below two it runs
/// inline.
inline constexpr std::int64_t kStreamBytesPerWorker = std::int64_t{1} << 20;

class BankLoad;

/// A binary conv layer's packed filters (K x kh x kw x C bits) in execution
/// layout: one TiledFilterBank.  Copies share one immutable bank; a
/// default-constructed value is empty (all extents 0, no bank).
class ConvWeights {
 public:
  ConvWeights() = default;

  [[nodiscard]] std::int64_t num_filters() const noexcept { return k_; }
  [[nodiscard]] std::int64_t kernel_h() const noexcept { return kh_; }
  [[nodiscard]] std::int64_t kernel_w() const noexcept { return kw_; }
  [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
  [[nodiscard]] std::int64_t words_per_filter() const noexcept {
    return kh_ * kw_ * words_for_channels(c_);
  }
  /// Valid bits per filter: the N of Eq. 1.
  [[nodiscard]] std::int64_t bits_per_filter() const noexcept { return kh_ * kw_ * c_; }
  [[nodiscard]] std::int64_t num_words() const noexcept { return k_ * words_per_filter(); }

  /// Register-tile width T of the interleave; 0 when empty.
  [[nodiscard]] std::int64_t tile() const noexcept { return bank_ ? bank_->tile() : 0; }
  /// The bank the kernels read; the weights must not be empty.
  [[nodiscard]] const TiledFilterBank& bank() const noexcept {
    BF_DCHECK(bank_ != nullptr, "ConvWeights: empty");
    return *bank_;
  }

  /// Word `w` of filter `k` in filter-major order, resolving the interleave.
  [[nodiscard]] std::uint64_t word(std::int64_t k, std::int64_t w) const noexcept;
  /// Streams every word to `sink` in filter-major order, de-interleaving
  /// one tile block at a time (the model writer's path).
  void for_each_filter_major(const WordSink& sink) const;
  /// This bank when it is already tiled `tile` ways, shared; otherwise a
  /// private copy re-laid to it.
  [[nodiscard]] ConvWeights in_layout(std::int64_t tile) const;

 private:
  friend ConvWeights lower_conv_weights(PackedFilterBank filters, const std::string& layer);
  friend class BankLoad;
  ConvWeights(PackedFilterBank filters, std::int64_t tile);
  /// Adopts a bank already in its layout.
  explicit ConvWeights(TiledFilterBank bank);

  std::int64_t k_ = 0, kh_ = 0, kw_ = 0, c_ = 0;
  std::shared_ptr<const TiledFilterBank> bank_;
};

/// A binary fc layer's packed weights (K rows of N bits, one row per output
/// neuron) in execution layout: one TiledBitMatrix.  Same sharing contract
/// as ConvWeights.
class FcWeights {
 public:
  FcWeights() = default;

  /// Output neurons K.
  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  /// Input neurons N (valid bits per row).
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t words_per_row() const noexcept { return words_for_channels(cols_); }
  [[nodiscard]] std::int64_t num_words() const noexcept { return rows_ * words_per_row(); }

  /// Register-tile width T of the interleave; 0 when empty.
  [[nodiscard]] std::int64_t tile() const noexcept { return bank_ ? bank_->tile() : 0; }
  /// The matrix the kernels read; the weights must not be empty.
  [[nodiscard]] const TiledBitMatrix& bank() const noexcept {
    BF_DCHECK(bank_ != nullptr, "FcWeights: empty");
    return *bank_;
  }

  /// Word `w` of row `r`, resolving the interleave.
  [[nodiscard]] std::uint64_t word(std::int64_t r, std::int64_t w) const noexcept;
  /// Streams every word to `sink` in row-major order (see ConvWeights).
  void for_each_filter_major(const WordSink& sink) const;
  /// See ConvWeights::in_layout.
  [[nodiscard]] FcWeights in_layout(std::int64_t tile) const;

 private:
  friend FcWeights lower_fc_weights(PackedMatrix weights, const std::string& layer);
  friend class BankLoad;
  FcWeights(PackedMatrix weights, std::int64_t tile);
  /// Adopts a bank of `cols`-bit rows already in its layout.
  FcWeights(TiledBitMatrix bank, std::int64_t cols);

  std::int64_t rows_ = 0, cols_ = 0;
  std::shared_ptr<const TiledBitMatrix> bank_;
};

/// Lowers packed conv filters into execution layout (see the file comment).
/// Throws std::runtime_error naming `layer` when a bit above C is set in the
/// last word of any filter tap: the kernels do not mask weight tails, so
/// Eq. 1 needs them zero.
[[nodiscard]] ConvWeights lower_conv_weights(PackedFilterBank filters, const std::string& layer);

/// Lowers packed fc weights (K x N rows) into execution layout; throws
/// std::runtime_error naming `layer` when a bit above N is set in the last
/// word of any row.
[[nodiscard]] FcWeights lower_fc_weights(PackedMatrix weights, const std::string& layer);

/// One model load's binary banks, filled from the file's filter-major words
/// chunk by chunk (see the file comment).  conv() and fc() allocate a bank
/// and queue its chunks; run() reads, checks and places them.  One load
/// owns a BankLoad; only run()'s workers share it.
class BankLoad {
 public:
  /// `fan_out` false is the serial route: conv() and fc() run their bank's
  /// chunks before returning, in order on the caller's thread.
  explicit BankLoad(bool fan_out);
  ~BankLoad();
  BankLoad(const BankLoad&) = delete;
  BankLoad& operator=(const BankLoad&) = delete;

  /// Allocates the bank lower_conv_weights makes of a layer's K x kh x kw x C
  /// packed filters, its words not yet written, and queues its chunks, whose
  /// K * kh * kw * ceil(C/64) filter-major words `read` delivers.  The
  /// extents' byte count must not overflow (the loader charges it to its
  /// budget first).  The returned weights hold the lowered bank once run()
  /// has returned normally; until then nothing may read them.
  [[nodiscard]] ConvWeights conv(std::int64_t k, std::int64_t kh, std::int64_t kw,
                                 std::int64_t c, const std::string& layer, ByteSource read);

  /// conv() for a K x N fc matrix (`rows` x `cols` bits).
  [[nodiscard]] FcWeights fc(std::int64_t rows, std::int64_t cols, const std::string& layer,
                             ByteSource read);

  /// Runs every queued chunk that has not run (on the fan-out, on a
  /// transient pool when there are bytes enough for two workers), then
  /// throws the error of the first failing chunk in file order, if any: what
  /// its ByteSource threw, or the padding error naming the layer and the
  /// filter or row.  Once a chunk has failed, no later chunk runs and every
  /// call throws that error.  A pool worker's own failure (a runtime.worker
  /// failpoint) propagates as ThreadPool::run_on_all throws it.
  void run() BF_EXCLUDES(mu_);

 private:
  struct Bank;
  /// Rows [first, end) of banks_[bank]: whole tile blocks, in file order.
  struct Chunk {
    std::size_t bank;
    std::int64_t first, end;
  };
  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();

  /// Queues `bank`'s chunks; on the serial route, runs them.
  void queue(Bank bank);
  /// Takes chunks from the cursor until none is left or one before the next
  /// has failed; `scratch` holds one chunk.
  void work(std::uint64_t* scratch) BF_EXCLUDES(mu_);
  /// Reads, checks and places one chunk through `scratch`.
  void place(const Chunk& chunk, std::uint64_t* scratch) const;

  const bool fan_out_;
  std::vector<Bank> banks_;
  std::vector<Chunk> chunks_;
  std::size_t ran_ = 0;  ///< chunks_ before this index have been handed to run()
  /// The fan-out's cursor: the next chunk to take.  Ordering contract:
  /// relaxed fetch_add/store — it only hands out indices; the chunks it
  /// indexes are published to the workers by the pool's job start, and
  /// their words to the caller by its join.
  std::atomic<std::int64_t> next_{0};
  /// The first-failure bookkeeping: a leaf lock, held only to read or
  /// record the earliest failing chunk.
  core::Mutex mu_;
  std::int64_t failed_chunk_ BF_GUARDED_BY(mu_) = kNone;
  std::exception_ptr error_ BF_GUARDED_BY(mu_);
};

/// The rows of the bank the lowering makes of a layer's `rows` filters or
/// output neurons: whole tiles of the default plan's width T, so up to
/// T - 1 zero pad rows more than the model file holds.  io::Model::load
/// charges them to its load budget before BankLoad allocates the bank.
[[nodiscard]] std::int64_t lowered_rows(std::int64_t rows);

/// The popcount limit L of one binarized filter with `bits` valid bits: a
/// popcount p in [0, bits] passes `float(bits - 2p) >= threshold` — the
/// fused binarize's rule, dot >= threshold — exactly when p <= L.  L is the
/// largest passing p, or -1 when none passes (NaN, or a threshold above
/// `bits`).  Exact for every float, infinities included, and for fan-ins
/// past 2^24 where float(bits - 2p) rounds.
[[nodiscard]] std::int64_t popcount_limit(std::int64_t bits, float threshold) noexcept;

/// popcount_limit for each of a layer's `k` filters; empty `thresholds`
/// means sign(dot) (every threshold 0).
[[nodiscard]] std::vector<std::int64_t> popcount_limits(std::int64_t bits,
                                                        const std::vector<float>& thresholds,
                                                        std::int64_t k);

}  // namespace bitflow::graph
