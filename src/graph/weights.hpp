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
//   * streamed (stream_conv_weights / stream_fc_weights, from
//     io::Model::load): the bank is allocated without zeroing and its
//     filter-major words are read from the model stream in chunks of about
//     kStreamChunkBytes, whole tile blocks at a time; each chunk is checked
//     and its blocks interleaved straight into their final place.  The last
//     block is read short and its pad rows zero-filled.  A bank
//     gets one worker per kStreamBytesPerWorker bytes, up to the CPUs in the
//     process's affinity mask.  With fewer than two it runs inline on the
//     caller's thread; otherwise the call owns a transient runtime::ThreadPool
//     that it joins before returning, so no load thread outlives the call
//     and two loads may run at once.  Workers take chunks in file order
//     under one stream lock (a leaf: nothing else is locked and no failpoint
//     is evaluated while it is held), and check and interleave outside it.
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
// simd.force_fallback still fires at finalize); the streamed route's bank
// allocation passes alloc.buffer on the caller's thread, and its pool's
// workers pass the runtime.worker points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::graph {

/// Receives a bank's words in filter-major (model file) order, one chunk at
/// a time: `count` words starting at `words`, valid only during the call.
using WordSink = std::function<void(const std::uint64_t* words, std::int64_t count)>;

/// Reads the next `bytes` bytes of a model stream into `dst`, or throws
/// (a short read is a truncated file).  The streamed lowering calls it from
/// its load workers, one call at a time, under its stream lock.
using ByteSource = std::function<void(void* dst, std::int64_t bytes)>;

/// The streamed lowering's unit of work: whole tile blocks of about this
/// many bytes (at least one block) are read, checked and placed at a time.
inline constexpr std::int64_t kStreamChunkBytes = std::int64_t{64} << 10;

/// A streamed bank gets one load worker per this many bytes, up to the CPUs
/// the process may run on and its chunk count; below two it runs inline.
inline constexpr std::int64_t kStreamBytesPerWorker = std::int64_t{1} << 20;

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
  friend ConvWeights stream_conv_weights(std::int64_t k, std::int64_t kh, std::int64_t kw,
                                         std::int64_t c, const std::string& layer,
                                         const ByteSource& read);
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
  friend FcWeights stream_fc_weights(std::int64_t rows, std::int64_t cols,
                                     const std::string& layer, const ByteSource& read);
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

/// Reads a conv layer's K x kh x kw x C packed filters from `read` — the
/// filter-major words of the model file, K * kh * kw * ceil(C/64) of them —
/// straight into the layout lower_conv_weights gives the same bank, with the
/// same padding check (see the file comment for the chunks and workers).
/// The extents' byte count must not overflow (the loader charges it to its
/// budget first).  Throws what `read` throws on a short read, and the
/// padding error naming `layer` and the filter; when several chunks fail,
/// the error of the first in file order.  The stream is left after the
/// bank on success.
[[nodiscard]] ConvWeights stream_conv_weights(std::int64_t k, std::int64_t kh, std::int64_t kw,
                                              std::int64_t c, const std::string& layer,
                                              const ByteSource& read);

/// stream_conv_weights for a K x N fc matrix (`rows` x `cols` bits).
[[nodiscard]] FcWeights stream_fc_weights(std::int64_t rows, std::int64_t cols,
                                          const std::string& layer, const ByteSource& read);

/// The rows of the bank the lowering makes of a layer's `rows` filters or
/// output neurons: whole tiles of the default plan's width T, so up to
/// T - 1 zero pad rows more than the model file holds.  io::Model::load
/// charges them to its load budget before the bank is allocated.
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
