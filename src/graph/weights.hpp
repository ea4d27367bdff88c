// Binary layer weights in execution layout, lowered once per process.
//
// Packed weights enter the process in io::Model::load, io::Model::add_conv /
// add_fc and BinaryNetwork::add_conv / add_fc, and each of those hands them
// straight to lower_conv_weights() / lower_fc_weights();
// BinaryNetwork::add_conv_packed / add_fc_packed take weights already
// lowered.  Lowering rejects set padding bits, then permutes the
// bank in place (bitpack::tile_*) into the layout finalize() commits under a
// default NetworkConfig — both take it from the same default_kernel_plan
// (graph/scheduler.hpp): the T-way register-tile interleave, or
// filter-major when K < 4.  The result is immutable and shared_ptr-owned,
// so an io::Model and every network instantiated from it read the same bytes,
// and the bank lives exactly as long as its last holder.
//
// The file also lowers a binarizing layer's float thresholds into the
// integer popcount limits the fused binarize kernels compare against
// (popcount_limit), once per layer when finalize() builds its plan.
//
// finalize() adopts a bank whose layout matches its plan and re-lays a
// private copy (in_layout()) only when the plan differs: tile_weights =
// false, a max_isa cap, a SchedulerPolicy or an armed simd.force_fallback
// that changes T, or an auto-tuner decision.  Lowering never evaluates a
// failpoint, so a `once` simd.force_fallback still fires at finalize.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "tensor/packed_tensor.hpp"

namespace bitflow::graph {

/// Receives a bank's words in filter-major (model file) order, one chunk at
/// a time: `count` words starting at `words`, valid only during the call.
using WordSink = std::function<void(const std::uint64_t* words, std::int64_t count)>;

/// A binary conv layer's packed filters (K x kh x kw x C bits) in execution
/// layout.  Copies share one immutable bank; a default-constructed value is
/// empty (all extents 0).
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

  /// Register-tile width T of the interleave; 0 = filter-major.
  [[nodiscard]] std::int64_t tile() const noexcept {
    return tiled() != nullptr ? tiled()->tile() : 0;
  }
  /// The bank the kernels read: exactly one is non-null unless empty.
  [[nodiscard]] const TiledFilterBank* tiled() const noexcept {
    return std::get_if<TiledFilterBank>(bank_.get());
  }
  [[nodiscard]] const PackedFilterBank* filter_major() const noexcept {
    return std::get_if<PackedFilterBank>(bank_.get());
  }

  /// Word `w` of filter `k` in filter-major order, resolving the interleave.
  [[nodiscard]] std::uint64_t word(std::int64_t k, std::int64_t w) const noexcept;
  /// Streams every word to `sink` in filter-major order, de-interleaving
  /// one tile block at a time (the model writer's path).
  void for_each_filter_major(const WordSink& sink) const;
  /// This bank when it is already in layout `tile` (0 = filter-major),
  /// shared; otherwise a private copy re-laid to it.
  [[nodiscard]] ConvWeights in_layout(std::int64_t tile) const;

 private:
  friend ConvWeights lower_conv_weights(PackedFilterBank filters, const std::string& layer);
  ConvWeights(PackedFilterBank filters, std::int64_t tile);

  std::int64_t k_ = 0, kh_ = 0, kw_ = 0, c_ = 0;
  std::shared_ptr<const std::variant<PackedFilterBank, TiledFilterBank>> bank_;
};

/// A binary fc layer's packed weights (K rows of N bits, one row per output
/// neuron) in execution layout.  Same sharing contract as ConvWeights.
class FcWeights {
 public:
  FcWeights() = default;

  /// Output neurons K.
  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  /// Input neurons N (valid bits per row).
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t words_per_row() const noexcept { return words_for_channels(cols_); }
  [[nodiscard]] std::int64_t num_words() const noexcept { return rows_ * words_per_row(); }

  /// Register-tile width T of the interleave; 0 = row-major.
  [[nodiscard]] std::int64_t tile() const noexcept {
    return tiled() != nullptr ? tiled()->tile() : 0;
  }
  /// The matrix the kernels read: exactly one is non-null unless empty.
  [[nodiscard]] const TiledBitMatrix* tiled() const noexcept {
    return std::get_if<TiledBitMatrix>(bank_.get());
  }
  [[nodiscard]] const PackedMatrix* filter_major() const noexcept {
    return std::get_if<PackedMatrix>(bank_.get());
  }

  /// Word `w` of row `r`, resolving the interleave.
  [[nodiscard]] std::uint64_t word(std::int64_t r, std::int64_t w) const noexcept;
  /// Streams every word to `sink` in row-major order (see ConvWeights).
  void for_each_filter_major(const WordSink& sink) const;
  /// See ConvWeights::in_layout.
  [[nodiscard]] FcWeights in_layout(std::int64_t tile) const;

 private:
  friend FcWeights lower_fc_weights(PackedMatrix weights, const std::string& layer);
  FcWeights(PackedMatrix weights, std::int64_t tile);

  std::int64_t rows_ = 0, cols_ = 0;
  std::shared_ptr<const std::variant<PackedMatrix, TiledBitMatrix>> bank_;
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
