#include "graph/weights.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "graph/scheduler.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::graph {

namespace {

/// The layout finalize() commits for a layer under a default NetworkConfig:
/// the tile width of its default_kernel_plan, 0 for filter-major.  Consults
/// no failpoint.
std::int64_t default_tile(std::int64_t packed_dim, std::int64_t k) {
  const NetworkConfig defaults;
  return default_kernel_plan(packed_dim, k, simd::cpu_features(), defaults.policy,
                             defaults.tile_weights, defaults.max_isa)
      .tile;
}

/// Throws when a padding bit is set: `words` holds `runs` runs of
/// `run_words` words with `bits` valid bits each, and every bit from `bits`
/// up in a run's last word must be zero.  The error names the layer and the
/// offending filter or row (`runs_per_unit` runs each).
void check_padding(const std::uint64_t* words, std::int64_t runs, std::int64_t run_words,
                   std::int64_t bits, std::int64_t runs_per_unit, const std::string& layer,
                   const char* dim, const char* unit) {
  if (bits % 64 == 0) return;
  const std::uint64_t padding = ~std::uint64_t{0} << (bits % 64);
  for (std::int64_t r = 0; r < runs; ++r) {
    if ((words[(r + 1) * run_words - 1] & padding) != 0) {
      throw std::runtime_error("weights of layer '" + layer + "': padding bits above " + dim +
                               "=" + std::to_string(bits) + " are set in " + unit + " " +
                               std::to_string(r / runs_per_unit));
    }
  }
}

/// Streams an interleaved matrix row-major: each full tile block through one
/// block of scratch, then the remainder rows, which are stored row-major.
void stream_rows(const TiledBitMatrix& m, const WordSink& sink) {
  std::vector<std::uint64_t> block(static_cast<std::size_t>(m.tile() * m.row_words()));
  for (std::int64_t t = 0; t < m.full_tiles(); ++t) {
    m.untile_block(t, block.data());
    sink(block.data(), static_cast<std::int64_t>(block.size()));
  }
  if (m.remainder_rows() > 0) sink(m.remainder_row(0), m.remainder_rows() * m.row_words());
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
    : k_(filters.num_filters()),
      kh_(filters.kernel_h()),
      kw_(filters.kernel_w()),
      c_(filters.channels()) {
  using Bank = std::variant<PackedFilterBank, TiledFilterBank>;
  bank_ = tile > 0 ? std::make_shared<const Bank>(bitpack::tile_filters(std::move(filters), tile))
                   : std::make_shared<const Bank>(std::move(filters));
}

std::uint64_t ConvWeights::word(std::int64_t k, std::int64_t w) const noexcept {
  if (const TiledFilterBank* t = tiled()) return t->rows().row_word(k, w);
  return filter_major()->filter(k)[w];
}

void ConvWeights::for_each_filter_major(const WordSink& sink) const {
  if (const TiledFilterBank* t = tiled()) {
    stream_rows(t->rows(), sink);
  } else if (num_words() > 0) {
    sink(filter_major()->words(), num_words());
  }
}

ConvWeights ConvWeights::in_layout(std::int64_t tile) const {
  if (tile == this->tile()) return *this;
  PackedFilterBank copy(k_, kh_, kw_, c_);
  for_each_filter_major(copy_into(copy.words()));
  return ConvWeights(std::move(copy), tile);
}

ConvWeights lower_conv_weights(PackedFilterBank filters, const std::string& layer) {
  const std::int64_t taps = filters.kernel_h() * filters.kernel_w();
  check_padding(filters.words(), filters.num_filters() * taps, filters.words_per_pixel(),
                filters.channels(), taps, layer, "C", "filter");
  const std::int64_t tile = default_tile(filters.channels(), filters.num_filters());
  return ConvWeights(std::move(filters), tile);
}

// --- fc --------------------------------------------------------------------

FcWeights::FcWeights(PackedMatrix weights, std::int64_t tile)
    : rows_(weights.rows()), cols_(weights.cols()) {
  using Bank = std::variant<PackedMatrix, TiledBitMatrix>;
  bank_ = tile > 0
              ? std::make_shared<const Bank>(bitpack::tile_fc_weights(std::move(weights), tile))
              : std::make_shared<const Bank>(std::move(weights));
}

std::uint64_t FcWeights::word(std::int64_t r, std::int64_t w) const noexcept {
  if (const TiledBitMatrix* t = tiled()) return t->row_word(r, w);
  return filter_major()->row(r)[w];
}

void FcWeights::for_each_filter_major(const WordSink& sink) const {
  if (const TiledBitMatrix* t = tiled()) {
    stream_rows(*t, sink);
  } else if (num_words() > 0) {
    sink(filter_major()->words(), num_words());
  }
}

FcWeights FcWeights::in_layout(std::int64_t tile) const {
  if (tile == this->tile()) return *this;
  PackedMatrix copy(rows_, cols_);
  for_each_filter_major(copy_into(copy.words()));
  return FcWeights(std::move(copy), tile);
}

FcWeights lower_fc_weights(PackedMatrix weights, const std::string& layer) {
  check_padding(weights.words(), weights.rows(), weights.words_per_row(), weights.cols(), 1,
                layer, "N", "row");
  const std::int64_t tile = default_tile(weights.cols(), weights.rows());
  return FcWeights(std::move(weights), tile);
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
