// Bit-packed binary tensors.
//
// A binary activation tensor holds values in {-1, +1}, encoded at the
// hardware level as {0, 1} (paper Sec. III: -1 -> 0, +1 -> 1).  PressedConv
// packs the bits along the *channel* dimension (Fig. 3): pixel (h, w) owns
// ceil(C/64) consecutive 64-bit words, and the words of neighbouring pixels
// are adjacent in memory (NHWC order).  This is the "locality-aware layout":
// a convolution window touches contiguous word runs, and the result of one
// layer is already in the layout the next layer consumes.
//
// Invariant maintained by every producer in the library: bits beyond the
// logical channel count C in the last word of a pixel are ZERO.  The binary
// dot product (Eq. 1) is computed as  dot = N - 2*popcount(xor)  with N the
// number of *valid* bits; zero tail bits in both operands XOR to zero and
// therefore never perturb the popcount.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "core/check.hpp"
#include "tensor/aligned_buffer.hpp"

namespace bitflow {

/// Number of 64-bit words needed for `c` channel bits.
[[nodiscard]] constexpr std::int64_t words_for_channels(std::int64_t c) noexcept {
  return (c + 63) / 64;
}

/// Binary H x W x C activation tensor, bit-packed along the channel
/// dimension into 64-bit words ("pressed" by a factor of 64, paper Fig. 3).
class PackedTensor {
 public:
  PackedTensor() = default;

  PackedTensor(std::int64_t h, std::int64_t w, std::int64_t c)
      : h_(h),
        w_(w),
        c_(c),
        pc_(words_for_channels(c)),
        buffer_(static_cast<std::size_t>(h * w * pc_) * sizeof(std::uint64_t)) {
    BF_CHECK(h >= 0 && w >= 0 && c >= 0, "PackedTensor extents ", h, "x", w, "x", c);
  }

  /// Non-owning view over `storage`, which must hold at least
  /// h * w * words_for_channels(c) words and outlive the view.  Nothing is
  /// zeroed: the engine lays several views over one activation arena and
  /// its producers write every word they later read (copies of a view are
  /// views of the same storage).
  PackedTensor(std::uint64_t* storage, std::int64_t h, std::int64_t w, std::int64_t c)
      : h_(h), w_(w), c_(c), pc_(words_for_channels(c)), borrowed_(storage) {
    BF_CHECK(h >= 0 && w >= 0 && c >= 0, "PackedTensor extents ", h, "x", w, "x", c);
    BF_CHECK(storage != nullptr || h * w * pc_ == 0, "PackedTensor view over null storage");
  }

  [[nodiscard]] std::int64_t height() const noexcept { return h_; }
  [[nodiscard]] std::int64_t width() const noexcept { return w_; }
  [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
  /// Words per pixel ("pressed channel" extent).
  [[nodiscard]] std::int64_t words_per_pixel() const noexcept { return pc_; }
  [[nodiscard]] std::int64_t num_words() const noexcept { return h_ * w_ * pc_; }

  [[nodiscard]] std::uint64_t* words() noexcept {
    return borrowed_ != nullptr ? borrowed_ : reinterpret_cast<std::uint64_t*>(buffer_.data());
  }
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return borrowed_ != nullptr ? borrowed_
                                : reinterpret_cast<const std::uint64_t*>(buffer_.data());
  }

  /// Pointer to the first packed word of pixel (h, w).
  [[nodiscard]] const std::uint64_t* pixel(std::int64_t h, std::int64_t w) const noexcept {
    BF_DCHECK(h >= 0 && h < h_ && w >= 0 && w < w_, "pixel (", h, ", ", w, ") outside ", h_, "x",
              w_);
    return words() + (h * w_ + w) * pc_;
  }
  [[nodiscard]] std::uint64_t* pixel(std::int64_t h, std::int64_t w) noexcept {
    BF_DCHECK(h >= 0 && h < h_ && w >= 0 && w < w_, "pixel (", h, ", ", w, ") outside ", h_, "x",
              w_);
    return words() + (h * w_ + w) * pc_;
  }

  [[nodiscard]] bool get_bit(std::int64_t h, std::int64_t w, std::int64_t c) const noexcept {
    BF_DCHECK(c >= 0 && c < c_, "channel bit ", c, " outside C=", c_);
    return (pixel(h, w)[c >> 6] >> (c & 63)) & 1u;
  }

  void set_bit(std::int64_t h, std::int64_t w, std::int64_t c, bool value) noexcept {
    BF_DCHECK(c >= 0 && c < c_, "channel bit ", c, " outside C=", c_);
    std::uint64_t& word = pixel(h, w)[c >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (c & 63);
    if (value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }

  /// Decoded {-1, +1} value of element (h, w, c).
  [[nodiscard]] float sign_value(std::int64_t h, std::int64_t w, std::int64_t c) const noexcept {
    return get_bit(h, w, c) ? 1.0f : -1.0f;
  }

  void zero() noexcept {
    if (num_words() > 0) std::memset(words(), 0, static_cast<std::size_t>(num_words()) * 8);
  }

 private:
  std::int64_t h_ = 0, w_ = 0, c_ = 0, pc_ = 0;
  AlignedBuffer buffer_;               // empty for a view
  std::uint64_t* borrowed_ = nullptr;  // non-null for a view
};

/// Bank of K binary filters, each kh x kw x C, bit-packed along the channel
/// dimension exactly like PackedTensor so that the convolution inner loop is
/// a straight run of XOR + popcount over matching word sequences.
/// Word layout: [k][i][j][p] with p in [0, words_per_pixel).
class PackedFilterBank {
 public:
  PackedFilterBank() = default;

  PackedFilterBank(std::int64_t k, std::int64_t kh, std::int64_t kw, std::int64_t c)
      : k_(k),
        kh_(kh),
        kw_(kw),
        c_(c),
        pc_(words_for_channels(c)),
        buffer_(static_cast<std::size_t>(k * kh * kw * pc_) * sizeof(std::uint64_t)) {
    BF_CHECK(k >= 0 && kh >= 0 && kw >= 0 && c >= 0, "PackedFilterBank extents ", k, "x", kh, "x",
             kw, "x", c);
  }

  [[nodiscard]] std::int64_t num_filters() const noexcept { return k_; }
  [[nodiscard]] std::int64_t kernel_h() const noexcept { return kh_; }
  [[nodiscard]] std::int64_t kernel_w() const noexcept { return kw_; }
  [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
  [[nodiscard]] std::int64_t words_per_pixel() const noexcept { return pc_; }
  [[nodiscard]] std::int64_t words_per_filter() const noexcept { return kh_ * kw_ * pc_; }
  /// Valid bits per filter: the N of Eq. 1.
  [[nodiscard]] std::int64_t bits_per_filter() const noexcept { return kh_ * kw_ * c_; }

  [[nodiscard]] std::uint64_t* words() noexcept {
    return reinterpret_cast<std::uint64_t*>(buffer_.data());
  }
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(buffer_.data());
  }

  /// Pointer to the packed words of filter k (kh*kw*pc consecutive words).
  [[nodiscard]] const std::uint64_t* filter(std::int64_t k) const noexcept {
    BF_DCHECK(k >= 0 && k < k_, "filter ", k, " outside K=", k_);
    return words() + k * words_per_filter();
  }
  [[nodiscard]] std::uint64_t* filter(std::int64_t k) noexcept {
    BF_DCHECK(k >= 0 && k < k_, "filter ", k, " outside K=", k_);
    return words() + k * words_per_filter();
  }

  /// Pointer to the packed words of tap (i, j) of filter k.
  [[nodiscard]] const std::uint64_t* tap(std::int64_t k, std::int64_t i,
                                         std::int64_t j) const noexcept {
    return filter(k) + (i * kw_ + j) * pc_;
  }
  [[nodiscard]] std::uint64_t* tap(std::int64_t k, std::int64_t i, std::int64_t j) noexcept {
    return filter(k) + (i * kw_ + j) * pc_;
  }

  [[nodiscard]] bool get_bit(std::int64_t k, std::int64_t i, std::int64_t j,
                             std::int64_t c) const noexcept {
    BF_DCHECK(c >= 0 && c < c_, "channel bit ", c, " outside C=", c_);
    return (tap(k, i, j)[c >> 6] >> (c & 63)) & 1u;
  }

  void set_bit(std::int64_t k, std::int64_t i, std::int64_t j, std::int64_t c,
               bool value) noexcept {
    BF_DCHECK(c >= 0 && c < c_, "channel bit ", c, " outside C=", c_);
    std::uint64_t& word = tap(k, i, j)[c >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (c & 63);
    if (value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }

  [[nodiscard]] float sign_value(std::int64_t k, std::int64_t i, std::int64_t j,
                                 std::int64_t c) const noexcept {
    return get_bit(k, i, j, c) ? 1.0f : -1.0f;
  }

  /// Hands the word storage (filter-major, exactly K * words_per_filter
  /// words) to the caller and leaves an empty bank — how the weight
  /// lowering (graph/weights.hpp) re-lays the weights without a second copy.
  [[nodiscard]] AlignedBuffer release_storage() && noexcept {
    k_ = kh_ = kw_ = c_ = pc_ = 0;
    return std::move(buffer_);
  }

 private:
  std::int64_t k_ = 0, kh_ = 0, kw_ = 0, c_ = 0, pc_ = 0;
  AlignedBuffer buffer_;
};

/// T-way interleaved bank of equal-length packed bit rows — the weight
/// layout behind the register-tiled kernels (daBNN-style), produced once
/// when the weights enter the process (graph/weights.hpp).
///
/// The rows are grouped into ceil(rows / tile) whole tiles of `tile` rows
/// each; inside a tile the words are interleaved word-major:
///   tile t, word position w, lane l  ->  words()[ (t*row_words + w)*tile + l ]
/// so the kernel loads one activation word and finds the matching word of
/// all `tile` rows in `tile` *contiguous* words (two cache lines at
/// tile = 16).  When `tile` does not divide `rows`, the last tile ends in
/// tile - rows % tile pad rows, which are all zero: the kernels run every
/// tile the same way and never store or set a pad lane's result.  Storage
/// is exactly tiles() * tile * row_words words.
class TiledBitMatrix {
 public:
  TiledBitMatrix() = default;

  /// A zeroed bank.
  TiledBitMatrix(std::int64_t rows, std::int64_t row_words, std::int64_t tile)
      : TiledBitMatrix(AlignedBuffer(static_cast<std::size_t>(padded_rows(rows, tile) *
                                                              row_words) *
                                     sizeof(std::uint64_t)),
                       rows, row_words, tile) {}

  /// Adopts `storage` (exactly padded_rows(rows, tile) * row_words words)
  /// as-is; its contents are only in the tiled order, with zero pad rows,
  /// once the caller has put them there (bitpack's tiling, the model
  /// loader's streamed lowering).
  TiledBitMatrix(AlignedBuffer storage, std::int64_t rows, std::int64_t row_words,
                 std::int64_t tile)
      : rows_(rows), row_words_(row_words), tile_(tile), buffer_(std::move(storage)) {
    BF_CHECK(rows >= 0 && row_words >= 0 && tile >= 1, "TiledBitMatrix extents ", rows, "x",
             row_words, " tile ", tile);
    BF_CHECK(buffer_.size_bytes() == static_cast<std::size_t>(num_words()) * sizeof(std::uint64_t),
             "TiledBitMatrix: adopted ", buffer_.size_bytes(), " bytes for ", rows, "x",
             row_words, " words in tiles of ", tile);
  }

  /// `rows` rounded up to whole tiles of `tile` rows: the rows a bank stores.
  [[nodiscard]] static constexpr std::int64_t padded_rows(std::int64_t rows,
                                                          std::int64_t tile) noexcept {
    return (rows + tile - 1) / tile * tile;
  }

  /// Logical rows K (pad rows excluded).
  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t row_words() const noexcept { return row_words_; }
  /// Rows interleaved per tile (the register-tile width T of the kernels).
  [[nodiscard]] std::int64_t tile() const noexcept { return tile_; }
  /// Tiles stored: ceil(rows / tile), the last one padded when T does not
  /// divide K.
  [[nodiscard]] std::int64_t tiles() const noexcept { return (rows_ + tile_ - 1) / tile_; }
  /// Words stored, pad rows included.
  [[nodiscard]] std::int64_t num_words() const noexcept {
    return padded_rows(rows_, tile_) * row_words_;
  }

  [[nodiscard]] std::uint64_t* words() noexcept {
    return reinterpret_cast<std::uint64_t*>(buffer_.data());
  }
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(buffer_.data());
  }

  /// Pointer to tile `t`'s interleaved block: row_words * tile consecutive
  /// words, word-major ([w][lane]).
  [[nodiscard]] const std::uint64_t* tile_block(std::int64_t t) const noexcept {
    BF_DCHECK(t >= 0 && t < tiles(), "tile ", t, " outside ", tiles());
    return words() + t * row_words_ * tile_;
  }
  [[nodiscard]] std::uint64_t* tile_block(std::int64_t t) noexcept {
    BF_DCHECK(t >= 0 && t < tiles(), "tile ", t, " outside ", tiles());
    return words() + t * row_words_ * tile_;
  }

  /// Writes tile `t`'s rows, pad rows included, to `rows` row-major
  /// (tile * row_words words): the inverse of the interleave, one block at a
  /// time, for writers that need the filter-major order back without a
  /// whole second copy.
  void untile_block(std::int64_t t, std::uint64_t* rows) const noexcept {
    const std::uint64_t* block = tile_block(t);
    for (std::int64_t l = 0; l < tile_; ++l) {
      for (std::int64_t w = 0; w < row_words_; ++w) {
        rows[l * row_words_ + w] = block[w * tile_ + l];
      }
    }
  }

  /// Word `w` of row `k` (a pad row when k >= rows()), resolving the
  /// interleave — packers and tests only; kernels walk the tile blocks
  /// directly.
  [[nodiscard]] std::uint64_t row_word(std::int64_t k, std::int64_t w) const noexcept {
    BF_DCHECK(k >= 0 && k < padded_rows(rows_, tile_) && w >= 0 && w < row_words_,
              "row word (", k, ", ", w, ") outside ", rows_, "x", row_words_);
    return tile_block(k / tile_)[w * tile_ + k % tile_];
  }

 private:
  std::int64_t rows_ = 0, row_words_ = 0, tile_ = 1;
  AlignedBuffer buffer_;
};

/// Interleaved counterpart of PackedFilterBank: each logical row of the
/// underlying TiledBitMatrix is one filter's kh*kw*pc packed words, grouped
/// into whole tiles of T filters, the last padded with zero filters
/// (produced once per process by bitpack::tile_filters or the model
/// loader, consumed by the register-tiled PressedConv).
class TiledFilterBank {
 public:
  TiledFilterBank() = default;

  TiledFilterBank(TiledBitMatrix rows, std::int64_t kh, std::int64_t kw, std::int64_t c)
      : rows_(std::move(rows)), kh_(kh), kw_(kw), c_(c), pc_(words_for_channels(c)) {
    BF_CHECK(rows_.row_words() == kh_ * kw_ * pc_, "TiledFilterBank: ", rows_.row_words(),
             " words per filter for ", kh_, "x", kw_, "x", c_);
  }

  [[nodiscard]] std::int64_t num_filters() const noexcept { return rows_.rows(); }
  [[nodiscard]] std::int64_t kernel_h() const noexcept { return kh_; }
  [[nodiscard]] std::int64_t kernel_w() const noexcept { return kw_; }
  [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
  [[nodiscard]] std::int64_t words_per_pixel() const noexcept { return pc_; }
  [[nodiscard]] std::int64_t words_per_filter() const noexcept { return kh_ * kw_ * pc_; }
  /// Valid bits per filter: the N of Eq. 1.
  [[nodiscard]] std::int64_t bits_per_filter() const noexcept { return kh_ * kw_ * c_; }
  [[nodiscard]] std::int64_t tile() const noexcept { return rows_.tile(); }

  [[nodiscard]] const TiledBitMatrix& rows() const noexcept { return rows_; }
  [[nodiscard]] TiledBitMatrix& rows() noexcept { return rows_; }

 private:
  TiledBitMatrix rows_;
  std::int64_t kh_ = 0, kw_ = 0, c_ = 0, pc_ = 0;
};

/// Bit-packed binary matrix for fully connected layers: `rows` vectors of
/// `cols` bits each, rows padded to whole words with zero tail bits.
/// Row r occupies words [r*words_per_row, (r+1)*words_per_row).
class PackedMatrix {
 public:
  PackedMatrix() = default;

  PackedMatrix(std::int64_t rows, std::int64_t cols)
      : rows_(rows),
        cols_(cols),
        wpr_(words_for_channels(cols)),
        buffer_(static_cast<std::size_t>(rows * wpr_) * sizeof(std::uint64_t)) {
    BF_CHECK(rows >= 0 && cols >= 0, "PackedMatrix extents ", rows, "x", cols);
  }

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t words_per_row() const noexcept { return wpr_; }
  [[nodiscard]] std::int64_t num_words() const noexcept { return rows_ * wpr_; }

  [[nodiscard]] std::uint64_t* words() noexcept {
    return reinterpret_cast<std::uint64_t*>(buffer_.data());
  }
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(buffer_.data());
  }

  [[nodiscard]] const std::uint64_t* row(std::int64_t r) const noexcept {
    BF_DCHECK(r >= 0 && r < rows_, "row ", r, " outside rows=", rows_);
    return words() + r * wpr_;
  }
  [[nodiscard]] std::uint64_t* row(std::int64_t r) noexcept {
    BF_DCHECK(r >= 0 && r < rows_, "row ", r, " outside rows=", rows_);
    return words() + r * wpr_;
  }

  [[nodiscard]] bool get_bit(std::int64_t r, std::int64_t c) const noexcept {
    BF_DCHECK(c >= 0 && c < cols_, "column bit ", c, " outside cols=", cols_);
    return (row(r)[c >> 6] >> (c & 63)) & 1u;
  }

  void set_bit(std::int64_t r, std::int64_t c, bool value) noexcept {
    BF_DCHECK(c >= 0 && c < cols_, "column bit ", c, " outside cols=", cols_);
    std::uint64_t& word = row(r)[c >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (c & 63);
    if (value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }

  [[nodiscard]] float sign_value(std::int64_t r, std::int64_t c) const noexcept {
    return get_bit(r, c) ? 1.0f : -1.0f;
  }

  /// Hands the word storage (row-major, exactly rows * words_per_row words)
  /// to the caller and leaves an empty matrix (see
  /// PackedFilterBank::release_storage).
  [[nodiscard]] AlignedBuffer release_storage() && noexcept {
    rows_ = cols_ = wpr_ = 0;
    return std::move(buffer_);
  }

 private:
  std::int64_t rows_ = 0, cols_ = 0, wpr_ = 0;
  AlignedBuffer buffer_;
};

}  // namespace bitflow
