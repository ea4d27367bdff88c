#include "bitpack/packer.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "bitpack/bit64.hpp"
#include "core/check.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::bitpack {

namespace {

/// Fused binarize + pack of 64 consecutive floats (Table II/III style: one
/// bit-field assignment per element, the compiler lowers each to a compare +
/// bit insert; no explicit shift/or in the source).
std::uint64_t pack64(const float* p) {
  bit64_u v;
  v.u = 0;
  // clang-format off
  v.b.b0  = p[0]  >= 0.0f; v.b.b1  = p[1]  >= 0.0f; v.b.b2  = p[2]  >= 0.0f; v.b.b3  = p[3]  >= 0.0f;
  v.b.b4  = p[4]  >= 0.0f; v.b.b5  = p[5]  >= 0.0f; v.b.b6  = p[6]  >= 0.0f; v.b.b7  = p[7]  >= 0.0f;
  v.b.b8  = p[8]  >= 0.0f; v.b.b9  = p[9]  >= 0.0f; v.b.b10 = p[10] >= 0.0f; v.b.b11 = p[11] >= 0.0f;
  v.b.b12 = p[12] >= 0.0f; v.b.b13 = p[13] >= 0.0f; v.b.b14 = p[14] >= 0.0f; v.b.b15 = p[15] >= 0.0f;
  v.b.b16 = p[16] >= 0.0f; v.b.b17 = p[17] >= 0.0f; v.b.b18 = p[18] >= 0.0f; v.b.b19 = p[19] >= 0.0f;
  v.b.b20 = p[20] >= 0.0f; v.b.b21 = p[21] >= 0.0f; v.b.b22 = p[22] >= 0.0f; v.b.b23 = p[23] >= 0.0f;
  v.b.b24 = p[24] >= 0.0f; v.b.b25 = p[25] >= 0.0f; v.b.b26 = p[26] >= 0.0f; v.b.b27 = p[27] >= 0.0f;
  v.b.b28 = p[28] >= 0.0f; v.b.b29 = p[29] >= 0.0f; v.b.b30 = p[30] >= 0.0f; v.b.b31 = p[31] >= 0.0f;
  v.b.b32 = p[32] >= 0.0f; v.b.b33 = p[33] >= 0.0f; v.b.b34 = p[34] >= 0.0f; v.b.b35 = p[35] >= 0.0f;
  v.b.b36 = p[36] >= 0.0f; v.b.b37 = p[37] >= 0.0f; v.b.b38 = p[38] >= 0.0f; v.b.b39 = p[39] >= 0.0f;
  v.b.b40 = p[40] >= 0.0f; v.b.b41 = p[41] >= 0.0f; v.b.b42 = p[42] >= 0.0f; v.b.b43 = p[43] >= 0.0f;
  v.b.b44 = p[44] >= 0.0f; v.b.b45 = p[45] >= 0.0f; v.b.b46 = p[46] >= 0.0f; v.b.b47 = p[47] >= 0.0f;
  v.b.b48 = p[48] >= 0.0f; v.b.b49 = p[49] >= 0.0f; v.b.b50 = p[50] >= 0.0f; v.b.b51 = p[51] >= 0.0f;
  v.b.b52 = p[52] >= 0.0f; v.b.b53 = p[53] >= 0.0f; v.b.b54 = p[54] >= 0.0f; v.b.b55 = p[55] >= 0.0f;
  v.b.b56 = p[56] >= 0.0f; v.b.b57 = p[57] >= 0.0f; v.b.b58 = p[58] >= 0.0f; v.b.b59 = p[59] >= 0.0f;
  v.b.b60 = p[60] >= 0.0f; v.b.b61 = p[61] >= 0.0f; v.b.b62 = p[62] >= 0.0f; v.b.b63 = p[63] >= 0.0f;
  // clang-format on
  return v.u;
}

/// Packs `bits` (< 64) consecutive floats into the low bits of one word.
std::uint64_t pack_partial(const float* p, std::int64_t bits) {
  std::uint64_t w = 0;
  for (std::int64_t i = 0; i < bits; ++i) {
    w |= static_cast<std::uint64_t>(p[i] >= 0.0f) << i;
  }
  return w;
}

/// Fused binarize + pack of 64 floats read with a stride (Table III: packing
/// a column of a row-major matrix, which transposes implicitly).
std::uint64_t pack64_strided(const float* p, std::int64_t stride) {
  std::uint64_t w = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    w |= static_cast<std::uint64_t>(p[i * stride] >= 0.0f) << i;
  }
  return w;
}

/// Packs a contiguous run of `count` floats into `words` (tail bits zero).
void pack_run(const float* src, std::int64_t count, std::uint64_t* dst) {
  BF_DCHECK(count >= 0, "pack_run: negative count ", count);
  std::int64_t c = 0, p = 0;
  for (; c + 64 <= count; c += 64, ++p) dst[p] = pack64(src + c);
  if (c < count) dst[p] = pack_partial(src + c, count - c);
}

}  // namespace

PackedTensor pack_activations_scalar(const Tensor& hwc) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_activations_scalar expects an HWC tensor");
  }
  PackedTensor out(hwc.height(), hwc.width(), hwc.channels());
  const std::int64_t c = hwc.channels();
  const float* src = hwc.data();
  std::uint64_t* dst = out.words();
  const std::int64_t pc = out.words_per_pixel();
  for (std::int64_t px = 0; px < hwc.height() * hwc.width(); ++px) {
    pack_run(src + px * c, c, dst + px * pc);
  }
  return out;
}

void pack_activations_into(const Tensor& hwc, PackedTensor& out) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_activations_into expects an HWC tensor");
  }
  if (out.height() != hwc.height() || out.width() != hwc.width() ||
      out.channels() != hwc.channels()) {
    throw std::invalid_argument("pack_activations_into: extent mismatch");
  }
  const std::int64_t c = hwc.channels();
  const float* src = hwc.data();
  std::uint64_t* dst = out.words();
  const std::int64_t pc = out.words_per_pixel();
  for (std::int64_t px = 0; px < hwc.height() * hwc.width(); ++px) {
    pack_run(src + px * c, c, dst + px * pc);
  }
}

void pack_activations_into_interior(const Tensor& hwc, PackedTensor& out, std::int64_t margin) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_activations_into_interior expects an HWC tensor");
  }
  if (out.height() != hwc.height() + 2 * margin || out.width() != hwc.width() + 2 * margin ||
      out.channels() != hwc.channels()) {
    throw std::invalid_argument("pack_activations_into_interior: extent mismatch");
  }
  const std::int64_t c = hwc.channels();
  const std::int64_t pc = out.words_per_pixel();
  for (std::int64_t h = 0; h < hwc.height(); ++h) {
    const float* src = hwc.data() + hwc.index(h, 0, 0);
    std::uint64_t* dst = out.pixel(h + margin, margin);
    for (std::int64_t w = 0; w < hwc.width(); ++w) {
      pack_run(src + w * c, c, dst + w * pc);
    }
  }
}

void pack_activations_into_interior(const Tensor& hwc, PackedTensor& out, std::int64_t margin,
                                    runtime::ThreadPool& pool) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_activations_into_interior expects an HWC tensor");
  }
  if (out.height() != hwc.height() + 2 * margin || out.width() != hwc.width() + 2 * margin ||
      out.channels() != hwc.channels()) {
    throw std::invalid_argument("pack_activations_into_interior: extent mismatch");
  }
  const std::int64_t c = hwc.channels();
  const std::int64_t pc = out.words_per_pixel();
  pool.parallel_for(hwc.height(), [&](runtime::Range r, int) {
    for (std::int64_t h = r.begin; h < r.end; ++h) {
      const float* src = hwc.data() + hwc.index(h, 0, 0);
      std::uint64_t* dst = out.pixel(h + margin, margin);
      for (std::int64_t w = 0; w < hwc.width(); ++w) {
        pack_run(src + w * c, c, dst + w * pc);
      }
    }
  });
}

void pack_thresholded_into_interior(const Tensor& hwc, const float* thresholds,
                                    PackedTensor& out, std::int64_t margin) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_thresholded_into_interior expects an HWC tensor");
  }
  if (out.height() != hwc.height() + 2 * margin || out.width() != hwc.width() + 2 * margin ||
      out.channels() != hwc.channels()) {
    throw std::invalid_argument("pack_thresholded_into_interior: extent mismatch");
  }
  const std::int64_t c = hwc.channels();
  const std::int64_t pc = out.words_per_pixel();
  for (std::int64_t h = 0; h < hwc.height(); ++h) {
    const float* src = hwc.data() + hwc.index(h, 0, 0);
    std::uint64_t* dst = out.pixel(h + margin, margin);
    for (std::int64_t w = 0; w < hwc.width(); ++w) {
      const float* px = src + w * c;
      std::uint64_t* words = dst + w * pc;
      for (std::int64_t p = 0; p < pc; ++p) words[p] = 0;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        const float th = thresholds != nullptr ? thresholds[cc] : 0.0f;
        if (px[cc] >= th) words[cc >> 6] |= std::uint64_t{1} << (cc & 63);
      }
    }
  }
}

void flatten_packed(const PackedTensor& t, PackedMatrix& out) {
  const std::int64_t bits = t.height() * t.width() * t.channels();
  if (out.rows() != 1 || out.cols() != bits) {
    throw std::invalid_argument("flatten_packed: output must be 1 x (H*W*C)");
  }
  if (t.channels() % 64 == 0) {
    std::memcpy(out.row(0), t.words(), static_cast<std::size_t>(t.num_words()) * 8);
    return;
  }
  std::uint64_t* row = out.row(0);
  for (std::int64_t w = 0; w < out.words_per_row(); ++w) row[w] = 0;
  std::int64_t bit = 0;
  for (std::int64_t h = 0; h < t.height(); ++h) {
    for (std::int64_t w = 0; w < t.width(); ++w) {
      for (std::int64_t c = 0; c < t.channels(); ++c, ++bit) {
        if (t.get_bit(h, w, c)) row[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }
}

void flatten_packed_row(const PackedTensor& t, PackedMatrix& out, std::int64_t row) {
  const std::int64_t bits = t.height() * t.width() * t.channels();
  if (row < 0 || row >= out.rows()) {
    throw std::invalid_argument("flatten_packed_row: row out of range");
  }
  if (out.cols() != bits) {
    throw std::invalid_argument("flatten_packed_row: output cols must be H*W*C");
  }
  std::uint64_t* dst = out.row(row);
  if (t.channels() % 64 == 0) {
    std::memcpy(dst, t.words(), static_cast<std::size_t>(t.num_words()) * 8);
    return;
  }
  for (std::int64_t w = 0; w < out.words_per_row(); ++w) dst[w] = 0;
  std::int64_t bit = 0;
  for (std::int64_t h = 0; h < t.height(); ++h) {
    for (std::int64_t w = 0; w < t.width(); ++w) {
      for (std::int64_t c = 0; c < t.channels(); ++c, ++bit) {
        if (t.get_bit(h, w, c)) dst[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }
}

void pack_row_into(const float* x, std::int64_t count, PackedMatrix& out, std::int64_t row) {
  BF_CHECK(x != nullptr || count == 0, "pack_row_into: null input with count ", count);
  if (row < 0 || row >= out.rows()) {
    throw std::invalid_argument("pack_row_into: row out of range");
  }
  if (count != out.cols()) {
    throw std::invalid_argument("pack_row_into: count must equal out.cols()");
  }
  pack_run(x, count, out.row(row));
}

PackedTensor pack_activations_avx2(const Tensor& hwc) {
  if (hwc.layout() != Layout::kHWC) {
    throw std::invalid_argument("pack_activations_avx2 expects an HWC tensor");
  }
  PackedTensor out(hwc.height(), hwc.width(), hwc.channels());
  detail::pack_pixels_avx2(hwc.data(), hwc.height() * hwc.width(), hwc.channels(),
                           out.words_per_pixel(), out.words());
  return out;
}

PackedTensor pack_activations(const Tensor& hwc) {
  if (simd::cpu_features().avx2) return pack_activations_avx2(hwc);
  return pack_activations_scalar(hwc);
}

PackedTensor pack_activations_from_chw(const Tensor& chw) {
  if (chw.layout() != Layout::kCHW) {
    throw std::invalid_argument("pack_activations_from_chw expects a CHW tensor");
  }
  const std::int64_t H = chw.height(), W = chw.width(), C = chw.channels();
  PackedTensor out(H, W, C);
  // Channel values of one pixel are H*W floats apart: every packed word
  // gathers from 64 distant cache lines.  This is the cost the NHWC layout
  // avoids.
  const std::int64_t plane = H * W;
  const float* base = chw.data();
  for (std::int64_t h = 0; h < H; ++h) {
    for (std::int64_t w = 0; w < W; ++w) {
      std::uint64_t* px = out.pixel(h, w);
      const float* p0 = base + h * W + w;
      std::int64_t c = 0, p = 0;
      for (; c + 64 <= C; c += 64, ++p) px[p] = pack64_strided(p0 + c * plane, plane);
      if (c < C) {
        std::uint64_t word = 0;
        for (std::int64_t i = 0; c + i < C; ++i) {
          word |= static_cast<std::uint64_t>(p0[(c + i) * plane] >= 0.0f) << i;
        }
        px[p] = word;
      }
    }
  }
  return out;
}

PackedFilterBank pack_filters(const FilterBank& filters) {
  PackedFilterBank out(filters.num_filters(), filters.kernel_h(), filters.kernel_w(),
                       filters.channels());
  const std::int64_t c = filters.channels();
  const std::int64_t taps = filters.num_filters() * filters.kernel_h() * filters.kernel_w();
  const float* src = filters.data();
  std::uint64_t* dst = out.words();
  const std::int64_t pc = out.words_per_pixel();
  for (std::int64_t t = 0; t < taps; ++t) {
    pack_run(src + t * c, c, dst + t * pc);
  }
  return out;
}

void interleave_block(const std::uint64_t* rows, std::int64_t tile, std::int64_t row_words,
                      std::uint64_t* block) noexcept {
  // Sequential stores: on a freshly allocated bank they are also the first
  // touch of its pages.
  for (std::int64_t w = 0; w < row_words; ++w) {
    for (std::int64_t l = 0; l < tile; ++l) block[w * tile + l] = rows[l * row_words + w];
  }
}

namespace {

/// Core T-way interleave shared by filters and FC weights: `storage` holds
/// `rows` rows row-major.  When T does not divide K it first grows to whole
/// tiles, the pad rows zero; then each tile block, a [T][row_words] matrix
/// in place, is copied to one block of scratch and interleaved back.
TiledBitMatrix interleave_in_place(AlignedBuffer storage, std::int64_t rows,
                                   std::int64_t row_words, std::int64_t tile) {
  const auto bytes =
      static_cast<std::size_t>(TiledBitMatrix::padded_rows(rows, tile) * row_words) * 8;
  if (storage.size_bytes() != bytes) {
    AlignedBuffer padded(bytes);
    std::memcpy(padded.data(), storage.data(), storage.size_bytes());
    storage = std::move(padded);
  }
  TiledBitMatrix m(std::move(storage), rows, row_words, tile);
  std::vector<std::uint64_t> scratch(static_cast<std::size_t>(tile * row_words));
  for (std::int64_t t = 0; t < m.tiles(); ++t) {
    std::uint64_t* block = m.tile_block(t);
    std::memcpy(scratch.data(), block, scratch.size() * 8);
    interleave_block(scratch.data(), tile, row_words, block);
  }
  return m;
}

}  // namespace

TiledFilterBank tile_filters(PackedFilterBank filters, std::int64_t tile) {
  const std::int64_t k = filters.num_filters(), row_words = filters.words_per_filter();
  const std::int64_t kh = filters.kernel_h(), kw = filters.kernel_w(), c = filters.channels();
  return TiledFilterBank(
      interleave_in_place(std::move(filters).release_storage(), k, row_words, tile), kh, kw, c);
}

TiledBitMatrix tile_fc_weights(PackedMatrix w, std::int64_t tile) {
  const std::int64_t rows = w.rows(), row_words = w.words_per_row();
  return interleave_in_place(std::move(w).release_storage(), rows, row_words, tile);
}

PackedMatrix pack_transpose_fc_weights(const float* b, std::int64_t n, std::int64_t k) {
  BF_CHECK(b != nullptr, "pack_transpose_fc_weights: null weight matrix");
  BF_CHECK(n >= 1 && k >= 1, "pack_transpose_fc_weights: extents n=", n, " k=", k);
  PackedMatrix out(k, n);
  for (std::int64_t j = 0; j < k; ++j) {
    std::uint64_t* row = out.row(j);
    std::int64_t i = 0, p = 0;
    for (; i + 64 <= n; i += 64, ++p) {
      // Column j of the row-major n x k matrix, stride k: binarization,
      // packing and transposition in one fused pass (Table III).
      row[p] = pack64_strided(&b[i * k + j], k);
    }
    if (i < n) {
      std::uint64_t word = 0;
      for (std::int64_t r = 0; i + r < n; ++r) {
        word |= static_cast<std::uint64_t>(b[(i + r) * k + j] >= 0.0f) << r;
      }
      row[p] = word;
    }
  }
  return out;
}

PackedMatrix pack_transpose_fc_weights_unfused(const float* b, std::int64_t n, std::int64_t k) {
  // Stage 1: binarize into a full byte matrix (the extra memory traffic the
  // fused version avoids).
  std::vector<std::uint8_t> bin(static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n * k; ++i) bin[static_cast<std::size_t>(i)] = b[i] >= 0.0f;
  // Stage 2: explicit transpose to k x n.
  std::vector<std::uint8_t> t(static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      t[static_cast<std::size_t>(j * n + i)] = bin[static_cast<std::size_t>(i * k + j)];
    }
  }
  // Stage 3: pack each transposed row.
  PackedMatrix out(k, n);
  for (std::int64_t j = 0; j < k; ++j) {
    std::uint64_t* row = out.row(j);
    for (std::int64_t i = 0; i < n; ++i) {
      if (t[static_cast<std::size_t>(j * n + i)]) row[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  return out;
}

PackedMatrix pack_rows(const float* x, std::int64_t rows, std::int64_t cols) {
  BF_CHECK(x != nullptr || rows * cols == 0, "pack_rows: null input with ", rows, "x", cols);
  PackedMatrix out(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    pack_run(x + r * cols, cols, out.row(r));
  }
  return out;
}

Tensor unpack_to_signs(const PackedTensor& packed) {
  Tensor out = Tensor::hwc(packed.height(), packed.width(), packed.channels());
  for (std::int64_t h = 0; h < packed.height(); ++h) {
    for (std::int64_t w = 0; w < packed.width(); ++w) {
      for (std::int64_t c = 0; c < packed.channels(); ++c) {
        out.at(h, w, c) = packed.sign_value(h, w, c);
      }
    }
  }
  return out;
}

FilterBank unpack_to_signs(const PackedFilterBank& packed) {
  FilterBank out(packed.num_filters(), packed.kernel_h(), packed.kernel_w(), packed.channels());
  for (std::int64_t k = 0; k < packed.num_filters(); ++k) {
    for (std::int64_t i = 0; i < packed.kernel_h(); ++i) {
      for (std::int64_t j = 0; j < packed.kernel_w(); ++j) {
        for (std::int64_t c = 0; c < packed.channels(); ++c) {
          out.at(k, i, j, c) = packed.sign_value(k, i, j, c);
        }
      }
    }
  }
  return out;
}

}  // namespace bitflow::bitpack
