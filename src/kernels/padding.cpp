#include "kernels/padding.hpp"

#include <cstring>
#include <stdexcept>

namespace bitflow::kernels {

void copy_into_interior(const PackedTensor& in, PackedTensor& out, std::int64_t margin) {
  if (out.height() != in.height() + 2 * margin || out.width() != in.width() + 2 * margin ||
      out.channels() != in.channels()) {
    throw std::invalid_argument("copy_into_interior: extent mismatch");
  }
  const std::int64_t row_bytes = in.width() * in.words_per_pixel() * 8;
  for (std::int64_t h = 0; h < in.height(); ++h) {
    std::memcpy(out.pixel(h + margin, margin), in.pixel(h, 0),
                static_cast<std::size_t>(row_bytes));
  }
}

void zero_margin(PackedTensor& t, std::int64_t margin) {
  if (margin <= 0) return;
  if (2 * margin > t.height() || 2 * margin > t.width()) {
    throw std::invalid_argument("zero_margin: margin wider than the tensor");
  }
  const std::int64_t pc = t.words_per_pixel();
  const auto zero_pixels = [pc](std::uint64_t* first, std::int64_t pixels) {
    std::memset(first, 0, static_cast<std::size_t>(pixels * pc) * 8);
  };
  const std::int64_t h = t.height(), w = t.width();
  zero_pixels(t.pixel(0, 0), margin * w);           // top rows
  zero_pixels(t.pixel(h - margin, 0), margin * w);  // bottom rows
  for (std::int64_t y = margin; y < h - margin; ++y) {
    zero_pixels(t.pixel(y, 0), margin);           // left edge
    zero_pixels(t.pixel(y, w - margin), margin);  // right edge
  }
}

PackedTensor pad_packed(const PackedTensor& in, std::int64_t margin) {
  if (margin < 0) throw std::invalid_argument("pad_packed: negative margin");
  PackedTensor out(in.height() + 2 * margin, in.width() + 2 * margin, in.channels());
  copy_into_interior(in, out, margin);
  return out;
}

}  // namespace bitflow::kernels
