#include "kernels/binary_maxpool.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "simd/bitops.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::kernels {

void binary_maxpool(const PackedTensor* const* in, std::int64_t n, const PoolSpec& spec,
                    simd::IsaLevel isa, runtime::ThreadPool& pool, PackedTensor* const* out,
                    std::int64_t margin) {
  BF_CHECK(n >= 1, "binary_maxpool: batch of ", n);
  BF_CHECK(spec.pool_h >= 1 && spec.pool_w >= 1, "binary_maxpool: window ", spec.pool_h, "x",
           spec.pool_w);
  BF_CHECK(spec.stride >= 1, "binary_maxpool: stride ", spec.stride);
  BF_CHECK(margin >= 0, "binary_maxpool: negative margin ", margin);
  const PackedTensor& first = *in[0];
  const std::int64_t oh = spec.out_h(first.height());
  const std::int64_t ow = spec.out_w(first.width());
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("binary_maxpool: window larger than input");
  for (std::int64_t b = 0; b < n; ++b) {
    if (in[b]->height() != first.height() || in[b]->width() != first.width() ||
        in[b]->channels() != first.channels()) {
      throw std::invalid_argument("binary_maxpool: batch extents differ");
    }
    if (out[b]->height() != oh + 2 * margin || out[b]->width() != ow + 2 * margin ||
        out[b]->channels() != first.channels()) {
      throw std::invalid_argument("binary_maxpool: output mis-shaped for margin");
    }
  }
  const std::int64_t pc = first.words_per_pixel();
  if (spec.pool_w * pc > kPoolScratchWords) {
    throw std::invalid_argument("binary_maxpool: a window row spans more than " +
                                std::to_string(kPoolScratchWords) + " words");
  }
  // Output pixels per chunk: as many whole windows as the scratch row holds
  // (all of them when C = 0 leaves no words to pool).
  const std::int64_t fit = kPoolScratchWords / std::max<std::int64_t>(pc, 1);
  const std::int64_t chunk = std::min(ow, (fit - spec.pool_w) / spec.stride + 1);
  const auto or_acc = simd::or_accumulate_fn(isa);

  pool.parallel_for(n * oh, [&](runtime::Range r, int) {
    std::uint64_t tmp[kPoolScratchWords];  // every word read is first written
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      const PackedTensor& src = *in[i / oh];
      PackedTensor& dst = *out[i / oh];
      const std::int64_t y = i % oh;
      const std::int64_t iy = y * spec.stride;
      for (std::int64_t x0 = 0; x0 < ow; x0 += chunk) {
        const std::int64_t x1 = std::min(ow, x0 + chunk);
        // Vertical OR of the window's input rows over the chunk's windows
        // (contiguous SIMD runs).
        const std::int64_t words = ((x1 - 1 - x0) * spec.stride + spec.pool_w) * pc;
        std::memcpy(tmp, src.pixel(iy, x0 * spec.stride), static_cast<std::size_t>(words) * 8);
        for (std::int64_t k = 1; k < spec.pool_h; ++k) {
          or_acc(tmp, src.pixel(iy + k, x0 * spec.stride), words);
        }
        // Horizontal combine: OR the pool_w pixel blocks of each window.
        for (std::int64_t x = x0; x < x1; ++x) {
          std::uint64_t* out_px = dst.pixel(y + margin, x + margin);
          const std::uint64_t* win = tmp + (x - x0) * spec.stride * pc;
          for (std::int64_t p = 0; p < pc; ++p) out_px[p] = win[p];
          for (std::int64_t j = 1; j < spec.pool_w; ++j) {
            const std::uint64_t* block = win + j * pc;
            for (std::int64_t p = 0; p < pc; ++p) out_px[p] |= block[p];
          }
        }
      }
    }
  });
}

void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, simd::IsaLevel isa,
                    runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin) {
  const PackedTensor* ins[] = {&in};
  PackedTensor* outs[] = {&out};
  binary_maxpool(ins, 1, spec, isa, pool, outs, margin);
}

void binary_maxpool(const PackedTensor& in, const PoolSpec& spec, runtime::ThreadPool& pool,
                    PackedTensor& out, std::int64_t margin) {
  binary_maxpool(in, spec, simd::cpu_features().best_isa(), pool, out, margin);
}

}  // namespace bitflow::kernels
