#include "graph/scheduler.hpp"

#include "kernels/conv_spec.hpp"

namespace bitflow::graph {

namespace {

simd::IsaLevel clamp(simd::IsaLevel isa, std::optional<simd::IsaLevel> cap) {
  return cap.has_value() && isa > *cap ? *cap : isa;
}

}  // namespace

simd::IsaLevel select_isa(std::int64_t channels, const simd::CpuFeatures& f) {
  if (channels % 512 == 0 && f.supports(simd::IsaLevel::kAvx512)) return simd::IsaLevel::kAvx512;
  if (channels % 256 == 0 && f.supports(simd::IsaLevel::kAvx2)) return simd::IsaLevel::kAvx2;
  if (channels % 128 == 0 && f.supports(simd::IsaLevel::kSse)) return simd::IsaLevel::kSse;
  return simd::IsaLevel::kU64;
}

std::string explain_isa_selection(std::int64_t channels, const simd::CpuFeatures& f) {
  const simd::IsaLevel isa = select_isa(channels, f);
  std::string s = "C=" + std::to_string(channels) + " -> " + std::string(isa_name(isa));
  if (channels % 512 == 0 && f.supports(simd::IsaLevel::kAvx512)) {
    s += " (rule 1: multiple of 512, AVX-512 available)";
  } else if (channels % 256 == 0 && f.supports(simd::IsaLevel::kAvx2)) {
    s += " (rule 2: multiple of 256, AVX2 available)";
  } else if (channels % 128 == 0 && f.supports(simd::IsaLevel::kSse)) {
    s += " (rule 3: multiple of 128, SSE available)";
  } else if (channels % 32 == 0) {
    s += " (rule 4: multiple of 32, scalar word kernel)";
  } else {
    s += " (rule 4: channel tail zero-padded, scalar word kernel)";
  }
  return s;
}

KernelPlan default_kernel_plan(const simd::CpuFeatures& f, std::optional<simd::IsaLevel> cap) {
  return KernelPlan{clamp(f.best_isa(), cap)};
}

std::string explain_kernel_plan(const KernelPlan& plan, std::int64_t k) {
  const std::int64_t t = kernels::weight_tile_width(plan.isa);
  const std::int64_t tiles = (k + t - 1) / t;
  return "K=" + std::to_string(k) + " -> " + std::string(isa_name(plan.isa)) +
         " (register tiles: T=" + std::to_string(t) +
         " filters per activation broadcast vectorize along K, so the widest ISA; " +
         std::to_string(tiles) + (tiles == 1 ? " tile" : " tiles") + " of T=" +
         std::to_string(t) + ", " + std::to_string(tiles * t - k) + " idle lanes; P=" +
         std::to_string(kernels::pixel_block(plan.isa)) + " outputs share each tile row load)";
}

}  // namespace bitflow::graph
