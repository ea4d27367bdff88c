// Table I companion: reports the detected vector ISA, which of the paper's
// instructions are native on this machine, and the operator-to-kernel
// mapping the vector execution scheduler derives from them (Fig. 6).
#include <cstdio>

#include "core/bitflow.hpp"

int main() {
  using namespace bitflow;
  std::printf("=== Table I / Fig. 6: SIMD capability & kernel mapping report ===\n\n");
  std::printf("%s\n", system_report().c_str());

  const simd::CpuFeatures& f = simd::cpu_features();
  std::printf("Paper Table I instruction coverage on this CPU:\n");
  std::printf("  _mm_xor_si128 (SSE)                         : %s\n",
              f.sse42 ? "native, no kernel of its own: sse → u64 tile" : "-");
  std::printf("  _mm256_xor_si256 (AVX2)                     : %s\n", f.avx2 ? "native" : "-");
  std::printf("  _mm512_xor_si512 / maskz_xor_epi64 (AVX512) : %s\n",
              f.avx512f ? "native" : "-");
  std::printf("  _mm512_popcnt_epi64 / maskz_popcnt_epi64    : %s\n",
              f.avx512vpopcntdq ? "native (VPOPCNTDQ)" : "emulated via byte-LUT");
  std::printf("\nFig. 6 mapping for the Table IV operators: the paper's channel rule, which\n"
              "governs the pools, and the engine plan the conv and fc operators run:\n");
  for (const auto& op : models::table4_benchmarks()) {
    const auto isa = graph::select_isa(op.c, f);
    const std::string rule(simd::isa_name(isa));
    std::printf("  %-8s C=%-6lld -> ", op.name.c_str(), static_cast<long long>(op.c));
    if (op.kind == graph::LayerKind::kPool) {
      std::printf("paper rule %s (pool: runs the paper rule)\n", rule.c_str());
    } else {
      // The paper's SSE rung has no tile of its own: it would run the u64 one.
      const graph::KernelPlan plan = graph::default_kernel_plan(f);
      std::printf("engine plan %s, T=%lld; paper rule %s\n",
                  std::string(simd::isa_name(plan.isa)).c_str(),
                  static_cast<long long>(kernels::weight_tile_width(plan.isa)),
                  isa == simd::IsaLevel::kSse ? "sse → u64 tile" : rule.c_str());
    }
  }
  return 0;
}
