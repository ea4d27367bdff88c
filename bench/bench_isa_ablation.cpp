// ISA ablation: the same PressedConv operator forced through the engine's
// kernel at every ISA the hardware supports (each at its default tile
// width), next to the ISA the paper's channel rule would pick.  Quantifies
// each step of the paper's rule ladder (Fig. 7's per-rule gains) and what
// the conservative channel-multiple rules would leave on the table versus
// the widest ISA, which the engine's K-vectorized kernel always takes.
// SSE has no column: it has no popcount wider than the scalar one, so an
// SSE cap, and the paper rule's SSE rung, run the u64 tile.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace bitflow;
  using namespace bitflow::bench;
  constexpr simd::IsaLevel kKernels[] = {simd::IsaLevel::kU64, simd::IsaLevel::kAvx2,
                                         simd::IsaLevel::kAvx512};
  std::printf("=== ISA ablation: forced kernels on the Table IV convolutions ===\n\n");
  std::printf("%-9s %6s", "operator", "C");
  for (simd::IsaLevel isa : kKernels) {
    std::printf(" %10s", std::string(simd::isa_name(isa)).c_str());
  }
  std::printf(" %10s  %s\n", "widest", "paper-rule");
  print_rule(86);

  runtime::ThreadPool pool(1);
  for (const auto& spec : models::table4_benchmarks()) {
    if (spec.kind != graph::LayerKind::kConv) continue;
    const FilterBank filters =
        models::random_filters(spec.k, spec.kernel, spec.kernel, spec.c, 99);
    Tensor input = Tensor::hwc(spec.h, spec.w, spec.c);
    fill_uniform(input, 98);
    const std::int64_t oh = spec.h + 2 * spec.pad - spec.kernel + 1;
    Tensor out = Tensor::hwc(oh, oh, spec.k);

    std::printf("%-9s %6lld", spec.name.c_str(), static_cast<long long>(spec.c));
    double times[4] = {0, 0, 0, 0};
    for (simd::IsaLevel isa : kKernels) {
      if (!simd::cpu_features().supports(isa)) {
        std::printf(" %10s", "-");
        continue;
      }
      ops::BinaryOpOptions opt;
      opt.force_isa = isa;
      ops::BinaryConvOp op(filters, spec.stride, spec.pad, opt);
      times[static_cast<int>(isa)] =
          runtime::measure_best_seconds([&] { op.run(input, pool, out); }, 3, 0.15);
      std::printf(" %8.3fms", times[static_cast<int>(isa)] * 1e3);
    }
    times[static_cast<int>(simd::IsaLevel::kSse)] = times[static_cast<int>(simd::IsaLevel::kU64)];
    // Scheduler policies.
    const auto rule_isa = graph::select_isa(spec.c, simd::cpu_features());
    const auto widest = simd::cpu_features().best_isa();
    const double rule_t = times[static_cast<int>(rule_isa)];
    const double widest_t = times[static_cast<int>(widest)];
    if (rule_t > 0 && widest_t > 0) {
      std::printf(" %9.2fx", rule_t / widest_t);
    } else {
      std::printf(" %10s", "-");
    }
    std::printf("  %s\n", rule_isa == simd::IsaLevel::kSse
                              ? "sse → u64 tile"
                              : std::string(simd::isa_name(rule_isa)).c_str());
  }
  print_rule(86);
  std::printf("'widest' column: paper-rule time / widest-ISA time (>1 means the paper's\n"
              "conservative channel-multiple rules leave performance on the table).\n");
  return 0;
}
