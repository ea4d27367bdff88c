// Padding ablation (Fig. 5): zero-cost padding via pre-allocated margins
// versus the first-convolve-then-pad convention (an explicit copy of every
// layer output into a padded buffer).  Binary convolution is cheap enough
// that the copy is a visible fraction of the layer (the paper's motivation
// for addressing padding at all).
#include <cstdio>

#include "common.hpp"
#include "kernels/padding.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/cpu_features.hpp"

int main() {
  using namespace bitflow;
  using namespace bitflow::bench;
  std::printf("=== Fig. 5 ablation: zero-cost padding vs copy-padding ===\n\n");
  std::printf("%-9s %18s %18s %10s\n", "operator", "margin-write(ms)", "copy-pad(ms)",
              "overhead");
  print_rule(62);

  runtime::ThreadPool pool(1);
  for (const auto& spec : models::table4_benchmarks()) {
    if (spec.kind != graph::LayerKind::kConv) continue;
    // The engine's kernel at its default plan.
    const graph::KernelPlan plan = graph::default_kernel_plan(simd::cpu_features());
    const TiledFilterBank filters = bitpack::tile_filters(
        bitpack::pack_filters(models::random_filters(spec.k, spec.kernel, spec.kernel, spec.c, 3)),
        kernels::weight_tile_width(plan.isa));
    const auto binarize =
        kernels::conv_binarize_kernel(plan.isa, simd::cpu_features().avx512vpopcntdq);
    PackedTensor in(spec.h + 2 * spec.pad, spec.w + 2 * spec.pad, spec.c);
    fill_random_bits(in, 4);
    const PackedTensor* ins[] = {&in};
    const kernels::ConvSpec cspec{spec.kernel, spec.kernel, spec.stride};
    const std::int64_t oh = cspec.out_h(in.height());

    // Variant A: write straight into the interior of the next layer's
    // pre-allocated padded buffer (the engine's scheme).
    PackedTensor out_padded(oh + 2, oh + 2, spec.k);
    PackedTensor* padded_outs[] = {&out_padded};
    const double t_margin = runtime::measure_best_seconds(
        [&] { binarize(ins, 1, filters, cspec, nullptr, pool, padded_outs, 1); }, 3, 0.2);

    // Variant B: convolve into a tight buffer, then copy-pad it.
    PackedTensor out_tight(oh, oh, spec.k);
    PackedTensor* tight_outs[] = {&out_tight};
    const double t_copy = runtime::measure_best_seconds(
        [&] {
          binarize(ins, 1, filters, cspec, nullptr, pool, tight_outs, 0);
          (void)kernels::pad_packed(out_tight, 1);
        },
        3, 0.2);

    std::printf("%-9s %15.3f %18.3f %9.1f%%\n", spec.name.c_str(), t_margin * 1e3,
                t_copy * 1e3, (t_copy / t_margin - 1.0) * 100.0);
  }
  print_rule(62);
  std::printf("'overhead' = extra time the copy-pad convention costs per conv layer.\n");
  return 0;
}
