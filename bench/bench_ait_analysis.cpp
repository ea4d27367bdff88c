// Section III-A: arithmetic-intensity analysis of image-to-column vs direct
// (PressedConv-style) convolution, float and binary (Eqs. 4-8), next to the
// measured single-core times of the two binary dataflows.
#include <cstdio>

#include "common.hpp"
#include "core/ait.hpp"

int main() {
  using namespace bitflow;
  using namespace bitflow::bench;
  std::printf("=== Sec. III-A: arithmetic intensity, im2col vs direct (Eqs. 4-8) ===\n\n");
  std::printf("%-9s %14s %14s %10s | %14s %14s %10s\n", "layer", "AIT direct", "AIT im2col",
              "fraction", "bAIT direct", "bAIT im2col", "fraction");
  print_rule(96);
  const core::ConvWorkload layers[] = {
      {112, 112, 64, 128, 3, 3},  // conv2.1
      {56, 56, 128, 256, 3, 3},   // conv3.1
      {28, 28, 256, 512, 3, 3},   // conv4.1
      {14, 14, 512, 512, 3, 3},   // conv5.1
  };
  const char* names[] = {"conv2.1", "conv3.1", "conv4.1", "conv5.1"};
  for (int i = 0; i < 4; ++i) {
    const core::AitReport f = core::analyze_float_conv(layers[i]);
    const core::AitReport b = core::analyze_binary_conv(layers[i], 64);
    std::printf("%-9s %14.1f %14.1f %9.2f%% | %14.2f %14.2f %9.2f%%\n", names[i], f.ait_direct,
                f.ait_im2col, f.im2col_fraction * 100.0, b.ait_direct, b.ait_im2col,
                b.im2col_fraction * 100.0);
  }
  print_rule(96);
  std::printf("binary im2col retains a far smaller fraction of the intrinsic AIT: the\n"
              "unfold traffic stays O(U) at unpacked width while the arithmetic shrinks 64x.\n\n");

  std::printf("measured single-core binary conv time, im2col (unopt) vs PressedConv:\n");
  std::printf("%-9s %14s %16s %10s\n", "layer", "im2col(ms)", "PressedConv(ms)", "ratio");
  print_rule(56);
  Profile prof = phi_profile();
  for (const auto& spec : models::table4_benchmarks()) {
    if (spec.kind != graph::LayerKind::kConv) continue;
    OperatorHarness h(spec, prof);
    const double tu = h.time_unopt();
    const double tb = h.time_bitflow();
    std::printf("%-9s %14.3f %16.3f %9.1fx\n", spec.name.c_str(), tu * 1e3, tb * 1e3, tu / tb);
  }
  print_rule(56);

  std::printf("\nregister-tiled PressedConv at the widest host ISA vs the scalar u64 tile\n"
              "(T = 4), single core: one activation-word load is amortized over T filters\n"
              "and the T popcount accumulators stay in registers.\n");
  std::printf("%-22s %4s %14s %12s %10s\n", "layer", "T", "u64 t4(GOPS)", "engine(GOPS)",
              "speedup");
  print_rule(68);
  const simd::IsaLevel widest = simd::cpu_features().best_isa();
  struct TiledLayer {
    const char* name;
    std::int64_t h, c, k;
  } tiled_layers[] = {
      {"18x18x256 K=256 3x3", 18, 256, 256},  // the BENCH_pressedconv.json workload
      {"30x30x128 K=128 3x3", 30, 128, 128},
      {"16x16x512 K=512 3x3", 16, 512, 512},
  };
  for (const TiledLayer& l : tiled_layers) {
    const TiledConvResult r = measure_tiled_conv(widest, l.h, l.h, l.c, l.k, 3);
    std::printf("%-22s %4lld %14.1f %12.1f %9.2fx\n", l.name, static_cast<long long>(r.tile),
                r.ref_gops(), r.gops(), r.speedup());
  }
  print_rule(68);
  return 0;
}
