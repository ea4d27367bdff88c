// Figure 7: single-core speedup of the unoptimized binary engine and of
// BitFlow over the counterpart float-value operators (float = 1x), for the
// eight Table IV operators, on this machine's widest ISA (the paper uses a
// single Xeon Phi core).  BitFlow's conv and fc rows run the engine's
// register-tiled kernel, which vectorizes along K: conv2.1 (C = 64) runs at
// the widest ISA too, where the paper's channel rule gave it no SIMD.
//
// Paper shape to reproduce: conv2.1 ~10x/10x (no SIMD at C=64), the BitFlow
// advantage growing with channel width (conv5.1 ~19x/47x), fc operators
// ~21x/49x, pooling modest; "83% average speedup over unoptimized".
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace bitflow;
  using namespace bitflow::bench;
  std::printf("=== Fig. 7: vectorization speedup, single core (float operator = 1x) ===\n");
  std::printf("profile: widest local ISA; all engines single-threaded\n\n");
  std::printf("%-9s %12s %12s %12s %10s %10s %11s\n", "operator", "float(ms)", "unopt(ms)",
              "bitflow(ms)", "unopt(x)", "bitflow(x)", "kernel");
  print_rule();

  Profile prof = phi_profile();  // widest ISA = the paper's Phi setting
  double geo_ratio = 1.0;
  int count = 0;
  for (const auto& spec : models::table4_benchmarks()) {
    OperatorHarness h(spec, prof);
    const double tf = h.time_float();
    const double tu = h.time_unopt();
    const double tb = h.time_bitflow();
    std::printf("%-9s %12.3f %12.3f %12.3f %9.1fx %9.1fx %11s\n", spec.name.c_str(), tf * 1e3,
                tu * 1e3, tb * 1e3, tf / tu, tf / tb, h.kernel_name().c_str());
    geo_ratio *= tu / tb;
    ++count;
  }
  print_rule();
  const double avg = std::pow(geo_ratio, 1.0 / count);
  std::printf("geomean speedup of BitFlow over unoptimized binary: %.2fx "
              "(paper reports 1.83x average)\n",
              avg);
  return 0;
}
