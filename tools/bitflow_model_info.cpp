// bitflow_model_info: inspect a .bflow model file.
//
//   $ bitflow_model_info model.bflow
//
// Prints the layer table (kind, name, geometry, thresholds), total packed
// weight size, and the kernel each layer would get on this machine.
#include <cstdio>
#include <string>

#include "graph/scheduler.hpp"
#include "io/model.hpp"
#include "kernels/conv_spec.hpp"
#include "simd/cpu_features.hpp"

int main(int argc, char** argv) {
  using namespace bitflow;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <model.bflow>\n", argv[0]);
    return 2;
  }
  io::Model model;
  try {
    model = io::Model::load(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const auto in = model.input();
  std::printf("BitFlow model: %s\n", argv[1]);
  std::printf("input: %lld x %lld x %lld\n", static_cast<long long>(in.h),
              static_cast<long long>(in.w), static_cast<long long>(in.c));
  std::printf("layers: %zu, weights: %.2f KB packed\n\n", model.num_layers(),
              static_cast<double>(model.weight_bytes()) / 1e3);
  std::printf("%-12s %-10s %-26s %-6s %-8s\n", "name", "kind", "geometry", "thresh", "kernel");
  for (const auto& l : model.layers()) {
    char geom[64] = "";
    std::int64_t outputs = 0;
    const char* kind = "?";
    switch (l.kind) {
      case graph::LayerKind::kConv:
        kind = l.full_precision ? "conv(fp32)" : "conv";
        if (l.full_precision) {
          std::snprintf(geom, sizeof geom, "%lldx%lldx%lld -> %lld s%lld p%lld",
                        static_cast<long long>(l.float_filters.kernel_h()),
                        static_cast<long long>(l.float_filters.kernel_w()),
                        static_cast<long long>(l.float_filters.channels()),
                        static_cast<long long>(l.float_filters.num_filters()),
                        static_cast<long long>(l.stride), static_cast<long long>(l.pad));
        } else {
          std::snprintf(geom, sizeof geom, "%lldx%lldx%lld -> %lld s%lld p%lld",
                        static_cast<long long>(l.filters.kernel_h()),
                        static_cast<long long>(l.filters.kernel_w()),
                        static_cast<long long>(l.filters.channels()),
                        static_cast<long long>(l.filters.num_filters()),
                        static_cast<long long>(l.stride), static_cast<long long>(l.pad));
          outputs = l.filters.num_filters();
        }
        break;
      case graph::LayerKind::kPool:
        kind = "maxpool";
        std::snprintf(geom, sizeof geom, "%lldx%lld s%lld", static_cast<long long>(l.pool.pool_h),
                      static_cast<long long>(l.pool.pool_w),
                      static_cast<long long>(l.pool.stride));
        break;
      case graph::LayerKind::kFc:
        kind = "fc";
        std::snprintf(geom, sizeof geom, "%lld -> %lld",
                      static_cast<long long>(l.fc_weights.cols()),
                      static_cast<long long>(l.fc_weights.rows()));
        outputs = l.fc_weights.rows();
        break;
    }
    // The plan a default NetworkConfig commits on this CPU: ISA and
    // register-tile width.
    std::string kernel = "-";
    if (outputs > 0) {
      const graph::KernelPlan plan = graph::default_kernel_plan(simd::cpu_features());
      kernel = std::string(simd::isa_name(plan.isa)) + " t" +
               std::to_string(kernels::weight_tile_width(plan.isa));
    }
    std::printf("%-12s %-10s %-26s %-6s %-8s\n", l.name.c_str(), kind, geom,
                l.thresholds.empty() ? "no" : "yes", kernel.c_str());
  }
  return 0;
}
