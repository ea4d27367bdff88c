// BitFlow public umbrella header.
//
// A downstream user normally needs only this include:
//
//   #include "core/bitflow.hpp"
//
//   bitflow::graph::NetworkConfig cfg{.num_threads = 4};
//   auto net = bitflow::models::build_binary_vgg(bitflow::models::vgg16(), cfg);
//   auto scores = net.infer(image);              // image: HWC float Tensor
//
// Layer cake (see DESIGN.md):
//   core   : this facade, AIT model, version/system report, Status/failpoints
//   telemetry: metrics registry, per-layer profiler, trace-event sink
//   serve  : the serving front door and Status boundary (see serve/engine.hpp)
//   graph  : static network, memory planner, vector execution scheduler
//   ops    : standalone operator-level API
//   kernels: PressedConv / bgemm / OR-pool per-ISA kernels
//   bitpack, simd, tensor, runtime: substrates
//   baseline, train, data, gpuref : evaluation support
#pragma once

#include <string>

#include "baseline/float_ops.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "core/ait.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "graph/network.hpp"
#include "graph/scheduler.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "models/vgg.hpp"
#include "ops/operators.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "serve/engine.hpp"
#include "simd/cpu_features.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "tensor/tensor.hpp"
#include "tensor/util.hpp"

namespace bitflow {

/// Library version string.
[[nodiscard]] const char* version();

/// One-paragraph report of the executing hardware and the kernels the
/// vector execution scheduler would select for the VGG channel counts —
/// the runtime rendition of the paper's Fig. 6.
[[nodiscard]] std::string system_report();

}  // namespace bitflow
