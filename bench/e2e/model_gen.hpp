// Seeded inputs of the benchmark: the models it serves and the images it
// sends.  The same seed gives the same .bflow bytes and the same images.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/model.hpp"
#include "tensor/tensor.hpp"

namespace bench_e2e {

/// Binary VGG-16 at 224x224x3 (conv1_1 .. conv5_3, pool1 .. pool5, fc6 ..
/// fc8) with random packed weights and zero thresholds.
[[nodiscard]] bitflow::io::Model make_vgg16(std::uint64_t seed);

/// The 21 layer names of make_vgg16's model, in order.
[[nodiscard]] std::vector<std::string> vgg16_layer_names();

/// The 16x16x64 conv -> pool -> fc model of the serving SLO bench (c1, p1,
/// f1): about 0.1 ms of kernel work per request.
[[nodiscard]] bitflow::io::Model make_tiny(std::uint64_t seed);

/// The .bflow model a workload serves.
[[nodiscard]] bitflow::io::Model make_model_for(const std::string& workload,
                                                std::uint64_t seed);

/// Input extents of the model a workload serves.
[[nodiscard]] bitflow::graph::TensorDesc model_input(const std::string& workload);

/// `count` seeded images of extents `d`, values in [-1, 1).
[[nodiscard]] std::vector<bitflow::Tensor> make_images(bitflow::graph::TensorDesc d,
                                                       std::size_t count, std::uint64_t seed);

/// Fan-in of the model's last (fc) layer: the N of its dot products.
[[nodiscard]] std::int64_t last_fan_in(const bitflow::io::Model& model);

}  // namespace bench_e2e
