#include "model_gen.hpp"

#include <stdexcept>
#include <utility>

#include "models/vgg.hpp"
#include "tensor/util.hpp"

namespace bench_e2e {

using namespace bitflow;

namespace {

// Random packed bits straight into the engine layout: generating float
// weights and packing them would hold VGG-16's 0.5 GB of fc6 floats.
PackedFilterBank random_filters(std::int64_t k, std::int64_t c, std::uint64_t seed) {
  PackedFilterBank f(k, 3, 3, c);
  fill_random_bits(f, seed);
  return f;
}

PackedMatrix random_fc(std::int64_t outputs, std::int64_t inputs, std::uint64_t seed) {
  PackedMatrix m(outputs, inputs);
  fill_random_bits(m, seed);
  return m;
}

constexpr graph::TensorDesc kTinyInput{16, 16, 64};

graph::TensorDesc vgg16_input() {
  const models::VggConfig cfg = models::vgg16();
  return {cfg.input_size, cfg.input_size, cfg.input_channels};
}

// Layer names as in the paper's Fig 11 (conv1_1 .. conv5_3, pool1 ..
// pool5, fc6 ..), which are also valid metric-name parts.
std::string conv_name(std::size_t block, std::size_t i) {
  return "conv" + std::to_string(block + 1) + "_" + std::to_string(i + 1);
}
std::string pool_name(std::size_t block) { return "pool" + std::to_string(block + 1); }
std::string fc_name(std::size_t i) { return "fc" + std::to_string(i + 6); }

}  // namespace

std::vector<std::string> vgg16_layer_names() {
  const models::VggConfig cfg = models::vgg16();
  std::vector<std::string> names;
  for (std::size_t b = 0; b < cfg.conv_blocks.size(); ++b) {
    for (std::size_t i = 0; i < cfg.conv_blocks[b].size(); ++i) names.push_back(conv_name(b, i));
    names.push_back(pool_name(b));
  }
  for (std::size_t i = 0; i < cfg.fc_sizes.size(); ++i) names.push_back(fc_name(i));
  return names;
}

io::Model make_vgg16(std::uint64_t seed) {
  // models::vgg16() gives the layout; the weights are written packed here.
  const models::VggConfig cfg = models::vgg16();
  io::Model m(vgg16_input());
  std::int64_t c = cfg.input_channels, hw = cfg.input_size;
  std::uint64_t layer_seed = seed * 1000;
  for (std::size_t b = 0; b < cfg.conv_blocks.size(); ++b) {
    for (std::size_t i = 0; i < cfg.conv_blocks[b].size(); ++i) {
      const std::int64_t k = cfg.conv_blocks[b][i];
      m.add_conv(conv_name(b, i), random_filters(k, c, ++layer_seed), /*stride=*/1, /*pad=*/1);
      c = k;
    }
    m.add_maxpool(pool_name(b), kernels::PoolSpec{2, 2, 2});
    hw /= 2;
  }
  std::int64_t n = hw * hw * c;
  for (std::size_t i = 0; i < cfg.fc_sizes.size(); ++i) {
    m.add_fc(fc_name(i), random_fc(cfg.fc_sizes[i], n, ++layer_seed));
    n = cfg.fc_sizes[i];
  }
  return m;
}

io::Model make_tiny(std::uint64_t seed) {
  io::Model m(kTinyInput);
  m.add_conv("c1", random_filters(64, 64, seed * 1000 + 1), 1, 1);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  m.add_fc("f1", random_fc(10, 8 * 8 * 64, seed * 1000 + 2));
  return m;
}

io::Model make_model_for(const std::string& workload, std::uint64_t seed) {
  if (workload == "tiny_served") return make_tiny(seed);
  if (workload.rfind("vgg16_", 0) == 0) return make_vgg16(seed);
  throw std::invalid_argument("unknown workload " + workload);
}

graph::TensorDesc model_input(const std::string& workload) {
  return workload == "tiny_served" ? kTinyInput : vgg16_input();
}

std::vector<Tensor> make_images(graph::TensorDesc d, std::size_t count, std::uint64_t seed) {
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t = Tensor::hwc(d.h, d.w, d.c);
    fill_uniform(t, seed * 1000 + 500 + i);
    images.push_back(std::move(t));
  }
  return images;
}

std::int64_t last_fan_in(const io::Model& model) {
  return model.layers().back().fc_weights.cols();
}

}  // namespace bench_e2e
