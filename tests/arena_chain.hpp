// ArenaChain: a small binary network whose ping-pong activation arenas are
// easy to get wrong, with its forward pass through the unoptimized
// src/baseline engine as the oracle.  Shared by network_test (arena reuse)
// and steady_state_test (first touch on uninitialized arenas).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "baseline/float_ops.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "models/vgg.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::testing {

/// Weights of a chain whose activation buffers stress the arenas: margins
/// 1,0,1,1,0,0 along buffers 0..5, C = 96 and K = 70 leave tail bits in every
/// pixel's last word, and both pools and convs write into buffers that sit
/// over a larger, earlier buffer's data.
struct ArenaChain {
  FilterBank c1 = models::random_filters(96, 3, 3, 96, 61);
  FilterBank c2 = models::random_filters(70, 3, 3, 96, 62);
  FilterBank c3 = models::random_filters(96, 3, 3, 70, 63);
  std::vector<float> th1 = thresholds(96, 64), th2 = thresholds(70, 65), th3 = thresholds(96, 66);
  std::vector<float> f1 = models::random_fc_weights(3 * 3 * 96, 40, 67);
  std::vector<float> f2 = models::random_fc_weights(40, 10, 68);
  std::vector<float> thf = thresholds(40, 69);

  static std::vector<float> thresholds(std::int64_t k, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-6.0f, 6.0f);
    std::vector<float> th(static_cast<std::size_t>(k));
    for (float& t : th) t = dist(rng);
    return th;
  }

  /// 12x12x96 -> conv(p1) -> pool -> conv(p1) -> conv(p1) -> pool -> fc -> fc.
  [[nodiscard]] graph::BinaryNetwork build(graph::NetworkConfig cfg) const {
    graph::BinaryNetwork net(cfg);
    net.add_conv("c1", c1, 1, 1, th1);
    net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
    net.add_conv("c2", c2, 1, 1, th2);
    net.add_conv("c3", c3, 1, 1, th3);
    net.add_maxpool("p2", kernels::PoolSpec{2, 2, 2});
    net.add_fc("f1", f1, 3 * 3 * 96, 40, thf);
    net.add_fc("f2", f2, 40, 10);
    net.finalize(graph::TensorDesc{12, 12, 96});
    return net;
  }

  /// The same chain through the unoptimized src/baseline engine (im2col +
  /// scalar 32-bit words), on freshly allocated float tensors throughout.
  [[nodiscard]] std::vector<float> baseline_forward(const Tensor& input) const {
    runtime::ThreadPool pool(1);
    const auto conv = [&](const Tensor& x, const FilterBank& f, const std::vector<float>& th) {
      const baseline::UnoptBinaryConv op(f, kernels::ConvSpec{3, 3, 1});
      Tensor dots = Tensor::hwc(x.height(), x.width(), f.num_filters());
      op.run(baseline::pad_float(x, 1, -1.0f), pool, dots);  // -1 = zero-bit padding
      Tensor signs = Tensor::hwc(x.height(), x.width(), f.num_filters());
      for (std::int64_t i = 0; i < dots.num_elements(); ++i) {
        const float t = th[static_cast<std::size_t>(i % f.num_filters())];
        signs.data()[i] = dots.data()[i] >= t ? 1.0f : -1.0f;
      }
      return signs;
    };
    const auto maxpool = [&](const Tensor& x) {
      PackedTensor out(x.height() / 2, x.width() / 2, x.channels());
      baseline::unopt_binary_maxpool(bitpack::pack_activations(x), kernels::PoolSpec{2, 2, 2},
                                     pool, out);
      return bitpack::unpack_to_signs(out);
    };
    const Tensor a = maxpool(conv(conv(maxpool(conv(input, c1, th1)), c2, th2), c3, th3));
    std::vector<float> h(40), scores(10);
    baseline::UnoptBinaryFc(f1.data(), 3 * 3 * 96, 40).run(a.data(), pool, h.data());
    for (std::size_t i = 0; i < h.size(); ++i) h[i] = h[i] >= thf[i] ? 1.0f : -1.0f;
    baseline::UnoptBinaryFc(f2.data(), 40, 10).run(h.data(), pool, scores.data());
    return scores;
  }
};

}  // namespace bitflow::testing
