// Architecture fuzzing: random network shapes (channel counts off the word
// grid, strides, pads, pool placements, fc chains) run through the engine
// and through an independent float-domain simulator of BNN semantics; the
// final scores must match exactly.  This is the broadest correctness net in
// the suite — every engine component (packing, margins, scheduler, kernel
// tails, flatten, thresholds) is exercised in random combination.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "graph/network.hpp"
#include "tensor/util.hpp"

namespace bitflow::graph {
namespace {

struct ConvSpecRnd {
  std::int64_t k, kernel, stride, pad;
  bool pool_after;
  bool thresholds;
};
struct FcSpecRnd {
  std::int64_t k;
  bool thresholds;
};

struct RandomArch {
  std::int64_t in_h, in_w, in_c;
  std::vector<ConvSpecRnd> convs;
  std::vector<FcSpecRnd> fcs;  // last fc emits scores
};

RandomArch draw_arch(std::mt19937_64& rng) {
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  RandomArch a;
  a.in_h = pick(9, 18);
  a.in_w = pick(9, 18);
  // Deliberately hit word tails, exact words, and multi-word pixels.
  const std::int64_t c_choices[] = {1, 3, 5, 17, 32, 64, 65, 96, 130};
  a.in_c = c_choices[rng() % 9];
  const int n_convs = static_cast<int>(pick(1, 3));
  for (int i = 0; i < n_convs; ++i) {
    ConvSpecRnd cs;
    cs.kernel = (rng() % 2 == 0) ? 3 : 1;
    cs.stride = (rng() % 3 == 0) ? 2 : 1;
    cs.pad = cs.kernel == 3 ? static_cast<std::int64_t>(rng() % 2) : 0;
    cs.k = c_choices[rng() % 9];
    cs.pool_after = rng() % 3 == 0;
    cs.thresholds = rng() % 2 == 0;
    a.convs.push_back(cs);
  }
  const int n_fcs = static_cast<int>(pick(1, 2));
  for (int i = 0; i < n_fcs; ++i) {
    a.fcs.push_back(FcSpecRnd{pick(3, 40), i + 1 < n_fcs && rng() % 2 == 0});
  }
  a.fcs.back().thresholds = false;  // final layer emits raw dots
  return a;
}

/// Independent reference: BNN semantics simulated on float +-1 tensors.
std::vector<float> reference_forward(const RandomArch& a, const Tensor& input,
                                     const std::vector<FilterBank>& conv_w,
                                     const std::vector<std::vector<float>>& conv_th,
                                     const std::vector<std::vector<float>>& fc_w,
                                     const std::vector<std::vector<float>>& fc_th) {
  runtime::ThreadPool pool(1);
  // Input stage: sign().
  Tensor act = Tensor::hwc(input.height(), input.width(), input.channels());
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    act.data()[i] = input.data()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  const bool ends_with_fc = !a.fcs.empty();
  for (std::size_t li = 0; li < a.convs.size(); ++li) {
    const ConvSpecRnd& cs = a.convs[li];
    const Tensor padded = cs.pad > 0 ? baseline::pad_float(act, cs.pad, -1.0f) : act;
    const kernels::ConvSpec spec{cs.kernel, cs.kernel, cs.stride};
    Tensor dots = Tensor::hwc(spec.out_h(padded.height()), spec.out_w(padded.width()), cs.k);
    // Engine packs sign(w): binarize the float filters for the reference.
    FilterBank signs(cs.k, cs.kernel, cs.kernel, padded.channels());
    for (std::int64_t e = 0; e < signs.num_elements(); ++e) {
      signs.elements()[static_cast<std::size_t>(e)] =
          conv_w[li].elements()[static_cast<std::size_t>(e)] >= 0.0f ? 1.0f : -1.0f;
    }
    baseline::float_conv_direct(padded, signs, spec, pool, dots);
    const bool last_layer = !ends_with_fc && li + 1 == a.convs.size() && !cs.pool_after;
    if (last_layer) return {dots.data(), dots.data() + dots.num_elements()};
    // Binarize with thresholds.
    Tensor bits = Tensor::hwc(dots.height(), dots.width(), dots.channels());
    for (std::int64_t h = 0; h < dots.height(); ++h) {
      for (std::int64_t w = 0; w < dots.width(); ++w) {
        for (std::int64_t k = 0; k < dots.channels(); ++k) {
          const float th =
              conv_th[li].empty() ? 0.0f : conv_th[li][static_cast<std::size_t>(k)];
          bits.at(h, w, k) = dots.at(h, w, k) >= th ? 1.0f : -1.0f;
        }
      }
    }
    act = std::move(bits);
    if (cs.pool_after) {
      const kernels::PoolSpec ps{2, 2, 2};
      Tensor pooled = Tensor::hwc(ps.out_h(act.height()), ps.out_w(act.width()), act.channels());
      baseline::float_maxpool(act, ps, pool, pooled);
      act = std::move(pooled);
    }
  }
  // FC chain on the flattened +-1 activations.
  std::vector<float> x(act.data(), act.data() + act.num_elements());
  for (std::size_t li = 0; li < a.fcs.size(); ++li) {
    const std::int64_t n = static_cast<std::int64_t>(x.size());
    const std::int64_t k = a.fcs[li].k;
    std::vector<float> y(static_cast<std::size_t>(k), 0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float acc = 0.0f;
      for (std::int64_t nn = 0; nn < n; ++nn) {
        const float wv =
            fc_w[li][static_cast<std::size_t>(nn * k + kk)] >= 0.0f ? 1.0f : -1.0f;
        acc += x[static_cast<std::size_t>(nn)] * wv;
      }
      y[static_cast<std::size_t>(kk)] = acc;
    }
    if (li + 1 == a.fcs.size()) return y;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float th = fc_th[li].empty() ? 0.0f : fc_th[li][static_cast<std::size_t>(kk)];
      y[static_cast<std::size_t>(kk)] = y[static_cast<std::size_t>(kk)] >= th ? 1.0f : -1.0f;
    }
    x = std::move(y);
  }
  return x;
}

class FuzzNetwork : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzNetwork, EngineMatchesFloatDomainReference) {
  std::mt19937_64 rng(GetParam());
  const RandomArch a = draw_arch(rng);

  // Materialize weights/thresholds and track shapes for validity.
  std::vector<FilterBank> conv_w;
  std::vector<std::vector<float>> conv_th, fc_w, fc_th;
  std::uniform_real_distribution<float> wdist(-1.0f, 1.0f);
  std::normal_distribution<float> tdist(0.0f, 3.0f);

  NetworkConfig cfg;
  cfg.num_threads = 1 + static_cast<int>(rng() % 4);
  (void)rng();  // unused draw: keeps each seed's weight and threshold stream fixed
  BinaryNetwork net(cfg);
  TensorDesc cur{a.in_h, a.in_w, a.in_c};
  bool valid = true;
  for (std::size_t li = 0; li < a.convs.size() && valid; ++li) {
    const ConvSpecRnd& cs = a.convs[li];
    FilterBank w(cs.k, cs.kernel, cs.kernel, cur.c);
    for (float& v : w.elements()) v = wdist(rng);
    std::vector<float> th;
    if (cs.thresholds) {
      th.resize(static_cast<std::size_t>(cs.k));
      for (float& v : th) v = tdist(rng);
    }
    conv_w.push_back(w);
    conv_th.push_back(th);
    const std::int64_t ph = cur.h + 2 * cs.pad, pw = cur.w + 2 * cs.pad;
    if (ph < cs.kernel || pw < cs.kernel) {
      valid = false;
      break;
    }
    net.add_conv("c" + std::to_string(li), std::move(w), cs.stride, cs.pad, th);
    cur = TensorDesc{(ph - cs.kernel) / cs.stride + 1, (pw - cs.kernel) / cs.stride + 1, cs.k};
    if (cs.pool_after) {
      if (cur.h < 2 || cur.w < 2) {
        valid = false;
        break;
      }
      net.add_maxpool("p" + std::to_string(li), kernels::PoolSpec{2, 2, 2});
      cur = TensorDesc{(cur.h - 2) / 2 + 1, (cur.w - 2) / 2 + 1, cur.c};
    }
  }
  if (!valid) GTEST_SKIP() << "degenerate random architecture";
  std::int64_t n = cur.num_elements();
  for (std::size_t li = 0; li < a.fcs.size(); ++li) {
    const std::int64_t k = a.fcs[li].k;
    std::vector<float> w(static_cast<std::size_t>(n * k));
    for (float& v : w) v = wdist(rng);
    std::vector<float> th;
    if (a.fcs[li].thresholds) {
      th.resize(static_cast<std::size_t>(k));
      for (float& v : th) v = tdist(rng);
    }
    fc_w.push_back(w);
    fc_th.push_back(th);
    net.add_fc("f" + std::to_string(li), std::move(w), n, k, th);
    n = k;
  }
  net.finalize(TensorDesc{a.in_h, a.in_w, a.in_c});

  Tensor input = Tensor::hwc(a.in_h, a.in_w, a.in_c);
  fill_uniform(input, GetParam() * 31 + 7);
  const auto scores = net.infer(input);
  const std::vector<float> expect =
      reference_forward(a, input, conv_w, conv_th, fc_w, fc_th);
  ASSERT_EQ(scores.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(scores[i], expect[i]) << "seed " << GetParam() << " score " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzNetwork, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace bitflow::graph
