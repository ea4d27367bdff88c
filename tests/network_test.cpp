// BinaryNetwork: shape inference, memory planning (zero-cost padding),
// kernel selection, and end-to-end equivalence against manual layer-by-layer
// composition of the engine's kernels and against src/baseline's
// unoptimized engine.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "graph/network.hpp"
#include "kernels/padding.hpp"
#include "models/vgg.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "telemetry/profiler.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::graph {
namespace {

// --- popcount limits --------------------------------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Thresholds every fan-in is checked at: NaN, infinities, signed zeros and
/// the extreme finite floats.
std::vector<float> special_thresholds() {
  const float max = std::numeric_limits<float>::max();
  return {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf, 0.0f, -0.0f, max, -max};
}

/// Appends each integer in [lo, hi], its float neighbours and its +-0.5
/// offsets.
void append_integers(std::vector<float>& ths, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t t = lo; t <= hi; ++t) {
    const auto f = static_cast<float>(t);
    ths.insert(ths.end(),
               {f, std::nextafter(f, kInf), std::nextafter(f, -kInf), f + 0.5f, f - 0.5f});
  }
}

/// Popcounts p among `pops` where `p <= limit` disagrees with the fused
/// binarize's float rule `float(bits - 2p) >= th`.
std::int64_t limit_mismatches(std::int64_t bits, float th, std::int64_t limit,
                              const std::vector<std::int64_t>& pops) {
  std::int64_t bad = 0;
  for (const std::int64_t p : pops) {
    bad += (p <= limit) != (static_cast<float>(bits - 2 * p) >= th) ? 1 : 0;
  }
  return bad;
}

TEST(PopcountLimit, MatchesTheFloatCompareAtEveryPopcountOfSmallFanIns) {
  for (std::int64_t bits = 1; bits <= 600; ++bits) {
    std::vector<float> ths = special_thresholds();
    append_integers(ths, -bits - 2, bits + 2);
    std::vector<std::int64_t> every_p(static_cast<std::size_t>(bits + 1));
    for (std::int64_t p = 0; p <= bits; ++p) every_p[static_cast<std::size_t>(p)] = p;
    for (const float th : ths) {
      const std::int64_t limit = popcount_limit(bits, th);
      ASSERT_GE(limit, -1) << "bits " << bits << " th " << th;
      ASSERT_LE(limit, bits) << "bits " << bits << " th " << th;
      ASSERT_EQ(limit_mismatches(bits, th, limit, every_p), 0)
          << "bits " << bits << " th " << th << " limit " << limit;
    }
  }
}

TEST(PopcountLimit, MatchesTheFloatCompareAroundTheBoundaryOfLargeFanIns) {
  // VGG-16's conv5 and fc6 fan-ins, and fan-ins where float(bits - 2p)
  // rounds (|dot| > 2^24).
  constexpr std::int64_t k24 = std::int64_t{1} << 24;
  for (const std::int64_t bits : {std::int64_t{4608}, std::int64_t{25088}, k24 - 1, k24, k24 + 1,
                                  2 * k24 + 3}) {
    std::vector<float> ths = special_thresholds();
    for (const std::int64_t centre : {std::int64_t{0}, bits, -bits, k24, -k24}) {
      append_integers(ths, centre - 3, centre + 3);
    }
    for (const float th : ths) {
      const std::int64_t limit = popcount_limit(bits, th);
      ASSERT_GE(limit, -1) << "bits " << bits << " th " << th;
      ASSERT_LE(limit, bits) << "bits " << bits << " th " << th;
      std::vector<std::int64_t> pops = {0, bits};
      for (std::int64_t p = std::max<std::int64_t>(0, limit - 64);
           p <= std::min(bits, limit + 64); ++p) {
        pops.push_back(p);
      }
      ASSERT_EQ(limit_mismatches(bits, th, limit, pops), 0)
          << "bits " << bits << " th " << th << " limit " << limit;
    }
  }
}

TEST(PopcountLimit, EmptyThresholdsAreSignAtZero) {
  EXPECT_EQ(popcount_limits(27, {}, 3), (std::vector<std::int64_t>{13, 13, 13}));
  EXPECT_EQ(popcount_limits(576, {}, 2), (std::vector<std::int64_t>{288, 288}));
  EXPECT_EQ(popcount_limits(576, {0.0f, 1.0f, -576.0f, 577.0f}, 4),
            (std::vector<std::int64_t>{288, 287, 576, -1}));
}

// --- networks ----------------------------------------------------------------

FilterBank random_filters(std::int64_t k, std::int64_t c, std::uint64_t seed) {
  return models::random_filters(k, 3, 3, c, seed);
}

/// conv(pad 1) -> pool(2x2) -> conv(pad 1) -> fc -> fc, a miniature VGG.
BinaryNetwork make_small_net(NetworkConfig cfg) {
  BinaryNetwork net(cfg);
  net.add_conv("c1", random_filters(64, 16, 1), 1, 1);
  net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  net.add_conv("c2", random_filters(32, 64, 2), 1, 1);
  net.add_fc("f1", models::random_fc_weights(8 * 8 * 32, 40, 3), 8 * 8 * 32, 40);
  net.add_fc("f2", models::random_fc_weights(40, 10, 4), 40, 10);
  net.finalize(TensorDesc{16, 16, 16});
  return net;
}

TEST(BinaryNetwork, ShapeInferenceAndLayerInfo) {
  BinaryNetwork net = make_small_net({});
  ASSERT_TRUE(net.finalized());
  const auto& layers = net.layers();
  ASSERT_EQ(layers.size(), 5u);
  EXPECT_EQ(layers[0].out, (TensorDesc{16, 16, 64}));  // padded conv keeps extents
  EXPECT_EQ(layers[1].out, (TensorDesc{8, 8, 64}));
  EXPECT_EQ(layers[2].out, (TensorDesc{8, 8, 32}));
  EXPECT_EQ(layers[3].out, (TensorDesc{1, 1, 40}));
  EXPECT_EQ(layers[4].out, (TensorDesc{1, 1, 10}));
  EXPECT_EQ(net.output_size(), 10);
  EXPECT_EQ(net.input_desc(), (TensorDesc{16, 16, 16}));
  EXPECT_FALSE(layers[0].isa_reason.empty());
  EXPECT_GT(net.packed_weight_bytes(), 0);
}

TEST(BinaryNetwork, InferMatchesManualComposition) {
  NetworkConfig cfg;
  cfg.num_threads = 2;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 99);
  const auto scores = net.infer(input);
  ASSERT_EQ(scores.size(), 10u);

  // Manual composition with the engine's kernels at their default plans,
  // same weights (seeds).
  runtime::ThreadPool pool(1);
  const FilterBank f1 = random_filters(64, 16, 1);
  const FilterBank f2 = random_filters(32, 64, 2);
  const auto w1 = models::random_fc_weights(8 * 8 * 32, 40, 3);
  const auto w2 = models::random_fc_weights(40, 10, 4);

  PackedTensor in0(18, 18, 16);
  bitpack::pack_activations_into_interior(input, in0, 1);
  const auto pf1 = bitpack::pack_filters(f1);
  PackedTensor a1(16, 16, 64);
  testing::EngineLayer().conv_binarize(in0, pf1, kernels::ConvSpec{3, 3, 1}, nullptr, pool, a1,
                                       0);
  PackedTensor a2(10, 10, 64);  // pool output with margin 1 for the next conv
  kernels::binary_maxpool(a1, kernels::PoolSpec{2, 2, 2}, pool, a2, 1);
  const auto pf2 = bitpack::pack_filters(f2);
  PackedTensor a3(8, 8, 32);
  testing::EngineLayer().conv_binarize(a2, pf2, kernels::ConvSpec{3, 3, 1}, nullptr, pool, a3,
                                       0);
  PackedMatrix flat(1, 8 * 8 * 32);
  bitpack::flatten_packed(a3, flat);
  const auto pw1 = bitpack::pack_transpose_fc_weights(w1.data(), 8 * 8 * 32, 40);
  PackedMatrix h1(1, 40);
  testing::EngineLayer().bgemm_binarize(flat, pw1, nullptr, pool, h1);
  const auto pw2 = bitpack::pack_transpose_fc_weights(w2.data(), 40, 10);
  std::vector<float> manual(10);
  testing::EngineLayer().bgemm(h1, pw2, pool, manual.data());

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(scores[static_cast<std::size_t>(i)], manual[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(BinaryNetwork, ThreadCountInvariance) {
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 7);
  NetworkConfig c1, c4;
  c1.num_threads = 1;
  c4.num_threads = 4;
  BinaryNetwork n1 = make_small_net(c1);
  BinaryNetwork n4 = make_small_net(c4);
  const auto s1 = n1.infer(input);
  const auto s4 = n4.infer(input);
  for (std::size_t i = 0; i < s1.size(); ++i) ASSERT_EQ(s1[i], s4[i]);
}

TEST(BinaryNetwork, RepeatedInferenceIsDeterministicAndPaddingStaysArmed) {
  // Every run must see all-zero margins although the arenas under the padded
  // buffers are reused by other layers, or the second inference would differ.
  BinaryNetwork net = make_small_net({});
  Tensor a = Tensor::hwc(16, 16, 16);
  Tensor b = Tensor::hwc(16, 16, 16);
  fill_uniform(a, 1);
  fill_uniform(b, 2);
  std::vector<float> first(net.infer(a).begin(), net.infer(a).end());
  (void)net.infer(b);  // perturb every buffer
  const auto again = net.infer(a);
  for (std::size_t i = 0; i < first.size(); ++i) ASSERT_EQ(first[i], again[i]);
}

TEST(BinaryNetwork, ConvThresholdsChangeBits) {
  BinaryNetwork plain{NetworkConfig{}}, biased{NetworkConfig{}};
  plain.add_conv("c", random_filters(8, 16, 5), 1, 0);
  plain.add_fc("f", models::random_fc_weights(6 * 6 * 8, 4, 6), 6 * 6 * 8, 4);
  plain.finalize(TensorDesc{8, 8, 16});

  std::vector<float> th(8, 1e9f);  // impossible threshold: all bits 0
  biased.add_conv("c", random_filters(8, 16, 5), 1, 0, th);
  biased.add_fc("f", models::random_fc_weights(6 * 6 * 8, 4, 6), 6 * 6 * 8, 4);
  biased.finalize(TensorDesc{8, 8, 16});

  Tensor input = Tensor::hwc(8, 8, 16);
  fill_uniform(input, 9);
  const auto sp = plain.infer(input);
  const auto sb = biased.infer(input);
  // All-zero bits into the fc = all -1 inputs: dot = -(sum of weight signs).
  bool differs = false;
  for (std::size_t i = 0; i < sp.size(); ++i) differs |= sp[i] != sb[i];
  EXPECT_TRUE(differs);
}

TEST(BinaryNetwork, FcOnlyNetwork) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_fc("f1", models::random_fc_weights(64, 32, 1), 64, 32);
  net.add_fc("f2", models::random_fc_weights(32, 8, 2), 32, 8);
  net.finalize(TensorDesc{1, 1, 64});
  Tensor input(Shape{64});
  fill_uniform(input, 3);
  const auto s = net.infer(input);
  EXPECT_EQ(s.size(), 8u);
  // Cross-check against the engine's kernels composed by hand.
  runtime::ThreadPool pool(1);
  const auto w1 = models::random_fc_weights(64, 32, 1);
  const auto w2 = models::random_fc_weights(32, 8, 2);
  const auto x = bitpack::pack_rows(input.data(), 1, 64);
  const auto pw1 = bitpack::pack_transpose_fc_weights(w1.data(), 64, 32);
  PackedMatrix h(1, 32);
  testing::EngineLayer().bgemm_binarize(x, pw1, nullptr, pool, h);
  const auto pw2 = bitpack::pack_transpose_fc_weights(w2.data(), 32, 8);
  std::vector<float> manual(8);
  testing::EngineLayer().bgemm(h, pw2, pool, manual.data());
  for (int i = 0; i < 8; ++i) ASSERT_EQ(s[static_cast<std::size_t>(i)], manual[static_cast<std::size_t>(i)]);
}

TEST(BinaryNetwork, ConvEndingNetworkEmitsDots) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c", random_filters(8, 32, 11), 1, 0);
  net.finalize(TensorDesc{6, 6, 32});
  Tensor input = Tensor::hwc(6, 6, 32);
  fill_uniform(input, 12);
  const auto s = net.infer(input);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(4 * 4 * 8));
  // Dots have the parity of N = 3*3*32.
  for (float v : s) {
    EXPECT_EQ((static_cast<std::int64_t>(v) - 3 * 3 * 32) % 2, 0);
  }
}

TEST(BinaryNetwork, ProfileModeRecordsPerLayerTimes) {
  NetworkConfig cfg;
  cfg.profile = true;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 13);
  (void)net.infer(input);
  // input pack + 5 layers
  EXPECT_EQ(net.last_profile_ms().size(), 6u);
  for (double t : net.last_profile_ms()) EXPECT_GE(t, 0.0);
}

TEST(BinaryNetwork, ProfileReportAttributesRooflinePerLayer) {
  NetworkConfig cfg;
  cfg.profile = true;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 13);
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) (void)net.infer(input);

  const ProfileReport report = net.profile_report();
  ASSERT_EQ(report.rows.size(), 6u);  // pack + 5 layers
  EXPECT_EQ(report.rows[0].name, "pack_input");
  EXPECT_EQ(report.rows[1].name, "c1");
  EXPECT_EQ(report.rows[5].name, "f2");
  for (const LayerProfile& row : report.rows) {
    EXPECT_EQ(row.calls, static_cast<std::uint64_t>(kRuns)) << row.name;
    EXPECT_EQ(row.images, static_cast<std::uint64_t>(kRuns)) << row.name;
    EXPECT_GE(row.mean_ms, 0.0) << row.name;
    EXPECT_GE(row.p99_ms, row.p50_ms) << row.name;
  }
  // Binary conv and fc rows carry arithmetic intensity and a roofline; the
  // pool row (no multiply-accumulates) does not.
  for (std::size_t i : {1u, 3u, 4u, 5u}) {
    EXPECT_GT(report.rows[i].gops, 0.0) << report.rows[i].name;
    EXPECT_GT(report.rows[i].roof_gops, 0.0) << report.rows[i].name;
    EXPECT_GT(report.rows[i].ait, 0.0) << report.rows[i].name;
  }
  EXPECT_EQ(report.rows[2].ait, 0.0);  // maxpool: no MAC work modeled

  const std::string table = report.to_table();
  EXPECT_NE(table.find("pack_input"), std::string::npos);
  EXPECT_NE(table.find("roof"), std::string::npos);
  EXPECT_NE(table.find("pressedconv"), std::string::npos);

  net.reset_profile();
  const ProfileReport cleared = net.profile_report();
  ASSERT_EQ(cleared.rows.size(), 6u);
  for (const LayerProfile& row : cleared.rows) EXPECT_EQ(row.calls, 0u);

  // Every row's columns start where the header's do, with the longest
  // kernel name (an fc-binarize row) and a five-digit roof: left-aligned
  // columns start at their label, right-aligned ones end at it.
  ProfileReport wide;
  wide.rows.resize(3);
  wide.rows[0].name = "pack_input";
  wide.rows[0].kernel = "bitpack";
  wide.rows[1].name = "fc6";
  wide.rows[1].kernel = "bgemm_binarize_rows[avx512,t16,p4]";
  wide.rows[1].gops = 4321.0;
  wide.rows[1].roof_gops = 12345.6;
  wide.rows[1].ait = 2.0;
  wide.rows[2].name = "conv1_2";
  wide.rows[2].kernel = "pressedconv_bin[u64,t4,p2]";
  wide.rows[2].gops = 250.0;
  wide.rows[2].roof_gops = 310.0;
  wide.rows[2].ait = 18.0;
  std::istringstream lines(wide.to_table());
  std::string header, rule, line;
  std::getline(lines, header);
  std::getline(lines, rule);
  EXPECT_EQ(rule.size(), header.size());
  const auto at = [](const std::string& l, std::size_t i) { return i < l.size() ? l[i] : ' '; };
  for (const LayerProfile& row : wide.rows) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.size(), header.size()) << line;
    EXPECT_EQ(line.compare(0, row.name.size(), row.name), 0) << line;
    EXPECT_EQ(line.compare(header.find("kernel"), row.kernel.size(), row.kernel), 0) << line;
    for (const char* label : {"calls", "images", "mean_ms", "p50_ms", "p99_ms", "gops",
                              "roof(gops)", "ait", "ipc", "mpki", "src"}) {
      const std::size_t end = header.find(label) + std::strlen(label);
      EXPECT_NE(at(line, end - 1), ' ') << label << " in\n" << header << '\n' << line;
      EXPECT_EQ(at(line, end), ' ') << label << " in\n" << header << '\n' << line;
    }
  }
}

// Whether this build instruments memory accesses (ASan, TSan).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BITFLOW_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BITFLOW_TEST_SANITIZED 1
#endif
#endif
#ifdef BITFLOW_TEST_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(BinaryNetwork, ProfileReportRoofBoundsEveryConvRow) {
  // A row's roof is the one-thread GOPS of the tile kernel it dispatches,
  // times the threads that ran it, so a conv or fc row reads at most 100%
  // of it, plus timing noise and the few % by which the binarizing epilogue
  // of the inner layers beats the raw-dot one the roof is timed on.  Under
  // ASan or TSan the instrumented raw-dot epilogue (float stores, spilled
  // counts) costs far more than that, so the bound is asserted only in
  // builds without sanitizers.
  constexpr double kTolerancePct = 15.0;
  models::VggConfig vgg = models::vgg16();  // the 13 conv shapes, at 32x32
  vgg.input_size = 32;
  vgg.fc_sizes = {256, 10};
  Tensor input = Tensor::hwc(vgg.input_size, vgg.input_size, vgg.input_channels);
  fill_uniform(input, 31);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, nproc}) {
    NetworkConfig cfg;
    cfg.num_threads = threads;
    cfg.profile = true;
    BinaryNetwork net = models::build_binary_vgg(vgg, cfg);
    for (int i = 0; i < 4; ++i) (void)net.infer(input);
    const ProfileReport report = net.profile_report();
    const ProfileReport again = net.profile_report();
    int convs = 0;
    for (std::size_t i = 1; i < report.rows.size(); ++i) {
      const LayerProfile& row = report.rows[i];
      if (net.layers()[i - 1].kind == LayerKind::kPool) continue;
      convs += net.layers()[i - 1].kind == LayerKind::kConv ? 1 : 0;
      ASSERT_GT(row.roof_gops, 0.0) << row.name;
      EXPECT_EQ(again.rows[i].roof_gops, row.roof_gops) << row.name;  // calibrated once
      if (kSanitized) continue;
      EXPECT_LE(100.0 * row.gops / row.roof_gops, 100.0 + kTolerancePct)
          << row.name << " " << row.kernel << " at " << threads << " threads: " << row.gops
          << " of " << row.roof_gops << " GOPS";
    }
    EXPECT_EQ(convs, 13);
  }

  // An SSE cap runs the u64 entry points, so it reads the u64 roof.
  if (!simd::cpu_features().supports(simd::IsaLevel::kSse)) return;
  double roofs[2] = {0.0, 0.0};
  for (const simd::IsaLevel cap : {simd::IsaLevel::kU64, simd::IsaLevel::kSse}) {
    NetworkConfig cfg;
    cfg.profile = true;
    cfg.max_isa = cap;
    BinaryNetwork net = make_small_net(cfg);
    Tensor small = Tensor::hwc(16, 16, 16);
    fill_uniform(small, 13);
    (void)net.infer(small);
    roofs[cap == simd::IsaLevel::kSse ? 1 : 0] = net.profile_report().rows[1].roof_gops;
  }
  EXPECT_GT(roofs[0], 0.0);
  EXPECT_EQ(roofs[1], roofs[0]);
}

TEST(BinaryNetwork, ProfileReportSurvivesAnInjectedPoolFault) {
  // The roof's calibration runs a pool job, which an armed runtime.worker
  // fault fails: the report must still come back (the /varz scrape of a
  // served network calls it on the server's poll thread).  An AVX2 cap
  // keeps this test's lowering apart from the other profile tests' when
  // the binary runs in one process.
  if (!simd::cpu_features().supports(simd::IsaLevel::kAvx2)) GTEST_SKIP() << "no AVX2";
  NetworkConfig cfg;
  cfg.profile = true;
  cfg.max_isa = simd::IsaLevel::kAvx2;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 13);
  (void)net.infer(input);
  failpoint::arm("runtime.worker", {failpoint::Action::kError, failpoint::Trigger::kAlways});
  EXPECT_NO_THROW((void)net.profile_report());
  failpoint::disarm_all();
  EXPECT_GT(net.profile_report().rows[1].roof_gops, 0.0);
}

TEST(BinaryNetwork, ProfileReportAccumulatesAcrossContextsWhenGloballyEnabled) {
  // Even with cfg.profile unset, the process-wide profiler switch arms the
  // shared accumulators, and batch inference counts every image.
  BinaryNetwork net = make_small_net({});
  telemetry::set_profiling(true);
  std::vector<Tensor> batch;
  for (int i = 0; i < 3; ++i) {
    Tensor t = Tensor::hwc(16, 16, 16);
    fill_uniform(t, 20 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(t));
  }
  const std::vector<const Tensor*> ptrs = {&batch[0], &batch[1], &batch[2]};
  InferenceContext ctx = net.make_context(3);
  (void)net.infer_batch(std::span<const Tensor* const>(ptrs), ctx);
  telemetry::set_profiling(false);
  const ProfileReport report = net.profile_report();
  ASSERT_EQ(report.rows.size(), 6u);
  for (const LayerProfile& row : report.rows) {
    EXPECT_EQ(row.calls, 1u) << row.name;
    EXPECT_EQ(row.images, 3u) << row.name;
  }
}

TEST(BinaryNetwork, BuildErrors) {
  BinaryNetwork net{NetworkConfig{}};
  EXPECT_THROW(net.finalize(TensorDesc{8, 8, 8}), std::logic_error);  // no layers
  net.add_conv("c", random_filters(4, 8, 1), 1, 1);
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_conv("c", random_filters(4, 16, 1), 1, 1);  // channel mismatch vs input
        bad.finalize(TensorDesc{8, 8, 8});
      },
      std::invalid_argument);
  net.finalize(TensorDesc{8, 8, 8});
  EXPECT_THROW(net.finalize(TensorDesc{8, 8, 8}), std::logic_error);    // double finalize
  EXPECT_THROW(net.add_maxpool("p", {}), std::logic_error);             // add after finalize
  Tensor wrong = Tensor::hwc(9, 9, 8);
  EXPECT_THROW((void)net.infer(wrong), std::invalid_argument);          // wrong input extents
  BinaryNetwork unfinalized{NetworkConfig{}};
  unfinalized.add_conv("c", random_filters(4, 8, 1), 1, 1);
  Tensor in = Tensor::hwc(8, 8, 8);
  EXPECT_THROW((void)unfinalized.infer(in), std::logic_error);
  // fc size mismatch
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_fc("f", models::random_fc_weights(10, 4, 1), 10, 4);
        bad.finalize(TensorDesc{1, 1, 12});
      },
      std::invalid_argument);
  // conv after fc unsupported
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_fc("f", models::random_fc_weights(64, 32, 1), 64, 32);
        bad.add_conv("c", random_filters(4, 32, 1), 1, 1);
        bad.finalize(TensorDesc{1, 1, 64});
      },
      std::invalid_argument);
}

TEST(BinaryNetwork, WeightBytesReflect32xCompression) {
  // One conv layer: K*kh*kw*C bits packed -> K*kh*kw*C/8 bytes (C mult of 64).
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c", random_filters(16, 64, 1), 1, 0);
  net.finalize(TensorDesc{4, 4, 64});
  EXPECT_EQ(net.packed_weight_bytes(), 16 * 3 * 3 * 64 / 8);
  // Float storage would be 16*3*3*64*4 bytes: exactly 32x larger.
  EXPECT_EQ(16 * 3 * 3 * 64 * 4 / net.packed_weight_bytes(), 32);
}

// --- batch-N inference ------------------------------------------------------

/// Runs `net.infer_batch` over `n` distinct inputs and asserts every image's
/// score slice is bit-identical to a batch-1 `infer()` of that image alone.
void expect_batch_matches_batch1(BinaryNetwork& net, InferenceContext& ctx, std::int64_t n,
                                 std::uint64_t seed_base) {
  const TensorDesc in = net.input_desc();
  const std::int64_t out_size = net.output_size();
  std::vector<Tensor> inputs;
  std::vector<const Tensor*> ptrs;
  for (std::int64_t b = 0; b < n; ++b) {
    Tensor t = Tensor::hwc(in.h, in.w, in.c);
    fill_uniform(t, seed_base + static_cast<std::uint64_t>(b));
    inputs.push_back(std::move(t));
  }
  for (const Tensor& t : inputs) ptrs.push_back(&t);

  const auto batch = net.infer_batch(ptrs, ctx);
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(n * out_size));
  // infer() reuses the default context, not `ctx`, so copy first anyway —
  // the span contract says it is only valid until the context's next use.
  const std::vector<float> scores(batch.begin(), batch.end());
  for (std::int64_t b = 0; b < n; ++b) {
    const auto single = net.infer(inputs[static_cast<std::size_t>(b)]);
    ASSERT_EQ(single.size(), static_cast<std::size_t>(out_size));
    for (std::int64_t i = 0; i < out_size; ++i) {
      ASSERT_EQ(scores[static_cast<std::size_t>(b * out_size + i)],
                single[static_cast<std::size_t>(i)])
          << "batch image " << b << " diverges from its batch-1 run at score " << i
          << " (n=" << n << ")";
    }
  }
}

TEST(BinaryNetwork, BatchInferenceBitExactAcrossIsaLevels) {
  // The acceptance sweep: N in {1, 2, 7, 16} on every ISA level the host
  // can execute (the kernel-variant axis incl. both AVX-512 popcount
  // lowerings is covered in isa_parity_test).
  for (simd::IsaLevel isa : simd::supported_isa_levels()) {
    NetworkConfig cfg;
    cfg.num_threads = 3;
    cfg.max_isa = isa;
    BinaryNetwork net = make_small_net(cfg);
    InferenceContext ctx = net.make_context(16);
    for (std::int64_t n : {1, 2, 7, 16}) {
      expect_batch_matches_batch1(net, ctx, n, 500 + static_cast<std::uint64_t>(n) * 31);
    }
  }
}

TEST(BinaryNetwork, BatchInferenceThreadCountInvariance) {
  // A context's pool size must not change results — same invariance the
  // single-image path guarantees, now over the fused n*H*W ranges.
  BinaryNetwork net = make_small_net({});
  std::vector<float> ref;
  for (int threads : {1, 2, 5}) {
    InferenceContext ctx = net.make_context(7, threads);
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (int b = 0; b < 7; ++b) {
      Tensor t = Tensor::hwc(16, 16, 16);
      fill_uniform(t, 900 + static_cast<std::uint64_t>(b));
      inputs.push_back(std::move(t));
    }
    for (const Tensor& t : inputs) ptrs.push_back(&t);
    const auto s = net.infer_batch(ptrs, ctx);
    if (ref.empty()) {
      ref.assign(s.begin(), s.end());
    } else {
      ASSERT_EQ(std::vector<float>(s.begin(), s.end()), ref) << threads << " threads";
    }
  }
}

TEST(BinaryNetwork, BatchInferenceFcOnlyNetwork) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_fc("f1", models::random_fc_weights(64, 32, 1), 64, 32);
  net.add_fc("f2", models::random_fc_weights(32, 8, 2), 32, 8);
  net.finalize(TensorDesc{1, 1, 64});
  InferenceContext ctx = net.make_context(5);
  expect_batch_matches_batch1(net, ctx, 5, 77);
}

TEST(BinaryNetwork, BatchInferenceFloatFirstLayerNetwork) {
  // The full-precision first layer runs serially per image but shares the
  // context's float scratch; batch results must still match batch-1.
  BinaryNetwork net{NetworkConfig{}};
  std::vector<float> th(16, 0.25f);
  net.add_conv_float("c0", models::random_filters(16, 3, 3, 3, 21), 1, 1, th);
  net.add_conv("c1", random_filters(32, 16, 22), 1, 1);
  net.add_fc("f1", models::random_fc_weights(8 * 8 * 32, 10, 23), 8 * 8 * 32, 10);
  net.finalize(TensorDesc{8, 8, 3});
  InferenceContext ctx = net.make_context(4);
  expect_batch_matches_batch1(net, ctx, 4, 555);
}

TEST(BinaryNetwork, BatchInferenceConvEndingNetworkEmitsDots) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c1", random_filters(8, 16, 31), 1, 0);
  net.finalize(TensorDesc{6, 6, 16});
  InferenceContext ctx = net.make_context(3);
  expect_batch_matches_batch1(net, ctx, 3, 4040);
}

// --- finalize-time weight tiling -------------------------------------------

/// sign(dot - th) of a 3x3, stride-1 conv with padding `pad` through
/// src/baseline's unoptimized engine (im2col + scalar words); empty `th` is
/// sign at zero.  Padding enters as -1, the engine's zero bits.
Tensor baseline_conv_signs(const Tensor& x, const FilterBank& f, std::int64_t pad,
                           const std::vector<float>& th = {}) {
  runtime::ThreadPool pool(1);
  const Tensor padded = pad > 0 ? baseline::pad_float(x, pad, -1.0f) : x;
  Tensor out = Tensor::hwc(padded.height() - 2, padded.width() - 2, f.num_filters());
  baseline::UnoptBinaryConv(f, kernels::ConvSpec{3, 3, 1}).run(padded, pool, out);
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    const float t = th.empty() ? 0.0f : th[static_cast<std::size_t>(i % f.num_filters())];
    out.data()[i] = out.data()[i] >= t ? 1.0f : -1.0f;
  }
  return out;
}

/// The n x k fc `w` over `x` through src/baseline's engine: raw dots, or
/// their signs at zero when `binarize`.
std::vector<float> baseline_fc(const std::vector<float>& w, std::int64_t n, std::int64_t k,
                               const float* x, bool binarize) {
  runtime::ThreadPool pool(1);
  std::vector<float> y(static_cast<std::size_t>(k));
  baseline::UnoptBinaryFc(w.data(), n, k).run(x, pool, y.data());
  if (binarize) {
    for (float& v : y) v = v >= 0.0f ? 1.0f : -1.0f;
  }
  return y;
}

TEST(BinaryNetwork, LayerInfoReportsWeightLayout) {
  // Every conv/fc reports the register-tile width its bank is interleaved
  // at: that of the default plan's ISA, or of the capped ISA under max_isa.
  // The profile's kernel name carries the same plan and the register-block
  // height P the ISA compiles in, "[isa,tT,pP]".  The pool has no weights,
  // no tile width and no P.
  NetworkConfig capped;
  capped.max_isa = simd::IsaLevel::kU64;
  for (const NetworkConfig& cfg : {NetworkConfig{}, capped}) {
    BinaryNetwork net = make_small_net(cfg);
    const ProfileReport report = net.profile_report();
    ASSERT_EQ(report.rows.size(), net.layers().size() + 1);  // row 0 = pack_input
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
      const LayerInfo& l = net.layers()[i];
      const std::string& kernel = report.rows[i + 1].kernel;
      if (l.kind == LayerKind::kPool) {
        EXPECT_EQ(l.tile, 0) << l.name;
        EXPECT_EQ(kernel.find(",t"), std::string::npos) << kernel;
        EXPECT_EQ(kernel.find(",p"), std::string::npos) << kernel;
        continue;
      }
      // out.c is K for a conv and for an fc ({1, 1, K}).
      const KernelPlan plan = default_kernel_plan(simd::cpu_features(), cfg.max_isa);
      EXPECT_EQ(l.tile, kernels::weight_tile_width(plan.isa)) << l.name;
      EXPECT_EQ(l.isa, plan.isa) << l.name;
      const std::string suffix = "[" + std::string(simd::isa_name(plan.isa)) + ",t" +
                                 std::to_string(kernels::weight_tile_width(plan.isa)) + ",p" +
                                 std::to_string(kernels::pixel_block(plan.isa)) + "]";
      ASSERT_GE(kernel.size(), suffix.size()) << kernel;
      EXPECT_EQ(kernel.substr(kernel.size() - suffix.size()), suffix) << l.name;
    }
  }
}

TEST(BinaryNetwork, TinyLayerRunsOnePaddedTile) {
  // K = 3 is below every tile width: the layer runs its ISA's T in one tile
  // whose other T - 3 lanes are zero pad filters, never stored or set.  It
  // must match the baseline.
  const FilterBank f = random_filters(3, 16, 41);
  const std::vector<float> w = models::random_fc_weights(6 * 6 * 3, 3, 42);
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c", f, 1, 0);
  net.add_fc("f", w, 6 * 6 * 3, 3);
  net.finalize(TensorDesc{8, 8, 16});
  const std::int64_t t = kernels::weight_tile_width(simd::cpu_features().best_isa());
  for (const LayerInfo& l : net.layers()) {
    EXPECT_EQ(l.tile, t) << l.name;
    const std::string idle = "1 tile of T=" + std::to_string(t) + ", " + std::to_string(t - 3) +
                             " idle lanes";
    EXPECT_NE(l.isa_reason.find(idle), std::string::npos) << l.isa_reason;
  }
  Tensor input = Tensor::hwc(8, 8, 16);
  fill_uniform(input, 43);
  const auto got = net.infer(input);
  const Tensor a = baseline_conv_signs(input, f, 0);
  const std::vector<float> want = baseline_fc(w, 6 * 6 * 3, 3, a.data(), false);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << i;
}

TEST(BinaryNetwork, TiledRemainderLayerBitExact) {
  // K = 13 and fc outputs 11/5: K % T != 0 at every tile width, so the
  // padded last tiles of the interleaved banks are exercised end-to-end
  // through infer_batch, against src/baseline, at every batch size.
  const FilterBank f = random_filters(13, 16, 51);
  const std::vector<float> w1 = models::random_fc_weights(8 * 8 * 13, 11, 52);
  const std::vector<float> w2 = models::random_fc_weights(11, 5, 53);
  NetworkConfig cfg;
  cfg.num_threads = 2;
  BinaryNetwork net(cfg);
  net.add_conv("c1", f, 1, 1);
  net.add_fc("f1", w1, 8 * 8 * 13, 11);
  net.add_fc("f2", w2, 11, 5);
  net.finalize(TensorDesc{8, 8, 16});
  InferenceContext ctx = net.make_context(7);
  for (std::int64_t n : {1, 2, 7}) {
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (std::int64_t b = 0; b < n; ++b) {
      Tensor t = Tensor::hwc(8, 8, 16);
      fill_uniform(t, 5400 + static_cast<std::uint64_t>(n * 17 + b));
      inputs.push_back(std::move(t));
    }
    for (const Tensor& t : inputs) ptrs.push_back(&t);
    const auto got = net.infer_batch(ptrs, ctx);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n * 5));
    for (std::int64_t b = 0; b < n; ++b) {
      const Tensor a = baseline_conv_signs(inputs[static_cast<std::size_t>(b)], f, 1);
      const std::vector<float> h = baseline_fc(w1, 8 * 8 * 13, 11, a.data(), true);
      const std::vector<float> want = baseline_fc(w2, 11, 5, h.data(), false);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(b * 5) + i], want[i])
            << "remainder-path divergence at score " << i << " of image " << b << " (n=" << n
            << ")";
      }
    }
  }
}

TEST(BinaryNetwork, ContextAndBatchArgumentValidation) {
  BinaryNetwork unfinalized{NetworkConfig{}};
  unfinalized.add_conv("c", random_filters(8, 16, 1), 1, 0);
  EXPECT_THROW((void)unfinalized.make_context(1), std::logic_error);

  BinaryNetwork net = make_small_net({});
  BinaryNetwork other = make_small_net({});
  EXPECT_THROW((void)net.make_context(0), std::invalid_argument);
  EXPECT_THROW((void)net.make_context(2, 0), std::invalid_argument);

  InferenceContext ctx = net.make_context(2);
  EXPECT_EQ(ctx.max_batch(), 2);
  Tensor in = Tensor::hwc(16, 16, 16);
  fill_uniform(in, 1);
  const Tensor* one = &in;

  // Context from a different (identically built) network is rejected.
  EXPECT_THROW((void)other.infer_batch({&one, 1}, ctx), std::invalid_argument);
  // Batch larger than the context's capacity.
  const Tensor* three[] = {&in, &in, &in};
  EXPECT_THROW((void)net.infer_batch({three, 3}, ctx), std::invalid_argument);
  // Empty batch.
  EXPECT_THROW((void)net.infer_batch({&one, 0}, ctx), std::invalid_argument);
  // Wrong extents, and the offending index is named.
  Tensor bad = Tensor::hwc(8, 8, 16);
  const Tensor* mixed[] = {&in, &bad};
  try {
    (void)net.infer_batch({mixed, 2}, ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("input 1"), std::string::npos) << e.what();
  }

  // The context stays usable after a rejected call.
  const auto s = net.infer_batch({&one, 1}, ctx);
  EXPECT_EQ(s.size(), 10u);
}

// --- ping-pong activation arenas ---------------------------------------------

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
  [[nodiscard]] BinaryNetwork build(NetworkConfig cfg) const {
    BinaryNetwork net(cfg);
    net.add_conv("c1", c1, 1, 1, th1);
    net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
    net.add_conv("c2", c2, 1, 1, th2);
    net.add_conv("c3", c3, 1, 1, th3);
    net.add_maxpool("p2", kernels::PoolSpec{2, 2, 2});
    net.add_fc("f1", f1, 3 * 3 * 96, 40, thf);
    net.add_fc("f2", f2, 40, 10);
    net.finalize(TensorDesc{12, 12, 96});
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

TEST(BinaryNetwork, ArenaReuseMatchesUnoptimizedBaseline) {
  // Two passes through one context with different images: the second pass
  // reads margins that the first pass's later layers overwrote, so a missed
  // margin re-zero or a producer that ORs into stale words diverges here.
  const ArenaChain chain;
  for (simd::IsaLevel isa : simd::supported_isa_levels()) {
    NetworkConfig cfg;
    cfg.num_threads = 2;
    cfg.max_isa = isa;
    const BinaryNetwork net = chain.build(cfg);
    for (std::int64_t n : {1, 3}) {
      InferenceContext ctx = net.make_context(n);
      for (std::uint64_t pass = 0; pass < 2; ++pass) {
        std::vector<Tensor> inputs;
        std::vector<const Tensor*> ptrs;
        for (std::int64_t b = 0; b < n; ++b) {
          Tensor t = Tensor::hwc(12, 12, 96);
          fill_uniform(t, 8100 + pass * 10 + static_cast<std::uint64_t>(n * 100 + b));
          inputs.push_back(std::move(t));
        }
        for (const Tensor& t : inputs) ptrs.push_back(&t);
        const auto got = net.infer_batch(ptrs, ctx);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(n * 10));
        for (std::int64_t b = 0; b < n; ++b) {
          const std::vector<float> want =
              chain.baseline_forward(inputs[static_cast<std::size_t>(b)]);
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[static_cast<std::size_t>(b * 10) + i], want[i])
                << "isa " << simd::isa_name(isa) << " n=" << n << " pass " << pass << " image "
                << b << " score " << i;
          }
        }
      }
    }
  }
}

TEST(BinaryNetwork, VggShapedChainUnderTheDefaultPlanMatchesBaseline) {
  // VGG's first block shapes, C = 3 -> 64 -> 64 -> 128, under a default
  // NetworkConfig: every conv and fc is register-tiled at the widest ISA,
  // whatever its C, and binarizes through popcount limits.  Integer
  // thresholds of both parities put some dots exactly on a threshold.
  const FilterBank c1 = random_filters(64, 3, 81), c2 = random_filters(64, 64, 82),
                   c3 = random_filters(128, 64, 83);
  const std::vector<float> f1 = models::random_fc_weights(4 * 4 * 128, 24, 84);
  const std::vector<float> f2 = models::random_fc_weights(24, 10, 85);
  const auto integer_thresholds = [](std::int64_t k, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> dist(-6, 6);
    std::vector<float> th(static_cast<std::size_t>(k));
    for (float& t : th) t = static_cast<float>(dist(rng));
    return th;
  };
  const std::vector<float> th1 = integer_thresholds(64, 86), th2 = integer_thresholds(64, 87),
                           th3 = integer_thresholds(128, 88), thf = integer_thresholds(24, 89);

  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("conv1_1", c1, 1, 1, th1);
  net.add_conv("conv1_2", c2, 1, 1, th2);
  net.add_maxpool("pool1", kernels::PoolSpec{2, 2, 2});
  net.add_conv("conv2_1", c3, 1, 1, th3);
  net.add_maxpool("pool2", kernels::PoolSpec{2, 2, 2});
  net.add_fc("fc1", f1, 4 * 4 * 128, 24, thf);
  net.add_fc("fc2", f2, 24, 10);
  net.finalize(TensorDesc{16, 16, 3});
  const simd::IsaLevel widest = simd::cpu_features().best_isa();
  for (const LayerInfo& l : net.layers()) {
    if (l.kind == LayerKind::kPool) continue;
    EXPECT_EQ(l.isa, widest) << l.name;
    // The ISA's one width, whatever K (fc2: K = 10 in one padded tile).
    EXPECT_EQ(l.tile, kernels::weight_tile_width(widest)) << l.name;
    EXPECT_NE(l.isa_reason.find("register tiles"), std::string::npos) << l.isa_reason;
  }

  runtime::ThreadPool pool(1);
  const auto conv = [&](const Tensor& x, const FilterBank& f, const std::vector<float>& th) {
    Tensor dots = Tensor::hwc(x.height(), x.width(), f.num_filters());
    baseline::UnoptBinaryConv(f, kernels::ConvSpec{3, 3, 1})
        .run(baseline::pad_float(x, 1, -1.0f), pool, dots);  // -1 = zero-bit padding
    for (std::int64_t i = 0; i < dots.num_elements(); ++i) {
      const float t = th[static_cast<std::size_t>(i % f.num_filters())];
      dots.data()[i] = dots.data()[i] >= t ? 1.0f : -1.0f;
    }
    return dots;
  };
  const auto maxpool = [&](const Tensor& x) {
    PackedTensor out(x.height() / 2, x.width() / 2, x.channels());
    baseline::unopt_binary_maxpool(bitpack::pack_activations(x), kernels::PoolSpec{2, 2, 2},
                                   pool, out);
    return bitpack::unpack_to_signs(out);
  };
  InferenceContext ctx = net.make_context(2);
  std::vector<Tensor> inputs;
  for (std::uint64_t seed : {90u, 91u}) {
    inputs.push_back(Tensor::hwc(16, 16, 3));
    fill_uniform(inputs.back(), seed);
  }
  const std::vector<const Tensor*> ptrs = {&inputs[0], &inputs[1]};
  const auto got = net.infer_batch(ptrs, ctx);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const Tensor a = maxpool(conv(maxpool(conv(conv(inputs[b], c1, th1), c2, th2)), c3, th3));
    std::vector<float> h(24), scores(10);
    baseline::UnoptBinaryFc(f1.data(), 4 * 4 * 128, 24).run(a.data(), pool, h.data());
    for (std::size_t i = 0; i < h.size(); ++i) h[i] = h[i] >= thf[i] ? 1.0f : -1.0f;
    baseline::UnoptBinaryFc(f2.data(), 24, 10).run(h.data(), pool, scores.data());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(got[b * 10 + i], scores[i]) << "image " << b << " score " << i;
    }
  }
}

TEST(BinaryNetwork, Vgg16ContextHoldsTwoArenasPerSlot) {
  // VGG-16 from packed random weights (float fc6 weights would be 0.4 GB).
  const models::VggConfig vgg = models::vgg16();
  BinaryNetwork net{NetworkConfig{}};
  std::int64_t c = vgg.input_channels, hw = vgg.input_size;
  std::uint64_t seed = 300;
  for (std::size_t b = 0; b < vgg.conv_blocks.size(); ++b) {
    for (const std::int64_t k : vgg.conv_blocks[b]) {
      PackedFilterBank f(k, 3, 3, c);
      fill_random_bits(f, ++seed);
      net.add_conv_packed("conv", lower_conv_weights(std::move(f), "conv"), 1, 1);
      c = k;
    }
    net.add_maxpool("pool", kernels::PoolSpec{2, 2, 2});
    hw /= 2;
  }
  std::int64_t fan_in = hw * hw * c;
  for (const std::int64_t k : vgg.fc_sizes) {
    PackedMatrix w(k, fan_in);
    fill_random_bits(w, ++seed);
    net.add_fc_packed("fc", lower_fc_weights(std::move(w), "fc"));
    fan_in = k;
  }
  net.finalize(TensorDesc{vgg.input_size, vgg.input_size, vgg.input_channels});

  // The planned packed buffers, from the layer list: buffer 0 is the padded
  // input, buffer i+1 the output of conv/pool layer i padded for layer i+1.
  const std::vector<LayerInfo>& layers = net.layers();
  const auto padded_bytes = [](const TensorDesc& d, std::int64_t margin) {
    return (d.h + 2 * margin) * (d.w + 2 * margin) * words_for_channels(d.c) * 8;
  };
  std::vector<std::int64_t> buffers = {padded_bytes(layers[0].in, layers[0].pad)};
  for (std::size_t i = 0; i + 1 < layers.size() && layers[i].kind != LayerKind::kFc; ++i) {
    const std::int64_t margin = layers[i + 1].kind == LayerKind::kConv ? layers[i + 1].pad : 0;
    buffers.push_back(padded_bytes(layers[i].out, margin));
  }
  ASSERT_EQ(buffers.size(), 19u);  // input + 13 convs + 5 pools
  std::int64_t max_even = 0, max_odd = 0, all = 0;
  for (std::size_t j = 0; j < buffers.size(); ++j) {
    std::int64_t& m = j % 2 == 0 ? max_even : max_odd;
    m = std::max(m, buffers[j]);
    all += buffers[j];
  }

  const InferenceContext one = net.make_context(1);
  EXPECT_EQ(one.activation_bytes(), max_even + max_odd);
  EXPECT_LT(one.activation_bytes() * 2, all);  // 0.78 MiB instead of 2.25 per image
  const InferenceContext eight = net.make_context(8);
  EXPECT_EQ(eight.activation_bytes(), 8 * (max_even + max_odd));
}

TEST(BinaryNetwork, InferCreatesItsDefaultContextOnFirstUse) {
  // finalize() makes no context; the first infer() does, and it matches an
  // explicit context bit for bit on this and every later call.
  NetworkConfig cfg;
  cfg.profile = true;
  BinaryNetwork net = make_small_net(cfg);
  EXPECT_TRUE(net.last_profile_ms().empty());  // no default context yet
  InferenceContext ctx = net.make_context(1);
  for (std::uint64_t seed : {31u, 32u}) {
    Tensor input = Tensor::hwc(16, 16, 16);
    fill_uniform(input, seed);
    const Tensor* one = &input;
    const auto explicit_scores = net.infer_batch({&one, 1}, ctx);
    const std::vector<float> want(explicit_scores.begin(), explicit_scores.end());
    const auto got = net.infer(input);
    ASSERT_EQ(std::vector<float>(got.begin(), got.end()), want) << "seed " << seed;
    EXPECT_EQ(net.last_profile_ms().size(), 6u);
  }
}

}  // namespace
}  // namespace bitflow::graph
