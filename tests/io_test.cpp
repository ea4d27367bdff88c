// Model serialization: save/load round-trips, instantiate equivalence, and
// rejection of malformed files.
#include <fcntl.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/float_ops.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "data/synthetic.hpp"
#include "graph/scheduler.hpp"
#include "io/model.hpp"
#include "kernels/conv_spec.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/util.hpp"
#include "train/export.hpp"
#include "train/models.hpp"

namespace bitflow::io {
namespace {

/// A small hand-built model: conv -> pool -> fc with thresholds.
Model make_test_model() {
  Model m(graph::TensorDesc{12, 12, 16});
  FilterBank filters = models::random_filters(32, 3, 3, 16, 1);
  std::vector<float> th(32);
  for (int i = 0; i < 32; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 16.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(6 * 6 * 32, 10, 2);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 6 * 6 * 32, 10));
  return m;
}

TEST(ModelIo, StreamRoundTripPreservesEverything) {
  const Model a = make_test_model();
  std::stringstream ss;
  a.save(ss);
  const Model b = Model::load(ss);
  ASSERT_EQ(b.num_layers(), a.num_layers());
  EXPECT_EQ(b.input(), a.input());
  EXPECT_EQ(b.weight_bytes(), a.weight_bytes());
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    const LayerRecord& la = a.layers()[i];
    const LayerRecord& lb = b.layers()[i];
    ASSERT_EQ(lb.kind, la.kind);
    EXPECT_EQ(lb.name, la.name);
    EXPECT_EQ(lb.thresholds, la.thresholds);
    if (la.kind == graph::LayerKind::kConv) {
      ASSERT_EQ(lb.filters.num_filters(), la.filters.num_filters());
      ASSERT_EQ(lb.filters.kernel_h(), la.filters.kernel_h());
      ASSERT_EQ(lb.filters.kernel_w(), la.filters.kernel_w());
      ASSERT_EQ(lb.filters.channels(), la.filters.channels());
      EXPECT_EQ(lb.stride, la.stride);
      EXPECT_EQ(lb.pad, la.pad);
      // Every logical word, whatever layout each side was lowered to.
      for (std::int64_t k = 0; k < la.filters.num_filters(); ++k) {
        for (std::int64_t w = 0; w < la.filters.words_per_filter(); ++w) {
          ASSERT_EQ(lb.filters.word(k, w), la.filters.word(k, w))
              << "filter " << k << " word " << w;
        }
      }
    } else if (la.kind == graph::LayerKind::kFc) {
      ASSERT_EQ(lb.fc_weights.rows(), la.fc_weights.rows());
      ASSERT_EQ(lb.fc_weights.cols(), la.fc_weights.cols());
      for (std::int64_t r = 0; r < la.fc_weights.rows(); ++r) {
        for (std::int64_t w = 0; w < la.fc_weights.words_per_row(); ++w) {
          ASSERT_EQ(lb.fc_weights.word(r, w), la.fc_weights.word(r, w))
              << "row " << r << " word " << w;
        }
      }
    } else {
      EXPECT_EQ(lb.pool.pool_h, la.pool.pool_h);
      EXPECT_EQ(lb.pool.stride, la.pool.stride);
    }
  }
}

TEST(ModelIo, LoadedModelInfersIdentically) {
  const Model a = make_test_model();
  std::stringstream ss;
  a.save(ss);
  const Model b = Model::load(ss);
  graph::BinaryNetwork na = a.instantiate(graph::NetworkConfig{});
  graph::BinaryNetwork nb = b.instantiate(graph::NetworkConfig{});
  Tensor input = Tensor::hwc(12, 12, 16);
  fill_uniform(input, 7);
  const auto sa = na.infer(input);
  const auto sb = nb.infer(input);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bitflow_io_test.bflow").string();
  const Model a = make_test_model();
  a.save(path);
  const Model b = Model::load(path);
  EXPECT_EQ(b.num_layers(), a.num_layers());
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
  EXPECT_THROW((void)Model::load(path), std::runtime_error);  // gone
}

TEST(ModelIo, TrainedModelSurvivesTheFullPipeline) {
  // train -> export_to_model -> save -> load -> instantiate: predictions
  // must match the directly exported engine on every sample.
  const data::Dataset ds = data::make_synth_digits(160, data::Difficulty::kEasy, 80, 12);
  train::SmallVggOptions opt;
  opt.width = 8;
  opt.num_blocks = 1;
  opt.fc_width = 32;
  train::Sequential trained = train::make_binary_cnn(train::Dims{12, 12, 1}, 10, opt, 5);
  train::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  train::train_classifier(trained, ds, cfg);

  const Model exported = train::export_to_model(trained);
  std::stringstream ss;
  exported.save(ss);
  const Model loaded = Model::load(ss);

  graph::BinaryNetwork direct = train::export_to_engine(trained, graph::NetworkConfig{});
  graph::BinaryNetwork via_file = loaded.instantiate(graph::NetworkConfig{});
  for (std::size_t i = 0; i < 32; ++i) {
    const auto sa = direct.infer(ds.images[i]);
    const auto sb = via_file.infer(ds.images[i]);
    for (std::size_t j = 0; j < sa.size(); ++j) {
      ASSERT_EQ(sa[j], sb[j]) << "sample " << i << " logit " << j;
    }
  }
  // 1 bit per weight on disk (plus headers).
  EXPECT_GT(exported.weight_bytes(), 0);
}

// --- the two routes into Model::load -------------------------------------------

/// load(istream), read straight through (the serial route), and load(path)
/// on a regular file (the fan-out).
enum class Route { kStream, kPath };
constexpr Route kRoutes[] = {Route::kStream, Route::kPath};

const char* route_name(Route route) { return route == Route::kStream ? "stream" : "path"; }

/// This process's model file for the path route, removed at exit.
const std::string& model_path() {
  struct File {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("bitflow_io_test." + std::to_string(::getpid()) + ".bflow"))
                           .string();
    ~File() { std::filesystem::remove(path); }
  };
  static const File file;
  return file.path;
}

/// Makes model_path() hold `bytes`, writing only when it holds others.  Two
/// threads may call it at once only with the bytes it already holds.
void write_model_file(const std::string& bytes) {
  static std::string written;
  if (written == bytes && std::filesystem::exists(model_path())) return;
  std::ofstream out(model_path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  ASSERT_TRUE(out) << "cannot write " << model_path();
  written = bytes;
}

/// Loads `bytes` through `route`.
Model load_via(Route route, const std::string& bytes) {
  if (route == Route::kStream) {
    std::stringstream in(bytes);
    return Model::load(in);
  }
  write_model_file(bytes);
  return Model::load(model_path());
}

/// The bytes `m` saves to.
std::string saved(const Model& m) {
  std::stringstream ss;
  m.save(ss);
  return ss.str();
}

TEST(ModelIo, RejectsMalformedStreams) {
  const std::string full = saved(make_test_model());
  std::string wrong_version = full;
  wrong_version[4] = 99;  // version field
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    // Bad magic.
    EXPECT_THROW((void)load_via(route, "NOPE garbage"), std::runtime_error);
    // Truncated: valid prefix, missing weights.
    EXPECT_THROW((void)load_via(route, full.substr(0, full.size() / 2)), std::runtime_error);
    // Wrong version.
    EXPECT_THROW((void)load_via(route, wrong_version), std::runtime_error);
    // Empty stream.
    EXPECT_THROW((void)load_via(route, ""), std::runtime_error);
  }
}

TEST(ModelIo, ThresholdSizeValidation) {
  Model m(graph::TensorDesc{4, 4, 8});
  FilterBank f = models::random_filters(4, 3, 3, 8, 1);
  EXPECT_THROW(m.add_conv("c", bitpack::pack_filters(f), 1, 1, std::vector<float>(3)),
               std::invalid_argument);
  PackedMatrix w(4, 16);
  EXPECT_THROW(m.add_fc("f", std::move(w), std::vector<float>(5)), std::invalid_argument);
}

TEST(ModelIo, VggScaleModelFileSize) {
  // A reduced VGG: verify the ~32x storage story at the file level.
  io::Model m(graph::TensorDesc{32, 32, 64});
  std::int64_t float_bytes = 0;
  std::int64_t c = 64;
  for (std::int64_t k : {64, 128, 128}) {
    FilterBank f = models::random_filters(k, 3, 3, c, static_cast<std::uint64_t>(k));
    float_bytes += f.num_elements() * 4;
    std::string layer_name = "c";  // (split concat: GCC 12 -Wrestrict false positive)
    layer_name += std::to_string(k);
    m.add_conv(std::move(layer_name), bitpack::pack_filters(f), 1, 1);
    c = k;
  }
  std::stringstream ss;
  m.save(ss);
  const auto file_size = static_cast<std::int64_t>(ss.str().size());
  EXPECT_LT(file_size, float_bytes / 30) << "file must be ~32x smaller than float weights";
  EXPECT_GT(file_size, float_bytes / 34);
}

// --- pinned v1 bytes ---------------------------------------------------------

/// conv -> conv -> pool -> fc in which every binary layer has K mod T != 0
/// at both tile widths (K = 11, 13, 10) and the later layers have channel
/// tails (C = 11, N = 52): save() must de-interleave the tiles, drop the
/// last tile's pad rows and write the padded last words unchanged.
Model make_tail_model() {
  Model m(graph::TensorDesc{4, 4, 256});
  PackedFilterBank c1(11, 3, 3, 256);
  fill_random_bits(c1, 1301);
  std::vector<float> th(11);
  for (std::size_t i = 0; i < th.size(); ++i) th[i] = static_cast<float>(i) - 5.5f;
  m.add_conv("c1", std::move(c1), 1, 1, th);
  PackedFilterBank c2(13, 3, 3, 11);
  fill_random_bits(c2, 1302);
  m.add_conv("c2", std::move(c2), 1, 1);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  PackedMatrix f1(10, 2 * 2 * 13);
  fill_random_bits(f1, 1303);
  m.add_fc("f1", std::move(f1));
  return m;
}

TEST(ModelIo, SaveWritesPinnedFilterMajorBytes) {
  const Model m = make_tail_model();
  for (const LayerRecord& r : m.layers()) {
    // Every binary bank is interleaved in memory.
    const std::int64_t tile = r.kind == graph::LayerKind::kConv ? r.filters.tile()
                              : r.kind == graph::LayerKind::kFc ? r.fc_weights.tile()
                                                                 : 1;
    EXPECT_GT(tile, 0) << r.name;
  }
  std::stringstream ss;
  m.save(ss);
  const std::string bytes = ss.str();
  // The v1 format stores every bank filter-major; a writer that skipped
  // or botched the de-interleave would change these bytes.
  EXPECT_EQ(bytes.size(), 4431u);
  EXPECT_EQ(telemetry::fnv1a64(bytes.data(), bytes.size()), 0x70cc82660364b63full);
  std::stringstream again;
  Model::load(ss).save(again);
  EXPECT_EQ(again.str(), bytes) << "load -> save must reproduce the bytes";
}

// --- padding bits ------------------------------------------------------------

/// `m` saved, with bit `bit` set in packed word `word` of its last layer,
/// whose `words` weight words end the stream.
std::string saved_with_weight_bit(const Model& m, std::int64_t words, std::int64_t word,
                                  int bit) {
  std::stringstream ss;
  m.save(ss);
  std::string bytes = ss.str();
  const std::size_t at = bytes.size() - static_cast<std::size_t>((words - word) * 8) +
                         static_cast<std::size_t>(bit / 8);
  bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) | (1u << (bit % 8)));
  return bytes;
}

void expect_rejected_naming(const std::string& bytes, const std::string& layer) {
  std::stringstream in(bytes);
  try {
    (void)Model::load(in);
    FAIL() << "a set padding bit loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + layer + "'"), std::string::npos) << e.what();
  }
}

TEST(ModelPadding, ConvTapTailBitIsRejected) {
  // C = 70: the second word of every tap holds channels 64..69, bits 6..63
  // are padding.
  Model m(graph::TensorDesc{4, 4, 70});
  PackedFilterBank f(5, 3, 3, 70);
  fill_random_bits(f, 7);
  m.add_conv("tail_conv", std::move(f), 1, 1);
  const std::int64_t words = 5 * 3 * 3 * 2;
  expect_rejected_naming(saved_with_weight_bit(m, words, 1, 63), "tail_conv");
  expect_rejected_naming(saved_with_weight_bit(m, words, words - 1, 6), "tail_conv");
  std::stringstream channel_69(saved_with_weight_bit(m, words, 1, 5));
  EXPECT_NO_THROW((void)Model::load(channel_69));
  // A bank handed over in memory goes through the same check.
  PackedFilterBank bad(5, 3, 3, 70);
  bad.tap(4, 2, 1)[1] |= std::uint64_t{1} << 40;
  EXPECT_THROW(m.add_conv("tail_conv_2", std::move(bad), 1, 1), std::runtime_error);
  // K = 3 fills one tile in part: its short block gets the same check.
  Model tiny(graph::TensorDesc{4, 4, 70});
  PackedFilterBank f3(3, 3, 3, 70);
  fill_random_bits(f3, 9);
  tiny.add_conv("tiny_conv", std::move(f3), 1, 1);
  const std::int64_t words3 = 3 * 3 * 3 * 2;
  expect_rejected_naming(saved_with_weight_bit(tiny, words3, words3 - 1, 6), "tiny_conv");
  std::stringstream tiny_ok(saved_with_weight_bit(tiny, words3, words3 - 1, 5));
  EXPECT_NO_THROW((void)Model::load(tiny_ok));
}

TEST(ModelPadding, FcRowTailBitIsRejected) {
  // n = 70 with bit 63 of row 0's last word set: the kernels do not mask
  // weight tails, so such a file would load and shift score 0 by 2.
  Model m(graph::TensorDesc{1, 1, 70});
  PackedMatrix w(10, 70);
  fill_random_bits(w, 8);
  m.add_fc("tail_fc", std::move(w));
  const std::int64_t words = 10 * 2;
  expect_rejected_naming(saved_with_weight_bit(m, words, 1, 63), "tail_fc");
  expect_rejected_naming(saved_with_weight_bit(m, words, words - 1, 6), "tail_fc");
  std::stringstream neuron_69(saved_with_weight_bit(m, words, 1, 5));
  EXPECT_NO_THROW((void)Model::load(neuron_69));
  PackedMatrix bad(10, 70);
  bad.row(0)[1] |= std::uint64_t{1} << 63;
  EXPECT_THROW(m.add_fc("tail_fc_2", std::move(bad)), std::runtime_error);
}

// --- weights shared between a Model and its networks -------------------------

/// conv(3x3, pad 1, K) -> pool -> fc(K) -> fc(10) over a 6x6xC input, from
/// float weights so that the src/baseline engine can score it on its own.
struct SharedChain {
  std::int64_t c, k;
  FilterBank conv;
  std::vector<float> conv_th, fc1, fc1_th, fc2;

  SharedChain(std::int64_t channels, std::int64_t filters, std::uint64_t seed = 90)
      : c(channels),
        k(filters),
        conv(models::random_filters(filters, 3, 3, channels, seed)),
        conv_th(thresholds(filters, seed + 1)),
        fc1(models::random_fc_weights(9 * filters, filters, seed + 2)),
        fc1_th(thresholds(filters, seed + 3)),
        fc2(models::random_fc_weights(filters, 10, seed + 4)) {}

  static std::vector<float> thresholds(std::int64_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
    std::vector<float> th(static_cast<std::size_t>(n));
    for (float& t : th) t = dist(rng);
    return th;
  }

  /// Built, saved and loaded again: the banks come from Model::load.
  [[nodiscard]] Model loaded_model() const {
    Model m(graph::TensorDesc{6, 6, c});
    m.add_conv("c1", bitpack::pack_filters(conv), 1, 1, conv_th);
    m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
    m.add_fc("f1", bitpack::pack_transpose_fc_weights(fc1.data(), 9 * k, k), fc1_th);
    m.add_fc("f2", bitpack::pack_transpose_fc_weights(fc2.data(), k, 10));
    std::stringstream ss;
    m.save(ss);
    return Model::load(ss);
  }

  [[nodiscard]] Tensor input(std::uint64_t seed) const {
    Tensor t = Tensor::hwc(6, 6, c);
    fill_uniform(t, seed);
    return t;
  }

  /// The chain through the unoptimized engine (im2col + scalar words).
  [[nodiscard]] std::vector<float> baseline_scores(const Tensor& x) const {
    runtime::ThreadPool pool(1);
    Tensor act = Tensor::hwc(6, 6, k);
    baseline::UnoptBinaryConv(conv, kernels::ConvSpec{3, 3, 1})
        .run(baseline::pad_float(x, 1, -1.0f), pool, act);  // -1 = zero-bit padding
    for (std::int64_t i = 0; i < act.num_elements(); ++i) {
      act.data()[i] = act.data()[i] >= conv_th[static_cast<std::size_t>(i % k)] ? 1.0f : -1.0f;
    }
    PackedTensor pooled(3, 3, k);
    baseline::unopt_binary_maxpool(bitpack::pack_activations(act), kernels::PoolSpec{2, 2, 2},
                                   pool, pooled);
    const Tensor flat = bitpack::unpack_to_signs(pooled);
    std::vector<float> hidden(static_cast<std::size_t>(k)), scores(10);
    baseline::UnoptBinaryFc(fc1.data(), 9 * k, k).run(flat.data(), pool, hidden.data());
    for (std::size_t i = 0; i < hidden.size(); ++i) {
      hidden[i] = hidden[i] >= fc1_th[i] ? 1.0f : -1.0f;
    }
    baseline::UnoptBinaryFc(fc2.data(), k, 10).run(hidden.data(), pool, scores.data());
    return scores;
  }
};

/// The register-tile width of the plan under `cap` (none: the default plan
/// lowering and finalize() both commit).
std::int64_t default_tile_for(std::optional<simd::IsaLevel> cap = std::nullopt) {
  return kernels::weight_tile_width(graph::default_kernel_plan(simd::cpu_features(), cap).isa);
}

/// One chain per C in {96 (channel tail), 256} and K in {T-1, T, 2T+3} at
/// the default width T, plus C in {3, 64} (VGG's first two fan-ins) with K
/// in {15, 16, 17} around T = 16.
std::vector<SharedChain> shared_chains() {
  std::vector<SharedChain> chains;
  for (const std::int64_t c : {96, 256}) {
    const std::int64_t t = default_tile_for();
    for (const std::int64_t k : {t - 1, t, 2 * t + 3}) chains.emplace_back(c, k);
  }
  for (const std::int64_t c : {3, 64}) {
    for (const std::int64_t k : {15, 16, 17}) chains.emplace_back(c, k);
  }
  return chains;
}

std::vector<float> scores_of(const graph::BinaryNetwork& net, const Tensor& x,
                             int threads = 1) {
  graph::InferenceContext ctx = net.make_context(1, threads);
  const Tensor* one = &x;
  const auto s = net.infer_batch({&one, 1}, ctx);
  return {s.begin(), s.end()};
}

/// Every AlignedBuffer allocation throws std::bad_alloc while in scope.
class AllocationsFail {
 public:
  AllocationsFail() {
    failpoint::arm("alloc.buffer", failpoint::Config{failpoint::Action::kBadAlloc,
                                                     failpoint::Trigger::kAlways});
  }
  ~AllocationsFail() { failpoint::disarm("alloc.buffer"); }
  AllocationsFail(const AllocationsFail&) = delete;
  AllocationsFail& operator=(const AllocationsFail&) = delete;
};

TEST(ModelSharing, InstantiateAllocatesNoWeightStorage) {
  for (const SharedChain& chain : shared_chains()) {
    SCOPED_TRACE("C=" + std::to_string(chain.c) + " K=" + std::to_string(chain.k));
    const Model model = chain.loaded_model();
    std::optional<graph::BinaryNetwork> a, b;
    {
      // Every layer takes its default plan, so both networks adopt the
      // Model's banks and allocate no weight storage at all.
      const AllocationsFail no_alloc;
      a.emplace(model.instantiate(graph::NetworkConfig{}));
      b.emplace(model.instantiate(graph::NetworkConfig{}));
      // An ISA cap that keeps the tile width (AVX2 on an AVX-512 host) still
      // shares the banks.  One that changes it (T 16 -> 4 at u64/SSE on AVX2
      // and AVX-512 hosts) needs a private copy: the allocation that fails
      // here is that copy.
      for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
        graph::NetworkConfig capped;
        capped.max_isa = isa;
        if (default_tile_for(isa) == default_tile_for()) {
          EXPECT_NO_THROW((void)model.instantiate(capped)) << simd::isa_name(isa);
        } else {
          EXPECT_THROW((void)model.instantiate(capped), std::bad_alloc) << simd::isa_name(isa);
        }
      }
    }
    for (const std::uint64_t seed : {5u, 6u}) {
      const Tensor x = chain.input(seed);
      const std::vector<float> want = chain.baseline_scores(x);
      EXPECT_EQ(scores_of(*a, x), want) << "seed " << seed;
      EXPECT_EQ(scores_of(*b, x), want) << "seed " << seed;
    }
  }
}

TEST(ModelSharing, EveryPlanIsBitExactAgainstTheBaseline) {
  std::vector<graph::NetworkConfig> plans(1);
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    plans.emplace_back().max_isa = isa;
  }
  for (const SharedChain& chain : shared_chains()) {
    const Model model = chain.loaded_model();
    const Tensor x = chain.input(7);
    const std::vector<float> want = chain.baseline_scores(x);
    for (std::size_t p = 0; p < plans.size(); ++p) {
      EXPECT_EQ(scores_of(model.instantiate(plans[p]), x), want)
          << "C=" << chain.c << " K=" << chain.k << " plan " << p;
    }
  }
}

TEST(ModelSharing, NetworksOutliveTheModelAndRunConcurrently) {
  const SharedChain chain(96, 2 * default_tile_for() + 3);
  std::optional<graph::BinaryNetwork> one_thread, three_threads;
  {
    const Model model = chain.loaded_model();
    graph::NetworkConfig cfg;
    one_thread.emplace(model.instantiate(cfg));
    cfg.num_threads = 3;
    three_threads.emplace(model.instantiate(cfg));
  }  // the Model and its handles on the banks are gone
  std::vector<Tensor> inputs;
  std::vector<std::vector<float>> want;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    inputs.push_back(chain.input(seed));
    want.push_back(chain.baseline_scores(inputs.back()));
  }
  const auto run = [&](const graph::BinaryNetwork& net, std::vector<int>& mismatches) {
    graph::InferenceContext ctx = net.make_context(1);
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Tensor* x = &inputs[i];
        const auto s = net.infer_batch({&x, 1}, ctx);
        if (!std::equal(s.begin(), s.end(), want[i].begin(), want[i].end())) {
          mismatches.push_back(round);
        }
      }
    }
  };
  std::vector<int> bad_one, bad_three;
  std::thread t1([&] { run(*one_thread, bad_one); });
  std::thread t3([&] { run(*three_threads, bad_three); });
  t1.join();
  t3.join();
  EXPECT_TRUE(bad_one.empty());
  EXPECT_TRUE(bad_three.empty());
}

// --- load-budget hardening ---------------------------------------------------

/// Little-endian append of a trivially copyable value (matches write_pod in
/// model.cpp on the x86 targets this test runs on).
template <typename T>
void put_pod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Header + one conv-layer prefix whose declared extents demand `k * kh *
/// kw * ceil(c/64) * 8` weight bytes.  Stops right before the thresholds:
/// the budget must reject the layer before any payload is read or allocated.
std::string conv_header(std::int64_t k, std::int64_t kh, std::int64_t kw, std::int64_t c) {
  std::string out = "BFLW";
  put_pod<std::uint32_t>(out, 1);  // version
  put_pod<std::int64_t>(out, 8);   // input h
  put_pod<std::int64_t>(out, 8);   // input w
  put_pod<std::int64_t>(out, 8);   // input c
  put_pod<std::uint32_t>(out, 1);  // layer count
  put_pod<std::uint8_t>(out, 0);   // kind: conv
  put_pod<std::uint32_t>(out, 1);  // name length
  out += 'x';
  put_pod<std::int64_t>(out, k);
  put_pod<std::int64_t>(out, kh);
  put_pod<std::int64_t>(out, kw);
  put_pod<std::int64_t>(out, c);
  put_pod<std::int64_t>(out, 1);  // stride
  put_pod<std::int64_t>(out, 0);  // pad
  return out;
}

/// Restores the process-wide load budget even if an assertion fails.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::int64_t bytes) : saved_(model_load_budget_bytes()) {
    set_model_load_budget_bytes(bytes);
  }
  ~BudgetGuard() { set_model_load_budget_bytes(saved_); }
  BudgetGuard(const BudgetGuard&) = delete;
  BudgetGuard& operator=(const BudgetGuard&) = delete;

 private:
  std::int64_t saved_;
};

TEST(ModelLoadBudget, GiganticDeclaredPayloadIsRejectedBeforeAllocation) {
  // Every extent individually passes its per-dimension cap, but the product
  // demands ~2^57 bytes of weights — the checked budget must reject it up
  // front (a naive loader would attempt a petabyte allocation here).
  const std::string bytes = conv_header(1 << 24, 64, 64, 1 << 24);
  for (const Route route : kRoutes) {
    try {
      (void)load_via(route, bytes);
      FAIL() << "expected the load budget to reject the layer (" << route_name(route) << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("load budget"), std::string::npos) << e.what();
    }
  }
}

TEST(ModelLoadBudget, ChargesAccumulateAcrossLayers) {
  // Two layers, each under the budget alone but over it together.
  const BudgetGuard guard(std::int64_t{1} << 20);  // 1 MiB
  std::string bytes = "BFLW";
  put_pod<std::uint32_t>(bytes, 1);
  put_pod<std::int64_t>(bytes, 8);
  put_pod<std::int64_t>(bytes, 8);
  put_pod<std::int64_t>(bytes, 64);
  put_pod<std::uint32_t>(bytes, 2);  // two conv layers
  for (int i = 0; i < 2; ++i) {
    put_pod<std::uint8_t>(bytes, 0);
    put_pod<std::uint32_t>(bytes, 1);
    bytes += static_cast<char>('a' + i);
    put_pod<std::int64_t>(bytes, 1024);  // k: 1024 * 3*3*1 words * 8 = 72 KiB... per layer
    put_pod<std::int64_t>(bytes, 3);
    put_pod<std::int64_t>(bytes, 3);
    put_pod<std::int64_t>(bytes, 64);
    put_pod<std::int64_t>(bytes, 1);
    put_pod<std::int64_t>(bytes, 1);
    // thresholds flag + 1024 floats + weights for layer 0 so the loader
    // reaches layer 1's charge; all zeros is fine.
    put_pod<std::uint8_t>(bytes, 1);
    bytes.append(1024 * 4, '\0');
    bytes.append(static_cast<std::size_t>(1024) * 3 * 3 * 8, '\0');
  }
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    {
      // Each layer charges 72 KiB weights + 4 KiB thresholds; with a 100 KiB
      // budget the second layer must push it over.
      const BudgetGuard tight(100 * 1024);
      EXPECT_THROW((void)load_via(route, bytes), std::runtime_error);
    }
    // With the 1 MiB guard budget alone it loads fine.
    EXPECT_EQ(load_via(route, bytes).num_layers(), 2u);
  }
}

TEST(ModelLoadBudget, BudgetIsAdjustableAndValidated) {
  EXPECT_EQ(model_load_budget_bytes(), kDefaultModelLoadBudgetBytes);
  EXPECT_THROW(set_model_load_budget_bytes(0), std::invalid_argument);
  EXPECT_THROW(set_model_load_budget_bytes(-5), std::invalid_argument);

  // A model that loads under the default budget fails under a 64-byte one.
  const Model a = make_test_model();
  const std::string bytes = saved(a);
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    {
      const BudgetGuard guard(64);
      try {
        (void)load_via(route, bytes);
        FAIL() << "expected budget rejection";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("load budget"), std::string::npos) << e.what();
      }
    }
    // Guard restored the default: the same bytes load again.
    EXPECT_EQ(load_via(route, bytes).num_layers(), a.num_layers());
  }
}

TEST(ModelLoadBudget, PaddedBankIsChargedBeforeAllocation) {
  // A K = 1 fc: the file holds one 8000-byte row, the bank in memory one
  // whole tile of T rows.  Under a budget the file's bytes fit and the
  // padded bank's do not, the load is rejected before anything is allocated
  // (every allocation throws std::bad_alloc here).
  constexpr std::int64_t kN = 64 * 1000, kRowBytes = kN / 8;
  const std::int64_t t = default_tile_for();
  Model m(graph::TensorDesc{1, 1, kN});
  PackedMatrix w(1, kN);
  fill_random_bits(w, 1401);
  m.add_fc("one", std::move(w));
  const std::string bytes = saved(m);
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    write_model_file(bytes);  // before allocations fail
    {
      const BudgetGuard guard(t * kRowBytes - 1);
      ASSERT_GT(t * kRowBytes - 1, kRowBytes + 4) << "the file's bytes must fit the budget";
      const AllocationsFail no_alloc;
      try {
        (void)load_via(route, bytes);
        FAIL() << "a padded bank past the load budget loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("load budget at fc weights"), std::string::npos)
            << e.what();
      }
    }
    // The padded bank plus its thresholds' charge fit exactly: it loads.
    const BudgetGuard exact(t * kRowBytes + 4);
    EXPECT_EQ(load_via(route, bytes).num_layers(), 1u);
  }
}

// --- streamed, fanned-out load -------------------------------------------------

/// CPUs in this process's affinity mask: the loader's cap on load workers.
std::int64_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
}

/// Tasks run by every runtime::ThreadPool in the process so far: a load
/// that fans out runs one per load worker, an inline one none.
std::uint64_t pool_tasks() {
  return telemetry::registry().counter("runtime.pool.tasks").value();
}

/// Threads in this process: the entries of /proc/self/task.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// process_threads() once it has fallen to `expected`, or after a second:
/// a thread's /proc entry can outlive its join by a moment, while a thread
/// still running never leaves.
std::size_t settled_threads(std::size_t expected) {
  std::size_t n = process_threads();
  for (int i = 0; i < 200 && n > expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = process_threads();
  }
  return n;
}

/// Appends a binary conv layer (no thresholds) in the v1 format, straight
/// from its filter-major words — padding bits and all.
void put_conv(std::string& out, const std::string& name, const PackedFilterBank& f) {
  put_pod<std::uint8_t>(out, 0);
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
  out += name;
  for (const std::int64_t v :
       {f.num_filters(), f.kernel_h(), f.kernel_w(), f.channels(), std::int64_t{1},
        std::int64_t{1}}) {  // ..., stride 1, pad 1
    put_pod<std::int64_t>(out, v);
  }
  put_pod<std::uint8_t>(out, 0);
  out.append(reinterpret_cast<const char*>(f.words()),
             static_cast<std::size_t>(f.num_filters() * f.words_per_filter() * 8));
}

/// put_conv for a binary fc layer; returns the offset of its first word.
std::size_t put_fc(std::string& out, const std::string& name, const PackedMatrix& m) {
  put_pod<std::uint8_t>(out, 2);
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
  out += name;
  put_pod<std::int64_t>(out, m.rows());
  put_pod<std::int64_t>(out, m.cols());
  put_pod<std::uint8_t>(out, 0);
  const std::size_t at = out.size();
  out.append(reinterpret_cast<const char*>(m.words()),
             static_cast<std::size_t>(m.num_words() * 8));
  return at;
}

/// A model whose two big banks fan out on any host with >= 2 CPUs, over a
/// 1x1x1000 input, every conv 3x3 with pad 1.  Every bank has K mod T != 0
/// at both tile widths, so each ends in a short block of pad rows:
///   k3    K = 3 (one tile, in part), C = 1000 (C mod 64 = 40);
///   small K = 21, C = 3: inline;
///   wide  K = 29199 (mod 16 = 15), C = 21: 2,102,328 bytes, 2 workers;
///   fc    K = 581 (mod 16 = 5), N = 29199 (mod 64 = 15): 2,124,136 bytes,
///         2 workers, 16 rows per chunk at every tile width.
struct StreamModel {
  static constexpr std::int64_t kWideK = 29199, kFcRows = 581;
  PackedFilterBank k3{3, 3, 3, 1000}, small{21, 3, 3, 3}, wide{kWideK, 3, 3, 21};
  PackedMatrix fc{kFcRows, kWideK};

  StreamModel() {
    fill_random_bits(k3, 1501);
    fill_random_bits(small, 1502);
    fill_random_bits(wide, 1503);
    fill_random_bits(fc, 1504);
  }

  /// The model file in the network's layer order, or with fc ahead of wide
  /// (a file Model::load reads but instantiate() rejects); `fc_at` receives
  /// the offset of the fc bank's first word.
  [[nodiscard]] std::string bytes(bool fc_before_wide = false,
                                  std::size_t* fc_at = nullptr) const {
    std::string out = "BFLW";
    put_pod<std::uint32_t>(out, 1);
    for (const std::int64_t v : {1, 1, 1000}) put_pod<std::int64_t>(out, v);
    put_pod<std::uint32_t>(out, 4);
    put_conv(out, "k3", k3);
    put_conv(out, "small", small);
    std::size_t at = 0;
    if (fc_before_wide) at = put_fc(out, "fc", fc);
    put_conv(out, "wide", wide);
    if (!fc_before_wide) at = put_fc(out, "fc", fc);
    if (fc_at != nullptr) *fc_at = at;
    return out;
  }

  /// Bytes of bank words in the file: what sizes a path load's fan-out.
  [[nodiscard]] std::int64_t bank_bytes() const {
    return (k3.num_filters() * k3.words_per_filter() +
            small.num_filters() * small.words_per_filter() +
            wide.num_filters() * wide.words_per_filter() + fc.num_words()) *
           8;
  }

  /// Rows per chunk of the fc bank: whole tile blocks of ~kStreamChunkBytes.
  [[nodiscard]] static std::int64_t fc_chunk_rows() {
    const std::int64_t t = default_tile_for();
    const std::int64_t block = t * words_for_channels(kWideK) * 8;
    return std::max<std::int64_t>(1, graph::kStreamChunkBytes / block) * t;
  }

  /// The network through src/baseline's engine.  Banks are expanded to
  /// floats a block of outputs at a time, so the oracle never holds a whole
  /// 2 MiB bank as floats.
  [[nodiscard]] std::vector<float> baseline_scores(const Tensor& x) const {
    std::vector<float> act(x.data(), x.data() + x.num_elements());
    for (const PackedFilterBank* f : {&k3, &small, &wide}) {
      act = conv_signs(*f, act);
    }
    return fc_dots(act);
  }

 private:
  /// sign(conv) of a 1x1xC activation under a 3x3, pad-1 bank.
  static std::vector<float> conv_signs(const PackedFilterBank& f, const std::vector<float>& in) {
    runtime::ThreadPool pool(1);
    Tensor x = Tensor::hwc(1, 1, f.channels());
    std::copy(in.begin(), in.end(), x.data());
    const Tensor padded = baseline::pad_float(x, 1, -1.0f);  // -1 = zero-bit padding
    std::vector<float> out;
    constexpr std::int64_t kBlock = 1024;
    for (std::int64_t k0 = 0; k0 < f.num_filters(); k0 += kBlock) {
      const std::int64_t kb = std::min(kBlock, f.num_filters() - k0);
      PackedFilterBank part(kb, 3, 3, f.channels());
      std::memcpy(part.words(), f.filter(k0),
                  static_cast<std::size_t>(kb * f.words_per_filter() * 8));
      Tensor dots = Tensor::hwc(1, 1, kb);
      baseline::UnoptBinaryConv(bitpack::unpack_to_signs(part), kernels::ConvSpec{3, 3, 1})
          .run(padded, pool, dots);
      for (std::int64_t k = 0; k < kb; ++k) out.push_back(dots.data()[k] >= 0.0f ? 1.0f : -1.0f);
    }
    return out;
  }

  [[nodiscard]] std::vector<float> fc_dots(const std::vector<float>& in) const {
    runtime::ThreadPool pool(1);
    const std::int64_t n = fc.cols();
    std::vector<float> out;
    constexpr std::int64_t kBlock = 64;
    for (std::int64_t r0 = 0; r0 < fc.rows(); r0 += kBlock) {
      const std::int64_t kb = std::min(kBlock, fc.rows() - r0);
      std::vector<float> w(static_cast<std::size_t>(n * kb));  // n x kb, row-major
      for (std::int64_t j = 0; j < kb; ++j) {
        for (std::int64_t i = 0; i < n; ++i) {
          w[static_cast<std::size_t>(i * kb + j)] = fc.sign_value(r0 + j, i);
        }
      }
      std::vector<float> dots(static_cast<std::size_t>(kb));
      baseline::UnoptBinaryFc(w.data(), n, kb).run(in.data(), pool, dots.data());
      out.insert(out.end(), dots.begin(), dots.end());
    }
    return out;
  }
};

/// `loaded` holds exactly the bank lower_conv_weights makes of `f`: the same
/// layout and raw storage, pad rows included, and the same words through
/// word().
void expect_same_bank(const graph::ConvWeights& loaded, const PackedFilterBank& f) {
  const graph::ConvWeights lowered = graph::lower_conv_weights(PackedFilterBank(f), "copy");
  ASSERT_EQ(loaded.tile(), lowered.tile());
  ASSERT_EQ(loaded.num_words(), lowered.num_words());
  const TiledBitMatrix& rows = loaded.bank().rows();
  ASSERT_EQ(rows.num_words(), lowered.bank().rows().num_words());
  EXPECT_EQ(std::memcmp(rows.words(), lowered.bank().rows().words(),
                        static_cast<std::size_t>(rows.num_words() * 8)),
            0);
  for (std::int64_t k = 0; k < f.num_filters(); ++k) {
    for (std::int64_t w = 0; w < f.words_per_filter(); ++w) {
      ASSERT_EQ(loaded.word(k, w), f.filter(k)[w]) << "filter " << k << " word " << w;
    }
  }
}

/// expect_same_bank for an fc matrix and lower_fc_weights.
void expect_same_bank(const graph::FcWeights& loaded, const PackedMatrix& m) {
  const graph::FcWeights lowered = graph::lower_fc_weights(PackedMatrix(m), "copy");
  ASSERT_EQ(loaded.tile(), lowered.tile());
  ASSERT_EQ(loaded.num_words(), lowered.num_words());
  ASSERT_EQ(loaded.bank().num_words(), lowered.bank().num_words());
  EXPECT_EQ(std::memcmp(loaded.bank().words(), lowered.bank().words(),
                        static_cast<std::size_t>(loaded.bank().num_words() * 8)),
            0);
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t w = 0; w < m.words_per_row(); ++w) {
      ASSERT_EQ(loaded.word(r, w), m.row(r)[w]) << "row " << r << " word " << w;
    }
  }
}

void expect_same_banks(const Model& loaded, const StreamModel& sm) {
  ASSERT_EQ(loaded.num_layers(), 4u);
  expect_same_bank(loaded.layers()[0].filters, sm.k3);
  expect_same_bank(loaded.layers()[1].filters, sm.small);
  expect_same_bank(loaded.layers()[2].filters, sm.wide);
  expect_same_bank(loaded.layers()[3].fc_weights, sm.fc);
}

/// A read-only streambuf that cannot seek and refills at most 4093 bytes at
/// a time, so bank chunks straddle refills.
class OneWayBuf : public std::streambuf {
 public:
  explicit OneWayBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(4093, bytes_.size() - pos_);
    char* p = bytes_.data() + pos_;
    setg(p, p, p + n);
    pos_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

TEST(ModelStreamLoad, StreamedBanksAreTheLoweredBanks) {
  const StreamModel sm;
  const std::string file = sm.bytes();
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    const Model m = load_via(route, file + "tail");
    expect_same_banks(m, sm);
    EXPECT_TRUE(saved(m) == file) << "save() must reproduce the loaded bytes";
  }
  // The serial route leaves the stream right after the model.
  std::stringstream in(file + "tail");
  (void)Model::load(in);
  std::string rest;
  in >> rest;
  EXPECT_EQ(rest, "tail");
}

TEST(ModelStreamLoad, PathLoadRunsOneJobPerWorker) {
  // One fan-out for the whole file: one worker per kStreamBytesPerWorker of
  // its banks (four here), up to the CPUs, each running one pool job.
  const StreamModel sm;
  const std::string file = sm.bytes();
  write_model_file(file);
  const std::int64_t workers =
      std::min(affinity_cpus(), sm.bank_bytes() / graph::kStreamBytesPerWorker);
  ASSERT_EQ(sm.bank_bytes() / graph::kStreamBytesPerWorker, 4);
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation: let it happen here, so that only load workers count.
  std::thread([] {}).join();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::size_t threads = process_threads();
  std::uint64_t tasks = pool_tasks();
  const Model m = Model::load(model_path());
  EXPECT_EQ(pool_tasks() - tasks, workers >= 2 ? static_cast<std::uint64_t>(workers) : 0u);
  EXPECT_LE(settled_threads(threads), threads) << "a load worker outlived Model::load";
  expect_same_banks(m, sm);
  // The serial route runs no pool.
  tasks = pool_tasks();
  std::stringstream in(file);
  (void)Model::load(in);
  EXPECT_EQ(pool_tasks(), tasks);
}

TEST(ModelStreamLoad, SmallBanksLoadInline) {
  // A small file loads with no pool task on either route.
  const std::string bytes = saved(make_tail_model());
  for (const Route route : kRoutes) {
    write_model_file(bytes);
    const std::uint64_t tasks = pool_tasks();
    (void)load_via(route, bytes);
    EXPECT_EQ(pool_tasks(), tasks) << route_name(route);
  }
}

TEST(ModelStreamLoad, FifoPathLoadsThroughTheSerialRoute) {
  // A FIFO cannot be read at offsets: load(path) reads it straight through,
  // as a writer thread feeds it.
  const StreamModel sm;
  const std::string file = sm.bytes();
  const std::string fifo = model_path() + ".fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const auto old_sigpipe = std::signal(SIGPIPE, SIG_IGN);  // a failed load closes early
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_CLOEXEC);  // waits for the load
    if (fd < 0) return;
    for (std::size_t at = 0; at < file.size();) {
      const ssize_t n = ::write(fd, file.data() + at, file.size() - at);
      if (n <= 0) break;
      at += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  const std::uint64_t tasks = pool_tasks();
  std::optional<Model> m;
  try {
    m.emplace(Model::load(fifo));
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
    // Let a writer still waiting to open the FIFO through.
    const int fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd >= 0) ::close(fd);
  }
  writer.join();
  std::signal(SIGPIPE, old_sigpipe);
  std::filesystem::remove(fifo);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(pool_tasks(), tasks) << "a FIFO must take the serial route";
  expect_same_banks(*m, sm);
}

TEST(ModelStreamLoad, NonSeekableStreamLoadsIdentically) {
  const StreamModel sm;
  OneWayBuf buf(sm.bytes());
  std::istream in(&buf);
  EXPECT_EQ(in.tellg(), std::streampos(-1)) << "the test stream must not seek";
  const Model m = Model::load(in);
  expect_same_banks(m, sm);
  EXPECT_EQ(in.get(), std::char_traits<char>::eof());
}

TEST(ModelStreamLoad, InstantiateMatchesTheBaseline) {
  const StreamModel sm;
  const std::string file = sm.bytes();
  std::vector<Model> models;
  for (const Route route : kRoutes) models.push_back(load_via(route, file));
  for (const std::uint64_t seed : {31u, 32u}) {
    Tensor x = Tensor::hwc(1, 1, 1000);
    fill_uniform(x, seed);
    const std::vector<float> want = sm.baseline_scores(x);
    for (const int threads : {1, 3}) {
      graph::NetworkConfig cfg;
      cfg.num_threads = threads;
      for (std::size_t r = 0; r < models.size(); ++r) {
        EXPECT_EQ(scores_of(models[r].instantiate(cfg), x, threads), want)
            << route_name(kRoutes[r]) << ", " << threads << " threads, seed " << seed;
      }
    }
  }
}

TEST(ModelStreamLoad, TwoLoadsRunAtOnce) {
  const StreamModel sm;
  const std::string file = sm.bytes();
  for (const Route route : kRoutes) {
    SCOPED_TRACE(route_name(route));
    write_model_file(file);  // so that the two loads only read it
    std::optional<Model> a, b;
    std::thread ta([&] { a.emplace(load_via(route, file)); });
    std::thread tb([&] { b.emplace(load_via(route, file)); });
    ta.join();
    tb.join();
    ASSERT_TRUE(a && b);
    expect_same_banks(*a, sm);
    expect_same_banks(*b, sm);
  }
}

TEST(ModelStreamLoad, FirstFailingChunkInFileOrderIsReported) {
  // fc before wide in the file, with padding bits set in fc rows and in the
  // later conv.  In the first case the bad rows sit in the fc bank's 2nd,
  // 3rd and 5th chunks (the 2nd and 3rd are checked at once by two
  // workers); in the others, in its last chunk, whose last tile block the
  // file holds only in part (K mod T != 0).  Whichever worker checks first,
  // the error is the first bad chunk's in file order.
  const StreamModel sm;
  const std::int64_t chunk = StreamModel::fc_chunk_rows();
  const std::int64_t fc_words = words_for_channels(StreamModel::kWideK);
  const std::int64_t last_row = StreamModel::kFcRows - 1;  // in the short last block
  ASSERT_NE(StreamModel::kFcRows % default_tile_for(), 0);
  const std::vector<std::vector<std::int64_t>> cases = {
      {chunk + 3, 2 * chunk + 5, 4 * chunk + 7},
      {last_row},
      {2 * chunk + 5, last_row},
  };
  for (const std::vector<std::int64_t>& bad_rows : cases) {
    std::size_t fc_at = 0;
    std::string file = sm.bytes(/*fc_before_wide=*/true, &fc_at);
    for (const std::int64_t row : bad_rows) {
      file[fc_at + static_cast<std::size_t>((row + 1) * fc_words * 8 - 1)] |= '\x80';  // bit 63
    }
    // Bit 63 of filter 1000's first tap in wide (one word per tap, C = 21).
    const std::size_t wide_at =
        file.size() - static_cast<std::size_t>(StreamModel::kWideK * 9 * 8);
    file[wide_at + 1000 * 9 * 8 + 7] |= '\x80';
    const std::string want =
        "weights of layer 'fc': padding bits above N=29199 are set in row " +
        std::to_string(bad_rows[0]);
    for (const Route route : kRoutes) {
      for (int i = 0; i < 20; ++i) {
        try {
          (void)load_via(route, file);
          FAIL() << "a set padding bit loaded";
        } catch (const std::runtime_error& e) {
          ASSERT_EQ(std::string(e.what()), want) << route_name(route) << " load " << i;
        }
      }
    }
  }
}

TEST(ModelStreamLoad, TruncationInsideAFannedOutBankThrows) {
  // Cuts inside the fc bank, with the bank last in the file and with the
  // wide conv after it.  In the second file the path route's walk steps
  // over the short fc bank and fails at wide's header past the end of the
  // file; the fc chunk's short read comes first in file order and wins.
  const StreamModel sm;
  const std::size_t chunk_bytes = static_cast<std::size_t>(
      StreamModel::fc_chunk_rows() * words_for_channels(StreamModel::kWideK) * 8);
  for (const bool fc_before_wide : {false, true}) {
    std::size_t fc_at = 0;
    const std::string file = sm.bytes(fc_before_wide, &fc_at);
    const std::size_t fc_end =
        fc_at + static_cast<std::size_t>(sm.fc.num_words() * 8);
    for (const std::size_t cut : {fc_at + 100, fc_at + 17 * chunk_bytes + 5, fc_end - 8}) {
      ASSERT_LT(cut, fc_end);
      for (const Route route : kRoutes) {
        try {
          (void)load_via(route, file.substr(0, cut));
          FAIL() << "a load cut at byte " << cut << " of " << file.size() << " succeeded ("
                 << route_name(route) << ")";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "model load: truncated fc weights")
              << route_name(route) << ", cut at " << cut;
        }
      }
    }
  }
}

TEST(ModelStreamLoad, PaddedBanksSaveLoadSaveByteIdentically) {
  // K = 1, 10 and 1000 leave 15, 6 and 8 pad rows at T = 16 (3, 2 and 0 at
  // T = 4).  The pad rows exist only in memory: the file holds the K real
  // rows, a load equals the in-memory lowering, and saving it again
  // reproduces the file.
  for (const std::int64_t k : {1, 10, 1000}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    PackedFilterBank f(k, 3, 3, 70);
    fill_random_bits(f, 1700 + static_cast<std::uint64_t>(k));
    PackedMatrix w(k, 200);
    fill_random_bits(w, 1800 + static_cast<std::uint64_t>(k));
    Model m(graph::TensorDesc{4, 4, 70});
    m.add_conv("c", PackedFilterBank(f), 1, 1);
    m.add_fc("f", PackedMatrix(w));
    const std::string bytes = saved(m);
    for (const Route route : kRoutes) {
      SCOPED_TRACE(route_name(route));
      const Model loaded = load_via(route, bytes);
      expect_same_bank(loaded.layers()[0].filters, f);
      expect_same_bank(loaded.layers()[1].fc_weights, w);
      EXPECT_TRUE(saved(loaded) == bytes) << "load -> save must reproduce the bytes";
      EXPECT_EQ(loaded.weight_bytes(), (k * 9 * 2 + k * 4) * 8) << "the K real rows only";
    }
  }
}

// --- faults inside a fanned-out load ---------------------------------------------

/// The StreamModel saved to a per-process file, and the scores an engine
/// opened on it serves without faults.
class ModelStreamLoadFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    if (affinity_cpus() < 2) GTEST_SKIP() << "one CPU: the load does not fan out";
    failpoint::disarm_all();
    path_ = (std::filesystem::temp_directory_path() /
             ("bitflow_stream_faults." + std::to_string(::getpid()) + ".bflow"))
                .string();
    {
      std::ofstream out(path_, std::ios::binary);
      out << StreamModel().bytes();
    }
    input_ = Tensor::hwc(1, 1, 1000);
    fill_uniform(input_, 41);
    ref_ = serve_once();
    ASSERT_FALSE(ref_.empty());
  }

  void TearDown() override {
    failpoint::disarm_all();
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  static serve::EngineConfig cfg() {
    serve::EngineConfig c;
    c.net.num_threads = 2;
    return c;
  }

  /// Opens an engine and serves input_ once (empty on any failure).
  std::vector<float> serve_once() {
    auto opened = serve::Engine::open(path_, cfg());
    if (!opened.is_ok()) return {};
    auto scores = opened.value().infer(input_);
    return scores.is_ok() ? std::move(scores).value() : std::vector<float>{};
  }

  /// Arms `point` under each trigger, opens, and checks the result (`want`
  /// kOk: the open succeeds) and that the next clean open serves ref_.
  void expect_open(const char* point, failpoint::Action action, core::ErrorCode want) {
    using failpoint::Trigger;
    for (const Trigger trigger : {Trigger::kOnce, Trigger::kAlways}) {
      SCOPED_TRACE(std::string(point) + (trigger == Trigger::kOnce ? " once" : " always"));
      failpoint::arm(point, failpoint::Config{action, trigger, 1, 20});
      const auto opened = serve::Engine::open(path_, cfg());
      failpoint::disarm(point);
      EXPECT_EQ(opened.status().code(), want) << opened.status().to_string();
      EXPECT_EQ(serve_once(), ref_);
    }
  }

  std::string path_;
  Tensor input_;
  std::vector<float> ref_;
};

TEST_F(ModelStreamLoadFaults, AllocationFailureIsResourceExhausted) {
  expect_open("alloc.buffer", failpoint::Action::kBadAlloc, core::ErrorCode::kResourceExhausted);
}

TEST_F(ModelStreamLoadFaults, LoadWorkerFaultIsWorkerFailure) {
  expect_open("runtime.worker", failpoint::Action::kError, core::ErrorCode::kWorkerFailure);
}

TEST_F(ModelStreamLoadFaults, StalledLoadWorkerOnlySlowsTheOpen) {
  expect_open("runtime.worker_stall", failpoint::Action::kStall, core::ErrorCode::kOk);
}

}  // namespace
}  // namespace bitflow::io
