// Finalize-time auto-tuner (tune/tuner.hpp + graph integration): the search
// only ever picks *which* bit-exact kernel runs, so the pins here are
//   * parity: tuned and untuned networks agree bit-for-bit on every ISA
//     level the host supports;
//   * warm starts: a second finalize against the same cache file takes every
//     decision from disk (tune.cache_hit rises, zero new searches);
//   * staleness: a cached decision the live layer cannot execute is silently
//     re-searched, never committed;
//   * plumbing: $BITFLOW_TUNE_CACHE, LayerInfo provenance, profile_report
//     kernel strings, and a tuned engine behind ShardRouter hot reload.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "kernels/conv_spec.hpp"
#include "models/vgg.hpp"
#include "serve/shard_router.hpp"
#include "simd/parity.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/util.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"

namespace bitflow::tune {
namespace {

using graph::BinaryNetwork;
using graph::NetworkConfig;
using graph::TensorDesc;

std::string temp_cache_path(const std::string& tag) {
  return "bitflow_tune_test." + tag + "." + std::to_string(::getpid()) + ".bftc";
}

/// Removes the cache file (and a stray .tmp) even when an assertion bails out.
class CacheFileGuard {
 public:
  explicit CacheFileGuard(std::string path) : path_(std::move(path)) { wipe(); }
  ~CacheFileGuard() { wipe(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  void wipe() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

 private:
  std::string path_;
};

bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// conv(pad 1) -> pool(2x2) -> conv(pad 1) -> fc -> fc; same seeds every
/// call so two instantiations carry identical weights.
BinaryNetwork make_net(NetworkConfig cfg) {
  BinaryNetwork net(cfg);
  net.add_conv("c1", models::random_filters(64, 3, 3, 16, 1), 1, 1);
  net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  net.add_conv("c2", models::random_filters(32, 3, 3, 64, 2), 1, 1);
  net.add_fc("f1", models::random_fc_weights(8 * 8 * 32, 40, 3), 8 * 8 * 32, 40);
  net.add_fc("f2", models::random_fc_weights(40, 10, 4), 40, 10);
  net.finalize(TensorDesc{16, 16, 16});
  return net;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(16, 16, 16);
  fill_uniform(t, seed);
  return t;
}

std::vector<float> scores(BinaryNetwork& net, const Tensor& in) {
  const auto s = net.infer(in);
  return {s.begin(), s.end()};
}

std::uint64_t counter_value(const char* name) {
  return telemetry::registry().counter(name).value();
}

// --- unit: key / default decision / validation ------------------------------

LayerWorkload conv_workload(simd::IsaLevel isa, std::int64_t k = 64) {
  LayerWorkload wl;
  wl.kind = 0;
  wl.isa = isa;
  wl.in_h = 18;
  wl.in_w = 18;
  wl.c = 16;
  wl.k = k;
  wl.kh = 3;
  wl.kw = 3;
  wl.stride = 1;
  return wl;
}

TEST(TunerUnit, KeyForCapturesFullWorkloadIdentity) {
  const LayerWorkload wl = conv_workload(simd::IsaLevel::kAvx2);
  const Key key = key_for(wl);
  EXPECT_EQ(key.kind, 0);
  EXPECT_EQ(key.isa, static_cast<std::uint8_t>(simd::IsaLevel::kAvx2));
  EXPECT_EQ(key.threads, 1);
  EXPECT_EQ(key.in_h, 18);
  EXPECT_EQ(key.c, 16);
  EXPECT_EQ(key.k, 64);

  LayerWorkload other = wl;
  other.k = 32;
  EXPECT_FALSE(key_for(other) == key);
  EXPECT_TRUE(key_for(wl) == key);
}

TEST(TunerUnit, DefaultDecisionMirrorsStaticHeuristic) {
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    const std::int64_t t = kernels::weight_tile_width(isa);
    const Decision wide = default_decision(conv_workload(isa, /*k=*/64));
    EXPECT_EQ(wide.tile, t) << simd::isa_name(isa);
    EXPECT_EQ(wide.par_grain, 1);
    EXPECT_EQ(wide.source, DecisionSource::kDefault);

    // 4 <= K < T: the largest supported width K still fills.
    const kernels::TileWidthSet widths = kernels::supported_tile_widths(isa);
    for (std::int64_t k = 4; k < t; ++k) {
      std::int64_t largest = 0;
      for (std::int64_t i = 0; i < widths.count; ++i) {
        const std::int64_t w = widths.widths[static_cast<std::size_t>(i)];
        if (w <= k) largest = std::max(largest, w);
      }
      const Decision mid = default_decision(conv_workload(isa, k));
      EXPECT_EQ(mid.tile, largest) << simd::isa_name(isa) << " K=" << k;
    }
    // K < 4 (below every width): T = 4 with no full tile.
    for (std::int64_t k = 1; k < 4; ++k) {
      const Decision narrow = default_decision(conv_workload(isa, k));
      EXPECT_EQ(narrow.tile, 4) << simd::isa_name(isa) << " K=" << k;
    }
  }
}

TEST(TunerUnit, DecisionValidRejectsPlansTheLayerCannotRun) {
  const LayerWorkload wl = conv_workload(simd::IsaLevel::kU64, /*k=*/64);
  Decision d;
  d.tile = 16;  // no u64 T=16 kernel exists
  EXPECT_FALSE(decision_valid(d, wl));
  d.tile = 8;
  EXPECT_TRUE(decision_valid(d, wl));
  d.tile = 8;  // K = 6 cannot fill a tile of 8
  EXPECT_FALSE(decision_valid(d, conv_workload(simd::IsaLevel::kU64, 6)));
  d.tile = 0;  // no width 0 (schema 1's filter-major plan)
  EXPECT_FALSE(decision_valid(d, wl));
  d.tile = 4;  // K = 3 runs at T = 4 with no full tile
  EXPECT_TRUE(decision_valid(d, conv_workload(simd::IsaLevel::kU64, 3)));
  d.par_grain = 0;  // grains start at 1
  EXPECT_FALSE(decision_valid(d, wl));
  d.par_grain = 4;
  EXPECT_TRUE(decision_valid(d, wl));
}

// --- parity: tuned == untuned on every host ISA level -----------------------

TEST(TunerParity, TunedMatchesUntunedBitExactAcrossIsaLevels) {
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    SCOPED_TRACE(std::string("max_isa=") + std::string(simd::isa_name(isa)));
    const CacheFileGuard cache(temp_cache_path("parity"));
    NetworkConfig plain;
    plain.max_isa = isa;
    NetworkConfig tuned = plain;
    tuned.auto_tune = true;
    tuned.tune_cache_path = cache.path();

    BinaryNetwork a = make_net(plain);
    BinaryNetwork b = make_net(tuned);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Tensor in = make_input(seed);
      ASSERT_EQ(scores(a, in), scores(b, in)) << "seed " << seed;
    }
  }
}

TEST(TunerParity, WarmStartFromCacheIsAlsoBitExact) {
  const CacheFileGuard cache(temp_cache_path("warm_parity"));
  NetworkConfig tuned;
  tuned.auto_tune = true;
  tuned.tune_cache_path = cache.path();
  BinaryNetwork cold = make_net(tuned);   // populates the cache
  BinaryNetwork warm = make_net(tuned);   // decides from the cache
  BinaryNetwork plain = make_net({});
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Tensor in = make_input(seed);
    const std::vector<float> want = scores(plain, in);
    EXPECT_EQ(scores(cold, in), want) << "seed " << seed;
    EXPECT_EQ(scores(warm, in), want) << "seed " << seed;
  }
}

// --- cache behaviour through finalize ---------------------------------------

TEST(TunerCache, ColdFinalizeSearchesAndPersists) {
  const CacheFileGuard cache(temp_cache_path("cold"));
  const std::uint64_t searches0 = counter_value("tune.searches");
  const std::uint64_t miss0 = counter_value("tune.cache_miss");

  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  const BinaryNetwork net = make_net(cfg);

  // Four tunable layers (2 conv + 2 fc), each a distinct key: four misses,
  // four searches, and the winners land on disk.
  EXPECT_EQ(counter_value("tune.cache_miss") - miss0, 4u);
  EXPECT_EQ(counter_value("tune.searches") - searches0, 4u);
  EXPECT_TRUE(file_exists(cache.path()));
  TuneCache persisted;
  persisted.load(cache.path());
  EXPECT_EQ(persisted.size(), 4u);

  for (const auto& l : net.layers()) {
    if (l.kind == graph::LayerKind::kConv || l.kind == graph::LayerKind::kFc) {
      EXPECT_EQ(l.tune_source, "search") << l.name;
    } else {
      EXPECT_EQ(l.tune_source, "default") << l.name;
    }
  }
}

TEST(TunerCache, WarmFinalizeTakesEveryDecisionFromDiskWithoutSearching) {
  const CacheFileGuard cache(temp_cache_path("warm"));
  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  const BinaryNetwork cold = make_net(cfg);

  const std::uint64_t hit0 = counter_value("tune.cache_hit");
  const std::uint64_t searches0 = counter_value("tune.searches");
  const BinaryNetwork warm = make_net(cfg);
  EXPECT_EQ(counter_value("tune.cache_hit") - hit0, 4u);
  EXPECT_EQ(counter_value("tune.searches") - searches0, 0u);

  // The warm plan IS the cold plan, provenance aside.
  const auto& a = cold.layers();
  const auto& b = warm.layers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].tile, a[i].tile) << a[i].name;
    EXPECT_EQ(b[i].par_grain, a[i].par_grain) << a[i].name;
    if (a[i].tune_source == "search") EXPECT_EQ(b[i].tune_source, "cache") << a[i].name;
  }
}

TEST(TunerCache, StaleEntryIsReSearchedNeverCommitted) {
  const CacheFileGuard cache(temp_cache_path("stale"));
  // Forge a cache whose entry for c1 under max_isa=u64 demands T=16 — a
  // kernel that does not exist at u64.  decide() must reject it and search.
  LayerWorkload wl = conv_workload(simd::IsaLevel::kU64, /*k=*/64);
  wl.c = 16;
  Decision bogus;
  bogus.tile = 16;
  bogus.par_grain = 1;
  bogus.source = DecisionSource::kSearch;
  bogus.candidates = 1;
  TuneCache forged;
  forged.put(key_for(wl), bogus);
  ASSERT_TRUE(forged.save(cache.path()));

  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  cfg.max_isa = simd::IsaLevel::kU64;
  const BinaryNetwork net = make_net(cfg);
  const auto& c1 = net.layers()[0];
  EXPECT_EQ(c1.tune_source, "search");                  // not "cache"
  EXPECT_TRUE(c1.tile == 4 || c1.tile == 8) << c1.tile;
}

TEST(TunerCache, EnvVarPathIsUsedWhenConfigLeavesItEmpty) {
  const CacheFileGuard cache(temp_cache_path("envvar"));
  ASSERT_EQ(::setenv("BITFLOW_TUNE_CACHE", cache.path().c_str(), 1), 0);
  EXPECT_EQ(default_cache_path(), cache.path());
  NetworkConfig cfg;
  cfg.auto_tune = true;  // tune_cache_path deliberately empty
  const BinaryNetwork net = make_net(cfg);
  EXPECT_TRUE(file_exists(cache.path()));
  ::unsetenv("BITFLOW_TUNE_CACHE");
  EXPECT_EQ(default_cache_path(), "");
  (void)net;
}

TEST(TunerCache, NoPathMeansNoPersistenceButTuningStillRuns) {
  ::unsetenv("BITFLOW_TUNE_CACHE");
  NetworkConfig cfg;
  cfg.auto_tune = true;
  const BinaryNetwork net = make_net(cfg);
  bool any_searched = false;
  for (const auto& l : net.layers()) any_searched |= l.tune_source == "search";
  EXPECT_TRUE(any_searched);
}

// --- introspection ----------------------------------------------------------

TEST(TunerIntrospection, LayerInfoAndProfileReportCarryTheCommittedPlan) {
  const CacheFileGuard cache(temp_cache_path("introspect"));
  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  cfg.profile = true;
  BinaryNetwork net = make_net(cfg);
  (void)net.infer(make_input(0));

  const std::string report = net.profile_report().to_table();
  for (const auto& l : net.layers()) {
    if (l.kind != graph::LayerKind::kConv && l.kind != graph::LayerKind::kFc) continue;
    EXPECT_TRUE(l.tune_source == "search" || l.tune_source == "cache") << l.name;
    // The committed width is visible in the kernel string.
    EXPECT_GT(l.tile, 0) << l.name;
    EXPECT_NE(report.find(",t" + std::to_string(l.tile)), std::string::npos)
        << l.name << " tile " << l.tile << " missing from:\n" << report;
    EXPECT_GE(l.par_grain, 1) << l.name;
  }
}

// --- serving: tuned engine behind ShardRouter hot reload --------------------

TEST(TunerServing, TunedEngineServesBitExactAfterHotReloadFromCache) {
  const CacheFileGuard cache(temp_cache_path("router"));

  io::Model model(TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  model.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  model.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  model.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));

  serve::RouterConfig rcfg;
  rcfg.shards = 2;
  rcfg.engine.workers = 1;
  rcfg.engine.max_batch = 4;
  rcfg.engine.queue_capacity = 64;
  rcfg.engine.adaptive_shedding = false;
  rcfg.engine.net.num_threads = 1;
  rcfg.engine.net.auto_tune = true;
  rcfg.engine.net.tune_cache_path = cache.path();

  auto r = serve::ShardRouter::create(model, rcfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  serve::ShardRouter router = std::move(r.value());
  EXPECT_TRUE(file_exists(cache.path()));  // cold create tuned and persisted

  // Untuned reference scores for the same model.
  BinaryNetwork ref = model.instantiate(NetworkConfig{});
  auto ref_scores = [&ref](std::uint64_t seed) {
    Tensor t = Tensor::hwc(8, 8, 8);
    fill_uniform(t, seed);
    const auto s = ref.infer(t);
    return std::vector<float>(s.begin(), s.end());
  };

  // Hot reload re-instantiates with the same tuned config: every decision
  // must now come from the cache (no new searches), and serving stays
  // bit-exact with the untuned reference.
  const std::uint64_t hit0 = counter_value("tune.cache_hit");
  const std::uint64_t searches0 = counter_value("tune.searches");
  ASSERT_TRUE(router.reload(model).is_ok());
  EXPECT_GT(counter_value("tune.cache_hit"), hit0);
  EXPECT_EQ(counter_value("tune.searches"), searches0);
  for (const auto& l : router.network()->layers()) {
    if (l.kind == graph::LayerKind::kConv || l.kind == graph::LayerKind::kFc) {
      EXPECT_EQ(l.tune_source, "cache") << l.name;
    }
  }

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Tensor in = Tensor::hwc(8, 8, 8);
    fill_uniform(in, seed);
    auto routed = router.infer(std::move(in));
    ASSERT_TRUE(routed.is_ok()) << routed.status().to_string();
    EXPECT_EQ(routed.value(), ref_scores(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bitflow::tune
