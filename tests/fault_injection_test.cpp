// Fault-injection matrix for the serving boundary, serve::Engine.
//
// Iterates every registered failpoint across every trigger mode and
// asserts the boundary's guarantees:
//   1. an injected fault surfaces as its mapped non-OK Status — never an
//      abort, never an exception across the API — unless the engine's
//      per-member rerun absorbs it, in which case the request succeeds
//      bit-exactly (a failed batch, even a batch of one, is rerun once per
//      member);
//   2. nothing leaks (the suite runs under ASan in CI with
//      detect_leaks=1);
//   3. the engine and the file remain usable afterwards: an immediately
//      following un-faulted request succeeds bit-exactly.
// Also unit-tests the failpoint framework itself (triggers, spec parsing,
// env activation) and the end-to-end deadline (cooperative cancellation).
//
// CatalogIsExhaustivelyCovered pins the full failpoint catalog against the
// union of points exercised here and in the engine-level suites
// (engine_test, lifecycle_test, chaos_test): adding a failpoint without
// extending a fault matrix is a test failure, not a silent gap.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "tensor/util.hpp"

namespace bitflow::serve {
namespace {

using core::ErrorCode;
using failpoint::Action;
using failpoint::Config;
using failpoint::Trigger;

io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

/// One worker that runs each request as it arrives: the blocking front door.
EngineConfig engine_cfg() {
  EngineConfig c;
  c.net.num_threads = 4;
  c.batch_timeout = std::chrono::microseconds(0);
  return c;
}

/// Trigger modes every failpoint is exercised under.
struct Mode {
  const char* label;
  Trigger trigger;
  std::uint64_t n;
};
constexpr Mode kModes[] = {
    {"once", Trigger::kOnce, 1},
    {"count(2)", Trigger::kCounted, 2},
    {"every(2)", Trigger::kEveryNth, 2},
    {"always", Trigger::kAlways, 1},
};

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    // Per-process file name: ctest runs each test in its own process, and a
    // shared path races (one process's TearDown unlinks the model another
    // is about to open) under `ctest -j`.
    path_ = (std::filesystem::temp_directory_path() /
             ("bitflow_fault_matrix." + std::to_string(::getpid()) + ".bflow"))
                .string();
    make_model().save(path_);
    input_ = Tensor::hwc(8, 8, 8);
    fill_uniform(input_, 5);
    // Reference scores from the saved file's network, independent of serve.
    graph::NetworkConfig nc;
    nc.num_threads = 4;
    graph::BinaryNetwork net = io::Model::load(path_).instantiate(nc);
    const std::span<const float> s = net.infer(input_);
    ref_scores_.assign(s.begin(), s.end());
    ASSERT_FALSE(ref_scores_.empty());
  }

  void TearDown() override {
    failpoint::disarm_all();
    std::filesystem::remove(path_);
  }

  Engine open_engine(const EngineConfig& cfg = engine_cfg()) {
    auto r = Engine::open(path_, cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r).value();
  }

  /// Runs `op` until it reports a failure (a trigger like every(2) may need
  /// several attempts before it fires), at most `max_attempts` times.
  template <typename Op>
  core::Status run_until_failure(Op&& op, int max_attempts = 4) {
    for (int i = 0; i < max_attempts; ++i) {
      const core::Status st = op();
      if (!st.is_ok()) return st;
    }
    return {};
  }

  void expect_bit_exact_recovery(Engine& engine) {
    const auto r = engine.infer(input_);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), ref_scores_);
  }

  std::string path_;
  Tensor input_;
  std::vector<float> ref_scores_;
};

// --- the matrix -------------------------------------------------------------

/// Failpoints whose faults land while opening an engine (model load/build).
TEST_F(FaultMatrixTest, OpenPhaseFailpointsMapToStatusAndRecover) {
  struct Entry {
    const char* point;
    Action action;
    ErrorCode expect;
  };
  const Entry entries[] = {
      {"io.open", Action::kError, ErrorCode::kInvalidModel},
      {"io.read_header", Action::kError, ErrorCode::kInvalidModel},
      {"io.read_weights", Action::kError, ErrorCode::kInvalidModel},
      {"alloc.buffer", Action::kBadAlloc, ErrorCode::kResourceExhausted},
  };
  for (const Entry& e : entries) {
    for (const Mode& m : kModes) {
      SCOPED_TRACE(std::string(e.point) + " x " + m.label);
      failpoint::arm(e.point, Config{e.action, m.trigger, m.n});
      const core::Status st =
          run_until_failure([&] { return Engine::open(path_, engine_cfg()).status(); });
      EXPECT_FALSE(st.is_ok()) << "failpoint never fired";
      EXPECT_EQ(st.code(), e.expect) << st.to_string();
      failpoint::disarm_all();
      // The file itself is untouched: the next open + infer must succeed
      // bit-exactly.
      Engine engine = open_engine();
      expect_bit_exact_recovery(engine);
    }
  }
}

/// Failpoints whose faults land inside inference.  Each attempt must be
/// either a bit-exact success (the per-member rerun absorbed the fault) or
/// exactly the mapped code; `always` must surface the code, the rerun must
/// absorb a one-off serve.infer fault, and the SAME engine must serve the
/// next clean request bit-exactly.
TEST_F(FaultMatrixTest, InferPhaseFailpointsMapToStatusAndSessionSurvives) {
  struct Entry {
    const char* point;
    Action action;
    ErrorCode expect;
  };
  const Entry entries[] = {
      {"runtime.worker", Action::kError, ErrorCode::kWorkerFailure},
      {"serve.infer", Action::kError, ErrorCode::kInternal},
      {"serve.infer", Action::kBadAlloc, ErrorCode::kResourceExhausted},
      // Site-fault at the layer-boundary checkpoint: the network abandons
      // the run as if the request had been cancelled mid-inference.
      {"serve.cancel_checkpoint", Action::kSite, ErrorCode::kCancelled},
  };
  constexpr int kAttempts = 3;
  Engine engine = open_engine();
  expect_bit_exact_recovery(engine);
  for (const Entry& e : entries) {
    for (const Mode& m : kModes) {
      SCOPED_TRACE(std::string(e.point) + " x " + m.label);
      failpoint::arm(e.point, Config{e.action, m.trigger, m.n});
      int failures = 0;
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const auto r = engine.infer(input_);
        if (r.is_ok()) {
          EXPECT_EQ(r.value(), ref_scores_) << "attempt " << attempt;
        } else {
          EXPECT_EQ(r.status().code(), e.expect) << r.status().to_string();
          ++failures;
        }
      }
      if (m.trigger == Trigger::kAlways) {
        EXPECT_EQ(failures, kAttempts) << "always must surface the mapped code";
      }
      if (std::string_view(e.point) == "serve.infer" && m.trigger == Trigger::kOnce) {
        EXPECT_EQ(failures, 0) << "the per-member rerun must absorb a one-off fault";
      }
      failpoint::disarm_all();
      expect_bit_exact_recovery(engine);
    }
  }
  const EngineStats s = engine.stats();
  EXPECT_GT(s.completed, 0u);
  EXPECT_GT(s.failed, 0u);
  EXPECT_GT(s.cancelled, 0u);
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.expired + s.cancelled);
}

/// An injected stall degrades to kDeadlineExceeded instead of hanging, and
/// the engine serves the next request once the stalled batch is abandoned.
TEST_F(FaultMatrixTest, InjectedStallDegradesToDeadlineExceeded) {
  EngineConfig cfg = engine_cfg();
  cfg.default_deadline = std::chrono::milliseconds(50);
  Engine engine = open_engine(cfg);

  // Un-faulted requests finish inside the deadline and stay bit-exact.
  expect_bit_exact_recovery(engine);

  Config stall;
  stall.action = Action::kStall;
  stall.trigger = Trigger::kOnce;
  stall.stall_ms = 400;  // x8 the deadline: robust under sanitizer slowdown
  failpoint::arm("runtime.worker_stall", stall);
  const auto r = engine.infer(input_);
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded) << r.status().to_string();
  failpoint::disarm_all();

  expect_bit_exact_recovery(engine);
  EXPECT_EQ(engine.stats().expired, 1u);
}

/// Forced ISA fallback is graceful degradation, not an error: every layer
/// drops to the scalar u64 kernels and the outputs stay bit-exact.
TEST_F(FaultMatrixTest, ForcedIsaFallbackKeepsResultsBitExact) {
  failpoint::arm("simd.force_fallback",
                 Config{Action::kSite, Trigger::kAlways, 1});
  Engine engine = open_engine();
  for (const graph::LayerInfo& info : engine.network()->layers()) {
    if (!info.full_precision) {
      EXPECT_EQ(info.isa, simd::IsaLevel::kU64) << info.name;
    }
  }
  expect_bit_exact_recovery(engine);
}

/// A shape-mismatched request is kBadInput and must not poison the engine.
TEST_F(FaultMatrixTest, BadInputIsRejectedWithoutPoisoningTheSession) {
  Engine engine = open_engine();
  const auto r = engine.infer(Tensor::hwc(9, 8, 8));
  EXPECT_EQ(r.status().code(), ErrorCode::kBadInput);
  EXPECT_EQ(engine.stats().rejected, 1u);
  expect_bit_exact_recovery(engine);
}

/// Opening garbage (or a missing file) is kInvalidModel, not a throw.
TEST_F(FaultMatrixTest, MalformedFilesSurfaceAsInvalidModel) {
  const std::string missing =
      (std::filesystem::temp_directory_path() / "bitflow_no_such.bflow").string();
  EXPECT_EQ(Engine::open(missing, engine_cfg()).status().code(), ErrorCode::kInvalidModel);

  const std::string garbage = path_ + ".garbage";
  std::ofstream(garbage) << "definitely not a model";
  EXPECT_EQ(Engine::open(garbage, engine_cfg()).status().code(), ErrorCode::kInvalidModel);
  std::filesystem::remove(garbage);
}

/// An ISA cap the hardware cannot execute is reported, not crashed on.
TEST_F(FaultMatrixTest, UnsupportedIsaCapIsReported) {
  const simd::CpuFeatures& hw = simd::cpu_features();
  if (hw.supports(simd::IsaLevel::kAvx512)) {
    GTEST_SKIP() << "host supports every ISA level; nothing to reject";
  }
  EngineConfig cfg = engine_cfg();
  cfg.net.max_isa = simd::IsaLevel::kAvx512;
  EXPECT_EQ(Engine::open(path_, cfg).status().code(), ErrorCode::kUnsupportedIsa);
}

// --- failpoint framework unit tests ----------------------------------------

class FailpointFrameworkTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FailpointFrameworkTest, CatalogIsFixedAndUnknownNamesAreRejected) {
  EXPECT_GE(failpoint::catalog().size(), 8u);
  EXPECT_THROW(failpoint::arm("no.such.point", Config{}), std::invalid_argument);
  EXPECT_THROW(failpoint::disarm("no.such.point"), std::invalid_argument);
  EXPECT_THROW((void)failpoint::armed("no.such.point"), std::invalid_argument);
}

/// The catalog stays provably exhaustive: this is the union of every
/// failpoint exercised by a fault matrix somewhere in the suite, and it
/// must equal the catalog exactly.  Adding an injection site without
/// wiring it into a matrix (and listing it here with where it is covered)
/// fails this test instead of leaving a silent coverage hole.
TEST_F(FailpointFrameworkTest, CatalogIsExhaustivelyCovered) {
  // Both matrices above run through serve::Engine::open and infer.
  const std::set<std::string> covered = {
      "io.open",                  // open-phase matrix above
      "io.read_header",           // open-phase matrix above
      "io.read_weights",          // open-phase matrix above
      "alloc.buffer",             // open-phase matrix; chaos_test; io_test ModelSharing
      "runtime.worker",           // infer-phase matrix; lifecycle_test breaker; io_test
      "runtime.worker_stall",     // InjectedStallDegradesToDeadlineExceeded; io_test
      "serve.infer",              // infer-phase matrix (batch and rerun sites); engine_test
      "serve.queue_admit",        // engine_test admission fault; chaos_test
      "serve.shed",               // lifecycle_test forced shed; chaos_test
      "serve.cancel_checkpoint",  // infer-phase matrix above; lifecycle_test
      "serve.drain",              // lifecycle_test drain fault
      "serve.worker_quarantine",  // lifecycle_test forced quarantine; chaos_test
      "simd.force_fallback",      // ForcedIsaFallbackKeepsResultsBitExact
      "net.accept",               // server_test accept fault matrix
      "net.frame_decode",         // server_test decode fault matrix; net_codec_test
  };
  std::set<std::string> catalog_names;
  for (const failpoint::PointInfo& p : failpoint::catalog()) {
    catalog_names.insert(std::string(p.name));
  }
  EXPECT_EQ(catalog_names, covered)
      << "failpoint catalog and fault-matrix coverage diverged";
}

TEST_F(FailpointFrameworkTest, OnceFiresExactlyOnceThenDisarms) {
  failpoint::arm("serve.infer", Config{Action::kError, Trigger::kOnce, 1});
  EXPECT_THROW(BF_FAILPOINT("serve.infer"), failpoint::FaultInjected);
  EXPECT_FALSE(failpoint::armed("serve.infer"));
  EXPECT_NO_THROW(BF_FAILPOINT("serve.infer"));
  EXPECT_EQ(failpoint::hit_count("serve.infer"), 1u);  // second hit was unarmed
}

TEST_F(FailpointFrameworkTest, CountedFiresNTimesThenDisarms) {
  failpoint::arm("serve.infer", Config{Action::kError, Trigger::kCounted, 3});
  for (int i = 0; i < 3; ++i) EXPECT_THROW(BF_FAILPOINT("serve.infer"), failpoint::FaultInjected);
  EXPECT_FALSE(failpoint::armed("serve.infer"));
  EXPECT_NO_THROW(BF_FAILPOINT("serve.infer"));
}

TEST_F(FailpointFrameworkTest, EveryNthFiresOnMultiplesOnly) {
  failpoint::arm("serve.infer", Config{Action::kSite, Trigger::kEveryNth, 3});
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(BF_FAILPOINT_TRIGGERED("serve.infer"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true, false}));
  EXPECT_TRUE(failpoint::armed("serve.infer"));  // every-nth never exhausts
  EXPECT_EQ(failpoint::hit_count("serve.infer"), 7u);
}

TEST_F(FailpointFrameworkTest, FaultInjectedCarriesThePointName) {
  failpoint::arm("io.open", Config{Action::kError, Trigger::kAlways, 1});
  try {
    BF_FAILPOINT("io.open");
    FAIL() << "should have thrown";
  } catch (const failpoint::FaultInjected& e) {
    EXPECT_EQ(e.point(), "io.open");
    EXPECT_NE(std::string(e.what()).find("io.open"), std::string::npos);
  }
}

TEST_F(FailpointFrameworkTest, SpecGrammarRoundTrips) {
  failpoint::arm_from_spec("io.open=once:error;runtime.worker_stall=every(3):stall(25)");
  EXPECT_TRUE(failpoint::armed("io.open"));
  EXPECT_TRUE(failpoint::armed("runtime.worker_stall"));

  EXPECT_THROW(failpoint::arm_from_spec("io.open"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("io.open=error"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("io.open=sometimes:error"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("io.open=once:explode"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("no.such=once:error"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("io.open=every(0):error"), std::invalid_argument);
}

TEST_F(FailpointFrameworkTest, DisabledFailpointsCostOneAtomicLoad) {
  // Not a benchmark — just pins the contract that an unarmed process never
  // takes the slow path (hit_count stays untouched because hit() was
  // never entered for an armed point).
  const std::uint64_t before = failpoint::hit_count("serve.infer");
  for (int i = 0; i < 1000; ++i) BF_FAILPOINT("serve.infer");
  EXPECT_EQ(failpoint::hit_count("serve.infer"), before);
}

/// CI smoke for env activation: the runner sets
/// BITFLOW_FAILPOINTS="serve.infer=once:error" and invokes only this test;
/// the static initializer in failpoint.cpp must have armed the point
/// before main().  Without the env var the test is skipped.
TEST(FailpointEnvSmoke, EnvVarArmsBeforeMain) {
  const char* spec = std::getenv("BITFLOW_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "BITFLOW_FAILPOINTS not set";
  }
  EXPECT_TRUE(failpoint::armed("serve.infer")) << "env spec: " << spec;
  failpoint::disarm_all();
}

}  // namespace
}  // namespace bitflow::serve
