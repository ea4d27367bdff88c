// telemetry/flight_recorder under stress: passive trace snapshots while the
// serving tier drains under a chaos failpoint schedule, trigger
// rate-limiting (exactly-one-bundle), the SLO-breach and error-rate
// detectors, bundles that keep a thread's newest events after its ring
// wrapped, and byte-level corruption fuzzing of the bundle loader with the
// same discipline as fuzz_model_io_test — truncate at every offset, flip a
// deterministic bit in every byte, never crash, always fail closed.
//
// All multi-threaded sections are written to run clean under TSan: the
// trace rings are lock-free by design and this test is a data-race gate for
// them under real serving traffic.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"
#include "tensor/util.hpp"
#include "trace_reader.hpp"

namespace bitflow::telemetry {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Fresh temp directory per test; removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("bitflow_flight_") + tag + "_" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Arms the recorder for one test and guarantees disarm on every exit path
/// (flight_start throws if a previous test left it armed).
class ArmedRecorder {
 public:
  explicit ArmedRecorder(FlightRecorderConfig cfg) { flight_start(std::move(cfg)); }
  ~ArmedRecorder() { flight_stop(); }
};

FlightRecorderConfig base_cfg(const TempDir& dir) {
  FlightRecorderConfig cfg;
  cfg.dir = dir.path().string();
  cfg.min_bundle_interval = 0ms;
  cfg.max_bundles = 64;
  // Detectors off by default; individual tests lower these.
  cfg.breach_threshold = 1'000'000;
  cfg.rate_window = 1'000'000;
  return cfg;
}

std::vector<fs::path> bundle_dirs(const TempDir& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir.path(), ec)) {
    if (e.is_directory() && e.path().filename().string().rfind("bundle-", 0) == 0) {
      out.push_back(e.path());
    }
  }
  return out;
}

io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16, 0.0f);
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(8, 8, 8);
  fill_uniform(t, seed);
  return t;
}

// ---------------------------------------------------------------------------
// Triggers, rate limiting, detectors.

TEST(FlightTriggers, RateLimitYieldsExactlyOneBundle) {
  ASSERT_FALSE(flight_armed());
  EXPECT_FALSE(flight_trigger(FlightTrigger::kManual, "disarmed"));  // no-op
  TempDir dir("ratelimit");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.min_bundle_interval = std::chrono::milliseconds(3'600'000);  // 1h: once
  ArmedRecorder armed(cfg);
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    if (flight_trigger(FlightTrigger::kManual, "burst")) ++accepted;
  }
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(flight_bundles_written(), 1u);
  EXPECT_EQ(flight_bundles_suppressed(), 4u);
  EXPECT_EQ(bundle_dirs(dir).size(), 1u);
}

TEST(FlightTriggers, MaxBundlesCapsTheSession) {
  TempDir dir("maxcap");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.max_bundles = 2;
  ArmedRecorder armed(cfg);
  int accepted = 0;
  for (int i = 0; i < 6; ++i) {
    if (flight_trigger(FlightTrigger::kManual, "cap")) ++accepted;
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(bundle_dirs(dir).size(), 2u);
  EXPECT_EQ(flight_bundles_suppressed(), 4u);
}

TEST(FlightTriggers, ConcurrentTriggersDedupToOneBundle) {
  TempDir dir("race");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.min_bundle_interval = std::chrono::milliseconds(3'600'000);
  ArmedRecorder armed(cfg);
  // Ordering contract: relaxed — a plain tally; thread joins order it.
  std::atomic<int> written{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&written] {
      if (flight_trigger(FlightTrigger::kSloBreach, "racing trigger")) {
        written.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(written.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(bundle_dirs(dir).size(), 1u);
}

TEST(FlightDetectors, BreachThresholdFiresOnceThenRearms) {
  TempDir dir("breach");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.breach_threshold = 4;
  cfg.min_bundle_interval = 0ms;
  ArmedRecorder armed(cfg);
  for (int i = 0; i < 3; ++i) flight_observe_outcome(false, /*deadline_breach=*/true);
  EXPECT_EQ(flight_bundles_written(), 0u);
  flight_observe_outcome(false, true);  // 4th breach trips the detector
  EXPECT_EQ(flight_bundles_written(), 1u);
  // The counter reset on trip: 4 more breaches fire again.
  for (int i = 0; i < 4; ++i) flight_observe_outcome(false, true);
  EXPECT_EQ(flight_bundles_written(), 2u);
}

TEST(FlightDetectors, ErrorRateWindowFires) {
  TempDir dir("errrate");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.rate_window = 16;
  cfg.error_rate_threshold = 0.5;
  ArmedRecorder armed(cfg);
  // A healthy window: no trigger.
  for (int i = 0; i < 16; ++i) flight_observe_outcome(true, false);
  EXPECT_EQ(flight_bundles_written(), 0u);
  // A failing window: >= 50% errors trips it.
  for (int i = 0; i < 16; ++i) flight_observe_outcome(i % 2 == 0, false);
  EXPECT_EQ(flight_bundles_written(), 1u);
}

TEST(FlightBundles, ContainTraceEventsAndContextSections) {
  TempDir dir("contents");
  FlightRecorderConfig cfg = base_cfg(dir);
  ArmedRecorder armed(cfg);
  flight_add_context(&cfg, "lifecycle", [] { return std::string("state: serving\n"); });
  {
    TraceSpan span("flight.test.work", "span", 7, 99);
    std::this_thread::sleep_for(1ms);
  }
  trace_instant("flight.test.mark", "lifecycle", 99);
  trace_instant("synthetic breach", "deadline", 99);
  ASSERT_TRUE(flight_trigger(FlightTrigger::kManual, "contents check"));
  flight_remove_contexts(&cfg);

  const std::vector<fs::path> dirs = bundle_dirs(dir);
  ASSERT_EQ(dirs.size(), 1u);
  auto loaded = load_bundle(dirs[0].string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const Bundle b = std::move(loaded).value();
  ASSERT_EQ(validate_bundle(b).to_string(), "kOk");
  EXPECT_EQ(b.manifest.trigger, "manual");
  EXPECT_EQ(b.manifest.reason, "contents check");
  ASSERT_EQ(b.sections.count("lifecycle.txt"), 1u);
  EXPECT_EQ(b.sections.at("lifecycle.txt"), "state: serving\n");

  auto events = parse_bundle_trace(b);
  ASSERT_TRUE(events.is_ok());
  bool saw_span = false;
  bool saw_instant = false;
  bool saw_breach = false;
  bool saw_trigger = false;
  for (const ParsedTraceEvent& e : events.value()) {
    if (e.name == "flight.test.work" && e.ph == 'X' && e.rid == 99) saw_span = true;
    if (e.name == "flight.test.mark" && e.ph == 'i' && e.rid == 99) saw_instant = true;
    if (e.name == "synthetic breach" && e.cat == "deadline" && e.rid == 99) {
      saw_breach = true;
    }
    if (e.name == "manual" && e.cat == "flight" && e.ph == 'i') saw_trigger = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_breach);
  EXPECT_TRUE(saw_trigger);
}

TEST(FlightBundles, KeepTheNewestEventsAfterTheRingWraps) {
  // A thread that has recorded more than one ring's worth of events (an
  // always-on recorder reaches this within seconds of serving) must still
  // put what it recorded just before the trigger into the bundle.
  TempDir dir("wrapped");
  ArmedRecorder armed(base_cfg(dir));
  for (std::size_t i = 0; i < kTraceRingEvents + 3617; ++i) {
    trace_instant("flight.test.filler", "test");
  }
  {
    TraceSpan span("flight.test.last_span", "span", -1, 0x77);
  }
  trace_instant("flight.test.last_mark", "deadline", 0x77);
  ASSERT_TRUE(flight_trigger(FlightTrigger::kManual, "after a ring wrap"));

  const std::vector<fs::path> dirs = bundle_dirs(dir);
  ASSERT_EQ(dirs.size(), 1u);
  auto loaded = load_bundle(dirs[0].string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(validate_bundle(loaded.value()).to_string(), "kOk");
  auto events = parse_bundle_trace(loaded.value());
  ASSERT_TRUE(events.is_ok());
  bool saw_span = false;
  bool saw_mark = false;
  for (const ParsedTraceEvent& e : events.value()) {
    if (e.name == "flight.test.last_span" && e.ph == 'X' && e.rid == 0x77) saw_span = true;
    if (e.name == "flight.test.last_mark" && e.ph == 'i' && e.rid == 0x77) saw_mark = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_mark);
  EXPECT_GT(trace_dropped_events(), 0u);
}

TEST(FlightBundles, LoadWithNoEventsAfterTheTraceStopped) {
  // trace_stop() while the recorder is armed leaves no session to snapshot:
  // the bundle's trace.json is the recorder's {"traceEvents":[]} fallback,
  // and the reader keeps accepting it.
  TempDir dir("notrace");
  ArmedRecorder armed(base_cfg(dir));
  (void)trace_stop();
  ASSERT_TRUE(flight_trigger(FlightTrigger::kManual, "trace stopped"));

  const std::vector<fs::path> dirs = bundle_dirs(dir);
  ASSERT_EQ(dirs.size(), 1u);
  auto loaded = load_bundle(dirs[0].string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().sections.at("trace.json"), "{\"traceEvents\":[]}\n");
  EXPECT_EQ(validate_bundle(loaded.value()).to_string(), "kOk");
  auto events = parse_bundle_trace(loaded.value());
  ASSERT_TRUE(events.is_ok());
  EXPECT_TRUE(events.value().empty());
}

// ---------------------------------------------------------------------------
// Chaos: concurrent trace snapshots while a real engine drains under the
// chaos failpoint schedule.  TSan gate for every lock-free path the serving
// layer exercises in production.

TEST(FlightChaos, EventLoggingSurvivesDrainAndFailpoints) {
  failpoint::disarm_all();
  TempDir dir("chaos");
  FlightRecorderConfig cfg = base_cfg(dir);
  cfg.breach_threshold = 32;  // let real breaches trigger too
  cfg.rate_window = 64;
  cfg.min_bundle_interval = std::chrono::milliseconds(3'600'000);
  ArmedRecorder armed(cfg);

  const io::Model model = make_model();
  serve::EngineConfig ec;
  ec.workers = 2;
  ec.max_batch = 4;
  ec.net.num_threads = 1;
  auto created = serve::Engine::create(model, ec);
  ASSERT_TRUE(created.is_ok());
  serve::Engine engine = std::move(created).value();

  std::atomic<bool> stop{false};
  // Ordering contract: relaxed — progress tallies; joins synchronize.
  std::atomic<std::uint64_t> submitted{0};

  // Traffic threads: real submits whose resolution paths emit trace instants
  // (sheds, deadline breaches, errors) from engine worker threads.
  std::vector<std::thread> traffic;
  traffic.reserve(2);
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&engine, &stop, &submitted, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919 + 13);
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto deadline =
            rng() % 4 == 0 ? std::chrono::milliseconds(1) : std::chrono::milliseconds(2000);
        engine.submit(make_input(n), deadline, serve::Priority::kNormal,
                      serve::RequestMeta{n + 1, 0},
                      [](core::Result<std::vector<float>>) noexcept {});
        ++n;
        if (n % 8 == 0) std::this_thread::sleep_for(1ms);
      }
      submitted.fetch_add(n, std::memory_order_relaxed);
    });
  }

  // Chaos thread: the chaos_test failpoint catalog.
  std::thread chaos([&stop] {
    struct Entry {
      const char* point;
      failpoint::Action action;
      std::uint64_t stall_ms;
    };
    static constexpr Entry kSchedule[] = {
        {"serve.infer", failpoint::Action::kError, 0},
        {"serve.infer", failpoint::Action::kStall, 5},
        {"serve.queue_admit", failpoint::Action::kError, 0},
        {"serve.shed", failpoint::Action::kSite, 0},
        {"serve.cancel_checkpoint", failpoint::Action::kSite, 0},
    };
    std::mt19937 rng(1234);
    while (!stop.load(std::memory_order_relaxed)) {
      const Entry& e = kSchedule[rng() % std::size(kSchedule)];
      failpoint::Config c;
      c.action = e.action;
      c.stall_ms = e.stall_ms;
      c.trigger = failpoint::Trigger::kCounted;
      c.n = 1 + rng() % 3;
      failpoint::arm(e.point, c);
      std::this_thread::sleep_for(10ms);
    }
    failpoint::disarm_all();
  });

  // Snapshot thread: continuous reads of the passive trace while
  // everything churns.
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_FALSE(trace_snapshot_json().empty());
      (void)flight_status_text();
      std::this_thread::sleep_for(5ms);
    }
  });

  // Drain mid-storm: traffic, failpoints and snapshots keep running through
  // it, and the traffic that follows meets the drained engine's gate.
  std::this_thread::sleep_for(200ms);
  const core::Status drained = engine.drain(5000ms);
  std::this_thread::sleep_for(100ms);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : traffic) t.join();
  chaos.join();
  reader.join();
  failpoint::disarm_all();
  engine.shutdown();

  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  EXPECT_GT(submitted.load(std::memory_order_relaxed), 0u);
  // The drain left its facts in the passive trace: its span and the
  // lifecycle transitions on either side of it.
  const std::string snap = trace_snapshot_json();
  EXPECT_NE(snap.find("\"name\":\"serve.drain\""), std::string::npos);
  EXPECT_NE(snap.find("\"name\":\"lifecycle:draining\""), std::string::npos);
  EXPECT_NE(snap.find("\"name\":\"lifecycle:drained\""), std::string::npos);
  // At most one bundle despite sustained trigger pressure: the 1h interval
  // rate limit held under full concurrency.
  EXPECT_LE(bundle_dirs(dir).size(), 1u);
}

// ---------------------------------------------------------------------------
// Loader fuzzing: deterministic, every offset, fail closed, never crash.

class BundleFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("fuzz");
    FlightRecorderConfig cfg = base_cfg(*dir_);
    flight_start(cfg);
    trace_instant("fuzz.mark", "lifecycle", 3);
    ASSERT_TRUE(flight_trigger(FlightTrigger::kManual, "fuzz fixture"));
    flight_stop();
    const std::vector<fs::path> dirs = bundle_dirs(*dir_);
    ASSERT_EQ(dirs.size(), 1u);
    bundle_dir_ = dirs[0];
    manifest_ = slurp(bundle_dir_ / "MANIFEST.json");
    ASSERT_FALSE(manifest_.empty());
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void spit(const fs::path& p, const std::string& body) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }

  std::unique_ptr<TempDir> dir_;
  fs::path bundle_dir_;
  std::string manifest_;
};

TEST_F(BundleFuzz, ManifestTruncationAtEveryOffsetFailsClosed) {
  const fs::path manifest_path = bundle_dir_ / "MANIFEST.json";
  // Cutting after the closing '}' only strips trailing whitespace — still a
  // complete manifest, legitimately accepted.  Every cut at or before the
  // closing brace loses structure and must fail.
  const std::size_t last_brace = manifest_.find_last_of('}');
  ASSERT_NE(last_brace, std::string::npos);
  for (std::size_t cut = 0; cut <= last_brace; ++cut) {
    spit(manifest_path, manifest_.substr(0, cut));
    const auto got = load_bundle(bundle_dir_.string());
    ASSERT_FALSE(got.is_ok()) << "truncation at offset " << cut << " was accepted";
  }
  spit(manifest_path, manifest_);
  ASSERT_TRUE(load_bundle(bundle_dir_.string()).is_ok());
}

TEST_F(BundleFuzz, ManifestBitFlipsNeverCrashAndNeverForgeChecksums) {
  const fs::path manifest_path = bundle_dir_ / "MANIFEST.json";
  for (std::size_t pos = 0; pos < manifest_.size(); ++pos) {
    std::string mutated = manifest_;
    // Deterministic bit: position-dependent, so a failure reproduces from
    // the offset alone.
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    spit(manifest_path, mutated);
    const auto got = load_bundle(bundle_dir_.string());
    if (got.is_ok()) {
      // A flip that still parses (e.g. inside the free-text reason) must
      // still verify every checksum — sections were not touched, so the
      // loaded bundle must match the originals byte for byte.
      const core::Status st = validate_bundle(got.value());
      // Structural validity may legitimately survive a benign flip; the
      // invariant is no crash and intact section payloads.
      (void)st;
      for (const auto& [name, body] : got.value().sections) {
        EXPECT_EQ(fnv1a64(body.data(), body.size()),
                  fnv1a64(slurp(bundle_dir_ / name).data(),
                          slurp(bundle_dir_ / name).size()))
            << "flip at " << pos << " forged section " << name;
      }
    }
  }
  spit(manifest_path, manifest_);
}

TEST_F(BundleFuzz, SectionBitFlipsAreAlwaysDetected) {
  const fs::path victim = bundle_dir_ / "trace.json";
  const std::string original = slurp(victim);
  ASSERT_FALSE(original.empty());
  // Stride through the section; every flip must be caught by FNV-1a.
  for (std::size_t pos = 0; pos < original.size(); pos += 7) {
    std::string mutated = original;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    spit(victim, mutated);
    EXPECT_FALSE(load_bundle(bundle_dir_.string()).is_ok())
        << "flip at offset " << pos << " was accepted";
  }
  spit(victim, original);
  ASSERT_TRUE(load_bundle(bundle_dir_.string()).is_ok());
}

TEST_F(BundleFuzz, MissingOrShortSectionsAndNonBundlesFailClosed) {
  // A section cut short: its size no longer matches the manifest.
  const fs::path victim = bundle_dir_ / "metrics.prom";
  const std::string body = slurp(victim);
  ASSERT_FALSE(body.empty());
  spit(victim, body.substr(0, body.size() / 2));
  EXPECT_FALSE(load_bundle(bundle_dir_.string()).is_ok());
  spit(victim, body);
  // A required section the manifest lists is gone.
  const fs::path trace = bundle_dir_ / "trace.json";
  const std::string trace_body = slurp(trace);
  fs::remove(trace);
  EXPECT_FALSE(load_bundle(bundle_dir_.string()).is_ok());
  spit(trace, trace_body);
  ASSERT_TRUE(load_bundle(bundle_dir_.string()).is_ok());
  // A directory that is not a bundle, and one that does not exist.
  EXPECT_FALSE(load_bundle(dir_->path().string()).is_ok());
  EXPECT_FALSE(load_bundle((dir_->path() / "nope").string()).is_ok());
}

}  // namespace
}  // namespace bitflow::telemetry
