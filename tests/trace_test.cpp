// Trace-event sink: disabled-by-default contract, span recording through
// real inference (batch-1 and batched, engine and network level), the
// emitted file read back line by line, well-nesting of the synchronous spans
// per thread, matched async begin/end pairs, names and request ids that
// round-trip byte-exact, keep-newest ring overwrite, a failed write,
// snapshots racing writers, re-arming while spans record, and an exited
// thread's ring passing to the next thread (the concurrent cases are TSan
// gates: CI's telemetry job runs Trace.* there).
//
// Every trace is read through tools/trace_reader, the bundle tool's reader,
// which rejects any line the writer would not have produced.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bitpack/packer.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "telemetry/trace.hpp"
#include "tensor/util.hpp"
#include "trace_reader.hpp"

namespace bitflow::telemetry {
namespace {

/// Reads one rendered trace (trace_stop()'s file or trace_snapshot_json());
/// fails the test on any line the writer would not have produced.
std::vector<ParsedTraceEvent> read_trace(const std::string& text) {
  auto events = parse_trace(text);
  EXPECT_TRUE(events.is_ok()) << events.status().to_string();
  return events.is_ok() ? std::move(events).value() : std::vector<ParsedTraceEvent>{};
}

/// Reads the trace file written by trace_stop().
std::vector<ParsedTraceEvent> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return read_trace(
      std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
}

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

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(8, 8, 8);
  fill_uniform(t, seed);
  return t;
}

std::string tmp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Trace, DisabledByDefaultAndZeroStopIsNoop) {
  ASSERT_FALSE(trace_enabled());
  { TraceSpan span("should.not.record", "test"); }
  trace_instant("should.not.record", "test", 42);
  EXPECT_TRUE(trace_snapshot_json().empty());
  EXPECT_EQ(trace_stop(), 0u);  // not armed: no file, no events
}

TEST(Trace, StartRejectsBadArgumentsAndDoubleArm) {
  EXPECT_THROW(trace_start(""), std::invalid_argument);
  const std::string path = tmp_path("bitflow_trace_doublearm.json");
  trace_start(path);
  EXPECT_THROW(trace_start(path), std::logic_error);
  trace_stop();
}

TEST(Trace, InferenceEmitsWellNestedSpansAndMatchedAsyncPairs) {
  const io::Model model = make_model();
  serve::EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  auto created = serve::Engine::create(model, cfg);
  ASSERT_TRUE(created.is_ok());
  serve::Engine engine = std::move(created).value();

  const std::string path = tmp_path("bitflow_trace_engine.json");
  trace_start(path);
  // Batch-1 and batched inference, through the full request->batch->layer
  // stack.
  ASSERT_TRUE(engine.infer(make_input(21)).is_ok());
  std::vector<std::future<core::Result<std::vector<float>>>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(engine.submit(make_input(22)));
  for (auto& f : futs) ASSERT_TRUE(f.get().is_ok());
  engine.shutdown();
  const std::size_t written = trace_stop();
  EXPECT_GT(written, 0u);

  const std::vector<ParsedTraceEvent> events = read_trace_file(path);
  EXPECT_EQ(events.size(), written);

  // The span vocabulary is present at every level.
  auto count_name = [&events](const std::string& name, char ph) {
    std::size_t n = 0;
    for (const ParsedTraceEvent& e : events) {
      if (e.ph == ph && e.name == name) ++n;
    }
    return n;
  };
  EXPECT_GE(count_name("serve.batch", 'X'), 1u);
  EXPECT_GE(count_name("graph.infer_batch", 'X'), 3u);  // 1 infer + >= 2 batches
  EXPECT_GE(count_name("pack_input", 'X'), 1u);
  EXPECT_GE(count_name("layer:c1", 'X'), 1u);
  EXPECT_GE(count_name("layer:p1", 'X'), 1u);
  EXPECT_GE(count_name("layer:f1", 'X'), 1u);
  std::size_t kernel_events = 0;
  for (const ParsedTraceEvent& e : events) {
    if (e.ph == 'X' && e.cat == "kernel") {
      ++kernel_events;
      EXPECT_NE(e.name.find('['), std::string::npos) << e.name;  // "<kernel>[<isa>]"
    }
  }
  EXPECT_GE(kernel_events, 3u);

  // Synchronous spans nest per thread; request lifetimes are async pairs
  // with matching begin/end ids (9 requests: 1 infer + 8 submits).
  EXPECT_EQ(check_trace_nesting(events).to_string(), "kOk");
  std::map<std::uint64_t, int> begins, ends;
  for (const ParsedTraceEvent& e : events) {
    if (e.ph == 'b') {
      EXPECT_EQ(e.name, "serve.request");
      EXPECT_NE(e.id, 0u);
      begins[e.id] += 1;
    } else if (e.ph == 'e') {
      ends[e.id] += 1;
    }
  }
  EXPECT_EQ(begins.size(), 9u);
  EXPECT_EQ(begins, ends);
}

TEST(Trace, BatchOneNetworkTraceNestsLayersInsideInfer) {
  const io::Model model = make_model();
  graph::BinaryNetwork net = model.instantiate(graph::NetworkConfig{});
  const std::string path = tmp_path("bitflow_trace_net.json");
  trace_start(path);
  (void)net.infer(make_input(5));
  trace_stop();
  const std::vector<ParsedTraceEvent> events = read_trace_file(path);
  // One thread, one inference: infer_batch encloses pack + 3 layers.
  double infer_ts = -1.0, infer_end = -1.0;
  for (const ParsedTraceEvent& e : events) {
    if (e.name == "graph.infer_batch") {
      infer_ts = e.ts_us;
      infer_end = e.ts_us + e.dur_us;
    }
  }
  ASSERT_GE(infer_ts, 0.0);
  std::size_t enclosed = 0;
  for (const ParsedTraceEvent& e : events) {
    if (e.cat == "layer" || e.name == "pack_input") {
      EXPECT_GE(e.ts_us, infer_ts - 0.0015);
      EXPECT_LE(e.ts_us + e.dur_us, infer_end + 0.0015);
      ++enclosed;
    }
  }
  EXPECT_EQ(enclosed, 4u);
  EXPECT_EQ(check_trace_nesting(events).to_string(), "kOk");
}

TEST(Trace, OverflowKeepsNewestAndReportsCount) {
  const std::string path = tmp_path("bitflow_trace_overflow.json");
  // A fresh thread records three rings' worth of spans, each tagged with its
  // sequence number: the newest kTraceRingEvents must survive in order, and
  // the two rings' worth before them count as overwritten.
  constexpr std::uint64_t kN = kTraceRingEvents;
  trace_start(path);
  std::thread t([] {
    for (std::uint64_t i = 0; i < 3 * kN; ++i) {
      TraceSpan span("overflow.span", "test", -1, i + 1);
    }
  });
  t.join();
  EXPECT_EQ(trace_dropped_events(), 2 * kN);
  const std::size_t written = trace_stop();
  const std::vector<ParsedTraceEvent> events = read_trace_file(path);
  EXPECT_EQ(events.size(), written);
  std::vector<std::uint64_t> rids;
  std::size_t meta = 0;
  for (const ParsedTraceEvent& e : events) {
    if (e.name == "overflow.span") rids.push_back(e.rid);
    if (e.name == "trace_dropped_events" && e.ph == 'C') ++meta;
  }
  ASSERT_EQ(rids.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(rids[i], 2 * kN + i + 1) << i;
  EXPECT_EQ(meta, 1u);
  EXPECT_EQ(trace_dropped_events(), 0u);  // disarmed: no session to count
}

TEST(Trace, NamesAndRequestIdsReadBackExactly) {
  // Quotes and backslashes in a name are escaped, not taken for its end; a
  // request id above 2^53 is not rounded; a control byte is dropped.
  const std::string tricky = "q\"b\\s\",\"cat\":\"kernel";
  constexpr std::uint64_t kBigRid = (std::uint64_t{1} << 63) + 1;
  trace_arm_passive();
  { TraceSpan span(tricky.c_str(), "test"); }
  trace_instant("big.rid", "test", kBigRid);
  trace_instant("ctl\x01\tname", "test");
  std::map<std::string, ParsedTraceEvent> by_name;
  for (const ParsedTraceEvent& e : read_trace(trace_snapshot_json())) {
    if (e.cat == "test") by_name[e.name] = e;
  }
  trace_stop();
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name[tricky].ph, 'X');
  EXPECT_EQ(by_name["big.rid"].rid, kBigRid);
  EXPECT_EQ(by_name.count("ctlname"), 1u);
}

TEST(Trace, StopReportsZeroWhenTheWriteFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  trace_start("/dev/full");
  for (int i = 0; i < 3; ++i) trace_instant("full.mark", "test");
  EXPECT_EQ(trace_stop(), 0u);
}

TEST(Trace, ConcurrentWritersAndSnapshottersNeverTear) {
  trace_arm_passive();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&stop] {
      // Every name spans all six name words and repeats its sequence number
      // twice, so a slot read torn across two events cannot parse back.
      char name[48];
      for (std::uint64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
        std::snprintf(name, sizeof name, "%020llu/%020llu",
                      static_cast<unsigned long long>(n), static_cast<unsigned long long>(n));
        trace_instant(name, "test", n);
      }
    });
  }
  std::size_t checked = 0;
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    std::map<std::uint32_t, std::pair<double, std::uint64_t>> last;  // tid -> (ts, rid)
    for (const ParsedTraceEvent& e : read_trace(trace_snapshot_json())) {
      if (e.cat != "test") continue;
      ASSERT_EQ(e.name.size(), 41u) << e.name;
      ASSERT_EQ(e.name.substr(0, 20), e.name.substr(21)) << e.name;
      ASSERT_EQ(std::stoull(e.name.substr(0, 20)), e.rid) << e.name;
      const auto it = last.find(e.tid);
      if (it != last.end()) {
        ASSERT_LE(it->second.first, e.ts_us) << "tid " << e.tid << " went back in time";
        ASSERT_LT(it->second.second, e.rid) << "tid " << e.tid << " reordered";
      }
      last[e.tid] = {e.ts_us, e.rid};
      ++checked;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  trace_stop();
  EXPECT_GT(checked, 0u);
}

TEST(Trace, RearmWhileSpansRecordIsRaceFree) {
  // One thread keeps opening spans while this one flips between file and
  // passive sessions: a span opened in one session closes in the next, so
  // its write must land in a ring that arming never reallocates.
  const std::string path = tmp_path("bitflow_trace_rearm.json");
  std::atomic<bool> stop{false};
  std::thread spinner([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      TraceSpan span("rearm.span", "test");
      trace_instant("rearm.mark", "test");
    }
  });
  for (int round = 0; round < 50; ++round) {
    trace_start(path);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    (void)trace_stop();
    trace_arm_passive();
    EXPECT_FALSE(trace_snapshot_json().empty());
    (void)trace_stop();
  }
  stop.store(true, std::memory_order_relaxed);
  spinner.join();
  std::remove(path.c_str());
}

TEST(Trace, ExitedThreadsHandTheirRingToTheNextThread) {
  // Short-lived threads that record one after another reuse one ring: the
  // snapshot holds every thread's instant on one tid, instead of one ring
  // (about 1.8 MB each) per thread ever started.
  constexpr int kThreads = 64;
  trace_arm_passive();
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i] {
      char name[32];
      std::snprintf(name, sizeof name, "ring.reuse.%d", i);
      trace_instant(name, "test");
    }).join();
  }
  std::set<std::string> names;
  std::set<std::uint32_t> tids;
  for (const ParsedTraceEvent& e : read_trace(trace_snapshot_json())) {
    if (e.cat != "test") continue;
    names.insert(e.name);
    tids.insert(e.tid);
  }
  trace_stop();
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tids.size(), 1u);
}

TEST(Trace, RecordDuringThreadExitIsDropped) {
  // A thread_local constructed before the thread's first record is
  // destroyed after its ring went back to the free list: what it records
  // must not land in the ring the next thread takes.
  struct LateRecorder {
    ~LateRecorder() { trace_instant("exit.late", "test"); }
  };
  trace_arm_passive();
  std::thread([] {
    thread_local LateRecorder late;
    (void)&late;
    trace_instant("exit.early", "test");
  }).join();
  std::thread([] { trace_instant("exit.next", "test"); }).join();
  std::map<std::string, std::uint32_t> tid_of;
  for (const ParsedTraceEvent& e : read_trace(trace_snapshot_json())) {
    if (e.cat == "test") tid_of[e.name] = e.tid;
  }
  trace_stop();
  EXPECT_EQ(tid_of.count("exit.late"), 0u);
  ASSERT_EQ(tid_of.count("exit.early"), 1u);
  ASSERT_EQ(tid_of.count("exit.next"), 1u);
  EXPECT_EQ(tid_of["exit.early"], tid_of["exit.next"]);
}

}  // namespace
}  // namespace bitflow::telemetry
