// Serving-engine throughput sweep: workers x max_batch x offered load.
//
// Each configuration runs a closed-loop load: `clients` caller threads keep
// one request in flight each against a serve::Engine, for `--seconds` of
// wall clock.  Throughput (QPS) comes from the engine's completed counter;
// latency quantiles from its log-bucketed histogram.  Comparing max_batch=1
// against max_batch=N at equal worker count isolates what micro-batch
// fusion buys: N requests cost one fork/join per layer instead of N, so
// with per-worker thread pools the batched rows must clear strictly more
// QPS once the queue is deep enough for the batcher to coalesce.
//
// Output: one `BENCH {...}` JSON line per configuration (machine-parseable;
// the CI smoke asserts completed > 0 and that the JSON parses), plus `#`
// comment lines for humans.  Flags: --seconds <f> per-config duration
// (default 2), --smoke for the reduced CI sweep.
//
// --overload replaces the sweep with the robustness benchmark: it first
// measures max sustained QPS and unloaded p99 closed-loop, then offers 2x
// that rate OPEN-loop (submitters pace by the clock, not by completions)
// with per-request deadlines so admission control must engage.  The single
// `BENCH {"bench":"serving_robustness",...}` line it emits is the source of
// BENCH_robustness.json and what CI's robustness job gates on: goodput
// (completed QPS of admitted work) must stay near the sustained maximum and
// the p99 of requests the engine chose to serve must stay near the
// unloaded p99 — overload is shed at the door, not absorbed as latency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bitpack/packer.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "runtime/timer.hpp"
#include "serve/engine.hpp"
#include "tensor/util.hpp"

namespace {

using namespace bitflow;

/// conv -> pool -> conv -> fc on a 16x16x64 input: enough per-request work
/// that fork/join amortization is measurable, small enough for a CI smoke.
io::Model make_model() {
  io::Model m(graph::TensorDesc{16, 16, 64});
  std::vector<float> th(64, 0.0f);
  m.add_conv("c1", bitpack::pack_filters(models::random_filters(64, 3, 3, 64, 7)), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  m.add_conv("c2", bitpack::pack_filters(models::random_filters(64, 3, 3, 64, 8)), 1, 1, th);
  const auto w = models::random_fc_weights(8 * 8 * 64, 10, 9);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 8 * 8 * 64, 10));
  return m;
}

struct SweepPoint {
  int workers;
  std::int64_t max_batch;
  int clients;  ///< closed-loop callers, one request in flight each
};

struct RunResult {
  double qps = 0.0;
  std::uint64_t completed = 0;
};

RunResult run_config(const io::Model& model, const SweepPoint& pt, double seconds) {
  serve::EngineConfig cfg;
  cfg.workers = pt.workers;
  cfg.max_batch = pt.max_batch;
  cfg.net.num_threads = 2;  // per-worker pool: fork/join cost exists to amortize
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.queue_capacity = 512;
  auto r = serve::Engine::create(model, cfg);
  if (!r.is_ok()) {
    std::fprintf(stderr, "engine create failed: %s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  serve::Engine engine = std::move(r.value());

  std::vector<Tensor> inputs;
  for (int i = 0; i < pt.clients; ++i) {
    Tensor t = Tensor::hwc(16, 16, 64);
    fill_uniform(t, 100 + static_cast<std::uint64_t>(i));
    inputs.push_back(std::move(t));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> callers;
  for (int c = 0; c < pt.clients; ++c) {
    callers.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)engine.infer(inputs[static_cast<std::size_t>(c)]);
      }
    });
  }

  runtime::Timer timer;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6)));
  const serve::EngineStats stats = engine.stats();
  const double elapsed = timer.elapsed_ms() / 1e3;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : callers) t.join();
  engine.shutdown();

  const double qps = static_cast<double>(stats.completed) / elapsed;
  std::printf(
      "BENCH {\"bench\":\"serving_throughput\",\"workers\":%d,\"max_batch\":%lld,"
      "\"net_threads\":%d,\"clients\":%d,\"duration_s\":%.3f,\"completed\":%llu,"
      "\"rejected\":%llu,\"expired\":%llu,\"failed\":%llu,\"batches\":%llu,"
      "\"mean_batch\":%.2f,\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}\n",
      pt.workers, static_cast<long long>(pt.max_batch), cfg.net.num_threads, pt.clients,
      elapsed, static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.batches), stats.mean_batch(), qps,
      stats.latency_p50_ms, stats.latency_p99_ms);
  std::fflush(stdout);
  return {qps, stats.completed};
}

/// Measures a config closed-loop WITHOUT printing a sweep row: the overload
/// benchmark's calibration phase (max sustained QPS + unloaded p99).
RunResult measure_quiet(const io::Model& model, const SweepPoint& pt, double seconds,
                        double* p99_ms) {
  serve::EngineConfig cfg;
  cfg.workers = pt.workers;
  cfg.max_batch = pt.max_batch;
  cfg.net.num_threads = pt.workers > 1 ? 2 : 1;
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.queue_capacity = 512;
  auto r = serve::Engine::create(model, cfg);
  if (!r.is_ok()) {
    std::fprintf(stderr, "engine create failed: %s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  serve::Engine engine = std::move(r.value());
  std::vector<Tensor> inputs;
  for (int i = 0; i < pt.clients; ++i) {
    Tensor t = Tensor::hwc(16, 16, 64);
    fill_uniform(t, 100 + static_cast<std::uint64_t>(i));
    inputs.push_back(std::move(t));
  }
  // Warm up (worker context builds, first-touch faults) outside the
  // measured window so the cold start does not land in the p99.
  for (int i = 0; i < 2 * pt.workers; ++i) (void)engine.infer(inputs[0]);
  std::atomic<bool> stop{false};
  std::vector<std::thread> callers;
  for (int c = 0; c < pt.clients; ++c) {
    callers.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)engine.infer(inputs[static_cast<std::size_t>(c)]);
      }
    });
  }
  runtime::Timer timer;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6)));
  const serve::EngineStats stats = engine.stats();
  const double elapsed = timer.elapsed_ms() / 1e3;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : callers) t.join();
  engine.shutdown();
  if (p99_ms != nullptr) *p99_ms = stats.latency_p99_ms;
  return {static_cast<double>(stats.completed) / elapsed, stats.completed};
}

struct OpenLoopResult {
  serve::EngineStats stats;
  double elapsed = 0.0;
};

/// Open-loop load at `offered_qps`: submitters pace by the clock, never by
/// completions, so offering beyond capacity genuinely overloads the engine.
/// deadline_ms == 0 submits without deadlines (the healthy-baseline phase).
OpenLoopResult run_open_loop(const io::Model& model, const SweepPoint& pt,
                             double offered_qps, double deadline_ms, double seconds,
                             bool diag) {
  serve::EngineConfig cfg;
  cfg.workers = pt.workers;
  cfg.max_batch = pt.max_batch;
  cfg.net.num_threads = pt.workers > 1 ? 2 : 1;
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.queue_capacity = 512;
  cfg.adaptive_shedding = true;
  auto r = serve::Engine::create(model, cfg);
  if (!r.is_ok()) {
    std::fprintf(stderr, "engine create failed: %s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  serve::Engine engine = std::move(r.value());

  // ONE submitter thread with catch-up pacing: per-arrival wakeups at 10k+
  // QPS would spend more CPU on scheduler churn than on serving (and on a
  // small host would steal the cores the workers need).  Oversleeping is
  // repaid by a burst, so the offered rate holds on average — burstier than
  // a poisson clock, which only makes the overload harder.
  Tensor input = Tensor::hwc(16, 16, 64);
  fill_uniform(input, 200);
  // Warm up before the clock starts: worker context builds and first-touch
  // page faults would otherwise turn the first wave into a cold-start
  // backlog that dominates the p99.
  for (int i = 0; i < 2 * pt.workers; ++i) (void)engine.infer(input);
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / offered_qps));
  const auto deadline =
      std::chrono::milliseconds(static_cast<std::int64_t>(deadline_ms));
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  submitters.emplace_back([&] {
    auto next = std::chrono::steady_clock::now();
    std::vector<std::future<core::Result<std::vector<float>>>> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      auto now = std::chrono::steady_clock::now();
      while (next <= now) {  // catch up: open loop never slows down
        mine.push_back(engine.submit(input, deadline));
        next += period;
      }
      // Millisecond ticks, not per-arrival wakeups: at 10k+ QPS a nanosleep
      // per request IS the bottleneck on a small host.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& f : mine) (void)f.get();  // every future resolves
  });

  runtime::Timer timer;
  // Sample the shed estimator while the storm runs: a healthy run shows the
  // queue pinned at the admission ceiling, not oscillating empty/full.
  const int ticks = std::max(1, static_cast<int>(seconds * 4.0));
  for (int i = 0; i < ticks; ++i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6 / ticks)));
    if (diag) {
      const serve::EngineStats mid = engine.stats();
      std::printf("# t=%.2fs in_flight=%zu queue=%zu ewma=%.3fms completed=%llu "
                  "shed=%llu expired=%llu\n",
                  timer.elapsed_ms() / 1e3, mid.in_flight, mid.queue_depth,
                  mid.ewma_service_ms, static_cast<unsigned long long>(mid.completed),
                  static_cast<unsigned long long>(mid.shed),
                  static_cast<unsigned long long>(mid.expired));
    }
  }
  OpenLoopResult out;
  out.stats = engine.stats();
  out.elapsed = timer.elapsed_ms() / 1e3;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : submitters) t.join();
  engine.shutdown();
  return out;
}

/// The robustness benchmark: calibrate max sustained QPS closed-loop and the
/// healthy latency profile open-loop, then offer 2x capacity with deadlines
/// so admission control must engage.
int run_overload(const io::Model& model, double seconds) {
  // Size the engine to the host: on a small machine, oversubscribing cores
  // with worker pools + the load generator measures scheduler churn, not
  // overload policy.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const SweepPoint pt = cores >= 4 ? SweepPoint{2, 8, 32} : SweepPoint{1, 8, 16};
  std::printf("# overload benchmark: %u hw threads -> %d worker(s); calibrating max "
              "sustained QPS (%.2fs closed-loop)\n",
              cores, pt.workers, seconds);
  const RunResult max_rate = measure_quiet(model, pt, seconds, nullptr);
  if (max_rate.completed == 0) {
    std::fprintf(stderr, "calibration completed zero requests\n");
    return 1;
  }
  // Healthy baseline: the latency users see when the engine is NOT
  // overloaded — closed loop at one batch of clients, so batching is real
  // but a transient host stall cannot snowball a backlog into the tail.
  // The overloaded engine is judged against this p99.
  double p99_unloaded_ms = 0.0;
  const RunResult healthy = measure_quiet(
      model, {pt.workers, pt.max_batch, static_cast<int>(pt.max_batch)}, seconds,
      &p99_unloaded_ms);
  if (healthy.completed == 0 || p99_unloaded_ms <= 0.0) {
    std::fprintf(stderr, "healthy baseline completed zero requests\n");
    return 1;
  }
  const double offered_qps = 2.0 * max_rate.qps;
  // Deadline budget: the healthy p99, doubled.  Any request the engine
  // cannot serve within it is shed at admission, expired at pop, or
  // cancelled at a checkpoint instead of stretching the latency tail.
  const double deadline_ms = std::max(2.0 * p99_unloaded_ms, 4.0);
  std::printf("# max sustained %.1f QPS (closed loop), healthy p99 %.3f ms -> "
              "offering %.1f QPS, deadline %.1f ms\n",
              max_rate.qps, p99_unloaded_ms, offered_qps, deadline_ms);

  // Control storm: same 2x offered load, NO deadlines — the engine absorbs
  // everything the queue can hold.  Its completed QPS is the honest goodput
  // denominator (the load generator costs the same CPU in both runs), and
  // its p99 is the collapse the overload policy exists to prevent.
  const OpenLoopResult control =
      run_open_loop(model, pt, offered_qps, 0.0, seconds, false);
  const double control_qps =
      static_cast<double>(control.stats.completed) / control.elapsed;
  std::printf("# control (no deadlines, queue absorbs): %.1f QPS, p99 %.3f ms\n",
              control_qps, control.stats.latency_p99_ms);
  if (control.stats.completed == 0) {
    std::fprintf(stderr, "control storm completed zero requests\n");
    return 1;
  }

  const OpenLoopResult storm =
      run_open_loop(model, pt, offered_qps, deadline_ms, seconds, true);
  const serve::EngineStats& stats = storm.stats;
  const double elapsed = storm.elapsed;

  const double goodput_qps = static_cast<double>(stats.completed) / elapsed;
  const std::uint64_t offered = stats.accepted + stats.rejected;
  const double shed_rate =
      offered == 0 ? 0.0
                   : static_cast<double>(stats.rejected + stats.expired +
                                         stats.cancelled) /
                         static_cast<double>(offered);
  std::printf(
      "BENCH {\"bench\":\"serving_robustness\",\"workers\":%d,\"max_batch\":%lld,"
      "\"net_threads\":%d,\"duration_s\":%.3f,\"qps_closed_loop\":%.1f,"
      "\"qps_max\":%.1f,\"p99_nodeadline_ms\":%.3f,\"offered_qps\":%.1f,"
      "\"deadline_ms\":%.1f,\"goodput_qps\":%.1f,\"goodput_ratio\":%.3f,"
      "\"shed_rate\":%.3f,\"accepted\":%llu,\"shed\":%llu,\"rejected\":%llu,"
      "\"expired\":%llu,\"cancelled\":%llu,\"completed\":%llu,"
      "\"p99_admitted_ms\":%.3f,\"p99_unloaded_ms\":%.3f}\n",
      pt.workers, static_cast<long long>(pt.max_batch), pt.workers > 1 ? 2 : 1, elapsed,
      max_rate.qps, control_qps, control.stats.latency_p99_ms, offered_qps,
      deadline_ms, goodput_qps, goodput_qps / control_qps, shed_rate,
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.completed), stats.latency_p99_ms,
      p99_unloaded_ms);
  std::fflush(stdout);
  std::printf("# goodput %.1f QPS (%.0f%% of max sustained under identical load), "
              "shed rate %.1f%%, p99 admitted %.3f ms (%.2fx unloaded; "
              "no-deadline control collapsed to %.3f ms)\n",
              goodput_qps, 100.0 * goodput_qps / control_qps, 100.0 * shed_rate,
              stats.latency_p99_ms, stats.latency_p99_ms / p99_unloaded_ms,
              control.stats.latency_p99_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin this load generator's heap before any thread starts.  The storm's
  // fresh submitter thread copies a 64 KiB input per submit and engine
  // workers free the copies; with glibc's defaults that thread's arena heap
  // is trimmed as the frees empty its top and regrown on the next submits.
  // The first two submits then stalled for 33-58 ms and 139-372 ms, and a
  // run could complete only 5 requests in its first 0.25 s, so goodput
  // measured the allocator as much as the engine.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_TOP_PAD, 64 << 20);
#endif
  double seconds = 2.0;
  bool smoke = false;
  bool overload = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else {
      std::fprintf(stderr, "usage: %s [--seconds S] [--smoke] [--overload]\n", argv[0]);
      return 2;
    }
  }

  if (overload) {
    return run_overload(make_model(), seconds);
  }

  const io::Model model = make_model();
  std::printf("# serving throughput sweep: closed-loop load, %.2fs per config\n", seconds);

  // Each {workers, clients} pair appears with max_batch 1 and a batched
  // variant so the fusion win is a same-row comparison.
  std::vector<SweepPoint> sweep;
  if (smoke) {
    sweep = {{1, 1, 8}, {1, 8, 8}};
  } else {
    sweep = {
        {1, 1, 1},  {1, 8, 1},   // idle-ish: batching can't help without depth
        {1, 1, 16}, {1, 8, 16},  // single worker under load
        {2, 1, 32}, {2, 8, 32},  // multi-worker under load
        {2, 1, 32}, {2, 16, 32},
    };
  }

  double best_gain = 0.0;
  for (std::size_t i = 0; i + 1 < sweep.size(); i += 2) {
    const RunResult base = run_config(model, sweep[i], seconds);
    const RunResult batched = run_config(model, sweep[i + 1], seconds);
    if (base.completed == 0 || batched.completed == 0) {
      std::fprintf(stderr, "config completed zero requests\n");
      return 1;
    }
    const double gain = batched.qps / base.qps;
    if (gain > best_gain) best_gain = gain;
    std::printf("# workers=%d clients=%d: batch-%lld vs batch-1 QPS ratio %.2fx\n",
                sweep[i].workers, sweep[i].clients,
                static_cast<long long>(sweep[i + 1].max_batch), gain);
  }
  std::printf("# best batched-vs-batch-1 QPS ratio: %.2fx\n", best_gain);
  return 0;
}
