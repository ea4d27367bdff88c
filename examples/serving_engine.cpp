// Concurrent serving with serve::Engine: worker pool + micro-batching.
//
//   $ ./examples/serving_engine
//
// Where robust_serving.cpp serves one request at a time through a
// one-worker engine, this engine serves many callers at once:
//   1. build a model and start an engine — 2 workers, micro-batches of up
//      to 8 requests, a bounded admission queue;
//   2. submit a burst of requests from several caller threads and collect
//      the futures — each worker coalesces whatever is queued together so
//      N requests cost one fork/join per layer instead of N;
//   3. demonstrate admission control: a tiny queue rejects overflow with
//      kResourceExhausted instead of blocking the caller, and a request
//      with a too-tight deadline expires in queue with kDeadlineExceeded;
//   4. read the engine's counters: throughput, achieved batch sizes, and
//      latency quantiles — the numbers bench_serving_throughput sweeps;
//   5. print the per-layer profile of the served model: time, achieved
//      GOPS and the roof of the register-tiled kernel each layer runs.
//
// Observability: run with BITFLOW_TRACE=trace.json to get a Chrome-tracing
// timeline of every request -> batch -> layer -> kernel span (open it at
// chrome://tracing or https://ui.perfetto.dev), and scrape the process
// metrics registry (telemetry::registry().prometheus_text()) for the
// engine's counters in Prometheus text format.
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "core/bitflow.hpp"

int main() {
  using namespace bitflow;

  // 1. A small conv->pool->fc model, served straight from memory.
  io::Model model(graph::TensorDesc{16, 16, 8});
  model.add_conv("c1", bitpack::pack_filters(models::random_filters(32, 3, 3, 8, 7)), 1, 1,
                 std::vector<float>(32, 0.0f));
  model.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  model.add_fc("f1", bitpack::pack_transpose_fc_weights(
                         models::random_fc_weights(8 * 8 * 32, 10, 8).data(), 8 * 8 * 32, 10));

  serve::EngineConfig cfg;
  cfg.workers = 2;                                    // replicated inference contexts
  cfg.max_batch = 8;                                  // fused batch-N kernel passes
  cfg.batch_timeout = std::chrono::microseconds(500); // how long a batch waits to fill
  cfg.net.num_threads = 2;                            // per-worker thread pool
  auto created = serve::Engine::create(model, cfg);
  if (!created.is_ok()) {
    std::printf("engine create failed: %s\n", created.status().to_string().c_str());
    return 1;
  }
  serve::Engine engine = std::move(created).value();

  // 2. A burst of requests from several caller threads.
  constexpr int kCallers = 4, kPerCaller = 8;
  std::vector<std::future<core::Result<std::vector<float>>>> futures(kCallers * kPerCaller);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kPerCaller; ++i) {
        Tensor image = Tensor::hwc(16, 16, 8);
        fill_uniform(image, static_cast<std::uint64_t>(t * kPerCaller + i));
        futures[static_cast<std::size_t>(t * kPerCaller + i)] = engine.submit(std::move(image));
      }
    });
  }
  for (std::thread& t : callers) t.join();

  int ok = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.is_ok()) ++ok;
  }
  std::printf("burst of %d requests       -> %d served\n", kCallers * kPerCaller, ok);

  // 3a. Backpressure: shrink the queue and flood it — overflow is a Status,
  // never a blocked or crashed caller.
  serve::EngineConfig tiny = cfg;
  tiny.workers = 1;
  tiny.max_batch = 1;
  tiny.queue_capacity = 2;
  serve::Engine small = std::move(serve::Engine::create(model, tiny).value());
  std::vector<std::future<core::Result<std::vector<float>>>> flood;
  for (int i = 0; i < 32; ++i) {
    Tensor image = Tensor::hwc(16, 16, 8);
    fill_uniform(image, static_cast<std::uint64_t>(i));
    flood.push_back(small.submit(std::move(image)));
  }
  int rejected = 0;
  for (auto& f : flood) {
    if (f.get().status().code() == core::ErrorCode::kResourceExhausted) ++rejected;
  }
  std::printf("flooding a 2-slot queue    -> %d of 32 rejected (kResourceExhausted)\n",
              rejected);

  // 3b. Deadlines: a queue wait longer than the request's budget expires it.
  // Wedge the worker with the same failpoint hook CI's fault matrix uses, so
  // a 1 ms budget reliably lapses in queue.
  failpoint::arm("serve.infer",
                 failpoint::Config{failpoint::Action::kStall, failpoint::Trigger::kOnce, 1,
                                   /*stall_ms=*/50});
  Tensor image = Tensor::hwc(16, 16, 8);
  fill_uniform(image, 99);
  auto anchor = small.submit(image);  // the worker stalls 50 ms on this one
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto expired = small.submit(image, std::chrono::milliseconds(1));
  std::printf("1ms deadline under load    -> %s\n",
              expired.get().status().to_string().c_str());
  (void)anchor.get();
  small.shutdown();

  // 4. Counters: what the engine achieved.
  const serve::EngineStats stats = engine.stats();
  std::printf("engine counters            -> accepted=%llu completed=%llu batches=%llu "
              "mean_batch=%.2f p50=%.3fms p99=%.3fms\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.batches), stats.mean_batch(),
              stats.latency_p50_ms, stats.latency_p99_ms);

  // 5. Per-layer profile with roofline attribution: where the time goes and
  // how close each layer runs to the calibrated roof of its tile kernel.
  graph::NetworkConfig prof_cfg;
  prof_cfg.profile = true;
  prof_cfg.num_threads = 1;
  graph::BinaryNetwork net = model.instantiate(prof_cfg);
  for (int i = 0; i < 50; ++i) {
    Tensor image = Tensor::hwc(16, 16, 8);
    fill_uniform(image, static_cast<std::uint64_t>(i));
    (void)net.infer(image);
  }
  std::printf("\nper-layer profile (50 batch-1 inferences):\n%s",
              net.profile_report().to_table().c_str());
  return 0;
}
