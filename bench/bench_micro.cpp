// google-benchmark microbenchmarks of the gemm-level primitives: per-ISA
// or-accumulate word runs (the max pool), the binarize+pack transforms, and
// the PressedConv kernel at every (ISA, tile width) — the raw numbers behind
// every figure.  The kernel rows skip SSE: its getters return the u64
// entry points, so an sse row would time the u64 tile a second time.
//
// After the google-benchmark run, main() prints one machine-readable
// `BENCH {...}` JSON line per supported ISA level with a kernel of its own
// for the headline tiling workload (3x3, C = K = 256, 16x16 output: the
// kernel at that ISA's default T against the scalar u64 tile), and one
// comparing the default plan with the paper-rule plan at VGG-16 conv1_2's
// shape; CI's perf-smoke job and the committed BENCH_pressedconv.json
// baseline come from these lines.  --plans and --forkjoin run one matrix
// each instead (see their functions).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "bitpack/packer.hpp"
#include "core/cancel.hpp"
#include "graph/scheduler.hpp"
#include "simd/bitops.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tensor/util.hpp"

namespace {

using namespace bitflow;

std::vector<std::uint64_t> random_words(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng();
  return v;
}

void BM_OrAccumulate(benchmark::State& state) {
  const auto isa = static_cast<simd::IsaLevel>(state.range(0));
  const std::int64_t n = state.range(1);
  if (!simd::cpu_features().supports(isa)) {
    state.SkipWithError("ISA not available");
    return;
  }
  auto dst = random_words(n, 3);
  const auto src = random_words(n, 4);
  const auto fn = simd::or_accumulate_fn(isa);
  for (auto _ : state) {
    fn(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 16);
  state.SetLabel(std::string(simd::isa_name(isa)));
}

void BM_PackActivationsScalar(benchmark::State& state) {
  Tensor t = Tensor::hwc(state.range(0), state.range(0), state.range(1));
  fill_uniform(t, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitpack::pack_activations_scalar(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * t.num_elements());
}

void BM_PackActivationsAvx2(benchmark::State& state) {
  if (!simd::cpu_features().avx2) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  Tensor t = Tensor::hwc(state.range(0), state.range(0), state.range(1));
  fill_uniform(t, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitpack::pack_activations_avx2(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * t.num_elements());
}

// Raw-dot PressedConv, single image, single core: range(0) is the ISA
// level, range(1) its register-tile width T.  Same bits at every level —
// only the tile width and the ISA of its accumulators differ.
void BM_PressedConvDot(benchmark::State& state) {
  const auto isa = static_cast<simd::IsaLevel>(state.range(0));
  const std::int64_t tile = state.range(1);
  if (!simd::cpu_features().supports(isa)) {
    state.SkipWithError("ISA not available");
    return;
  }
  constexpr std::int64_t kC = 256, kK = 256, kKernel = 3, kIn = 18;
  std::mt19937_64 rng(71);
  PackedTensor in(kIn, kIn, kC);
  for (std::int64_t i = 0; i < in.num_words(); ++i) in.words()[i] = rng();
  PackedFilterBank filters(kK, kKernel, kKernel, kC);
  for (std::int64_t i = 0; i < kK * filters.words_per_filter(); ++i) filters.words()[i] = rng();
  const TiledFilterBank bank = bitpack::tile_filters(std::move(filters), tile);
  const kernels::ConvSpec spec{kKernel, kKernel, 1};
  Tensor out = Tensor::hwc(kIn - kKernel + 1, kIn - kKernel + 1, kK);
  runtime::ThreadPool pool(1);
  const PackedTensor* ins[] = {&in};
  Tensor* outs[] = {&out};
  const auto fn = kernels::conv_dot_kernel(isa, simd::cpu_features().avx512vpopcntdq);
  for (auto _ : state) {
    fn(ins, 1, bank, spec, pool, outs);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const std::int64_t ops = 2 * out.height() * out.width() * kK * kKernel * kKernel * kC;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * ops);
  state.SetLabel(std::string(simd::isa_name(isa)) + "/t" + std::to_string(tile));
}

// Telemetry hot-path costs.  The disarmed TraceSpan row is the one CI
// gates on: tracing off must cost one relaxed atomic load per span.
void BM_TraceSpanDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}

void BM_TraceSpanArmed(benchmark::State& state) {
  telemetry::trace_start("/tmp/bitflow_bench_micro_trace.json");
  for (auto _ : state) {
    telemetry::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  telemetry::trace_stop();
  std::remove("/tmp/bitflow_bench_micro_trace.json");
}

// Same discipline for trace instants, the flight recorder's discrete
// facts: disarmed must be one relaxed atomic load (CI gates <= 5 ns).
void BM_TraceInstantDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::trace_instant("disarmed overhead probe", "bench");
  }
}

void BM_CounterAdd(benchmark::State& state) {
  telemetry::Counter c;
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 6364136223846793005ull + 1442695040888963407ull;  // lcg mix
  }
  benchmark::DoNotOptimize(h.snapshot().count);
}

void IsaByLength(benchmark::internal::Benchmark* b) {
  for (int isa = 0; isa < 4; ++isa) {
    for (std::int64_t n : {8, 24, 72, 392, 4608}) {  // typical conv/fc run lengths
      b->Args({isa, n});
    }
  }
}

void IsaByTile(benchmark::internal::Benchmark* b) {
  for (int isa = 0; isa < 4; ++isa) {
    if (static_cast<simd::IsaLevel>(isa) == simd::IsaLevel::kSse) continue;  // the u64 tile
    b->Args({isa, kernels::weight_tile_width(static_cast<simd::IsaLevel>(isa))});
  }
}

BENCHMARK(BM_OrAccumulate)->Apply(IsaByLength);
BENCHMARK(BM_PackActivationsScalar)->Args({56, 128})->Args({14, 512});
BENCHMARK(BM_PackActivationsAvx2)->Args({56, 128})->Args({14, 512});
BENCHMARK(BM_PressedConvDot)->Apply(IsaByTile);
BENCHMARK(BM_TraceSpanDisarmed);
BENCHMARK(BM_TraceSpanArmed);
BENCHMARK(BM_TraceInstantDisarmed);
BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_HistogramRecord);

// One `BENCH {...}` line per supported ISA level for the headline tiling
// workload — the machine-readable feed for CI's perf-smoke assertion and
// for regenerating BENCH_pressedconv.json.
void emit_tiling_bench_json() {
  constexpr std::int64_t kC = 256, kK = 256, kKernel = 3, kIn = 18;
  for (simd::IsaLevel isa : simd::supported_isa_levels()) {
    if (isa == simd::IsaLevel::kSse) continue;  // runs the u64 tile
    const bench::TiledConvResult r = bench::measure_tiled_conv(isa, kIn, kIn, kC, kK, kKernel);
    std::printf(
        "BENCH {\"bench\":\"pressedconv_tiled\",\"isa\":\"%s\",\"tile\":%lld,\"p\":%lld,"
        "\"kh\":%lld,\"kw\":%lld,\"c\":%lld,\"k\":%lld,\"out_h\":%lld,\"out_w\":%lld,"
        "\"ref_isa\":\"u64\",\"ref_tile\":4,\"ref_p\":%lld,\"ms\":%.4f,\"ref_ms\":%.4f,"
        "\"gops\":%.2f,\"ref_gops\":%.2f,\"speedup\":%.3f}\n",
        std::string(simd::isa_name(isa)).c_str(), static_cast<long long>(r.tile),
        static_cast<long long>(kernels::pixel_block(isa)),
        static_cast<long long>(kKernel), static_cast<long long>(kKernel),
        static_cast<long long>(kC), static_cast<long long>(kK),
        static_cast<long long>(kIn - kKernel + 1), static_cast<long long>(kIn - kKernel + 1),
        static_cast<long long>(kernels::pixel_block(simd::IsaLevel::kU64)), r.seconds * 1e3,
        r.ref_seconds * 1e3, r.gops(), r.ref_gops(), r.speedup());
  }
  std::fflush(stdout);
}

// One `BENCH {"bench":"narrow_layer_plan",...}` line: the fused-binarize
// tiled conv at VGG-16 conv1_2's shape (226x226x64 padded input, K = 64),
// single core, under the engine's default plan (graph::default_kernel_plan:
// the widest ISA, so T = 16 on AVX2/AVX-512) against the paper-rule plan
// (select_isa: C = 64 -> u64, T = 4).  CI's perf-smoke job gates the
// default plan at >= 1.0x: a slowdown here stays bit-exact, so no unit test
// would catch it.
void emit_narrow_layer_bench_json() {
  constexpr std::int64_t kIn = 226, kC = 64, kK = 64, kKernel = 3;
  std::mt19937_64 rng(72);
  PackedTensor in(kIn, kIn, kC);
  for (std::int64_t i = 0; i < in.num_words(); ++i) in.words()[i] = rng();
  PackedFilterBank filters(kK, kKernel, kKernel, kC);
  for (std::int64_t i = 0; i < kK * filters.words_per_filter(); ++i) filters.words()[i] = rng();
  const kernels::ConvSpec spec{kKernel, kKernel, 1};
  PackedTensor out(kIn - kKernel + 1, kIn - kKernel + 1, kK);
  runtime::ThreadPool pool(1);
  const simd::CpuFeatures& hw = simd::cpu_features();
  const simd::IsaLevel engine = graph::default_kernel_plan(hw).isa;
  const simd::IsaLevel paper = graph::select_isa(kC, hw);
  const auto seconds = [&](simd::IsaLevel isa) {
    const TiledFilterBank bank = bitpack::tile_filters(filters, kernels::weight_tile_width(isa));
    const auto fn = kernels::conv_binarize_kernel(isa, hw.avx512vpopcntdq);
    const PackedTensor* ins[] = {&in};
    PackedTensor* outs[] = {&out};
    // Null limits: sign(dot).
    return runtime::measure_best_seconds(
        [&] { fn(ins, 1, bank, spec, nullptr, pool, outs, 0); }, 5, 0.2);
  };
  const double engine_s = seconds(engine);
  const double paper_s = seconds(paper);
  std::printf(
      "BENCH {\"bench\":\"narrow_layer_plan\",\"layer\":\"conv1_2\",\"in\":%lld,\"c\":%lld,"
      "\"k\":%lld,\"engine_isa\":\"%s\",\"engine_tile\":%lld,\"engine_p\":%lld,"
      "\"paper_isa\":\"%s\",\"paper_tile\":%lld,\"paper_p\":%lld,\"engine_ms\":%.3f,"
      "\"paper_ms\":%.3f,\"speedup\":%.3f}\n",
      static_cast<long long>(kIn), static_cast<long long>(kC), static_cast<long long>(kK),
      std::string(simd::isa_name(engine)).c_str(),
      static_cast<long long>(kernels::weight_tile_width(engine)),
      static_cast<long long>(kernels::pixel_block(engine)),
      std::string(simd::isa_name(paper)).c_str(),
      static_cast<long long>(kernels::weight_tile_width(paper)),
      static_cast<long long>(kernels::pixel_block(paper)), engine_s * 1e3,
      paper_s * 1e3, paper_s / engine_s);
  std::fflush(stdout);
}

/// Median ns/iteration of `body` over `reps` timed repetitions.  A plain
/// steady-clock loop (not google-benchmark) so the JSON line below is
/// reproducible with a fixed iteration count and a proper median.
template <typename F>
double median_ns_per_iter(F&& body, int reps = 9, int iters = 2'000'000) {
  std::vector<double> per_rep(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    per_rep[static_cast<std::size_t>(r)] =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(iters);
  }
  std::sort(per_rep.begin(), per_rep.end());
  return per_rep[static_cast<std::size_t>(reps) / 2];
}

// One `BENCH {"bench":"telemetry_span",...}` line: the telemetry hot-path
// costs CI's telemetry job gates on, and the source of BENCH_telemetry.json.
// The disarmed cost subtracts an empty-loop baseline so the reported number
// is the span's own work (one relaxed atomic load + a predicted branch),
// not loop bookkeeping.
void emit_telemetry_bench_json() {
  const double baseline = median_ns_per_iter([] {
    int sink = 0;
    benchmark::DoNotOptimize(sink);
  });
  const double disarmed_raw = median_ns_per_iter([] {
    telemetry::TraceSpan span("bench.overhead", "bench");
    benchmark::DoNotOptimize(&span);
  });
  const double disarmed_ns = std::max(0.0, disarmed_raw - baseline);

  // Trace instants, the flight recorder's discrete facts: disarmed must
  // stay within the 5 ns budget CI gates (one relaxed load + predicted
  // branch).  Both armed rows are reported for context: each is one slot
  // write into a ring that keeps the newest events.
  const double instant_disarmed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 telemetry::trace_instant("overhead probe", "bench");
               }) - baseline);

  telemetry::trace_start("/tmp/bitflow_bench_micro_trace.json");
  const double armed_raw = median_ns_per_iter(
      [] {
        telemetry::TraceSpan span("bench.overhead", "bench");
        benchmark::DoNotOptimize(&span);
      },
      9, 200'000);
  const double instant_armed_ns =
      std::max(0.0, median_ns_per_iter(
                        [] { telemetry::trace_instant("overhead probe", "bench"); },
                        9, 200'000) -
                        baseline);
  telemetry::trace_stop();
  std::remove("/tmp/bitflow_bench_micro_trace.json");
  const double armed_ns = std::max(0.0, armed_raw - baseline);

  static telemetry::Counter counter;
  const double counter_ns =
      std::max(0.0, median_ns_per_iter([] { counter.add(); }) - baseline);
  static telemetry::Histogram hist;
  static std::uint64_t lcg = 1;
  const double hist_ns = std::max(0.0, median_ns_per_iter([] {
                                    hist.record(lcg);
                                    lcg = lcg * 6364136223846793005ull +
                                          1442695040888963407ull;
                                  }) -
                                      baseline);

  std::printf(
      "BENCH {\"bench\":\"telemetry_span\",\"disarmed_ns\":%.3f,\"armed_ns\":%.3f,"
      "\"instant_disarmed_ns\":%.3f,\"instant_armed_ns\":%.3f,"
      "\"counter_add_ns\":%.3f,\"hist_record_ns\":%.3f,\"baseline_ns\":%.3f}\n",
      disarmed_ns, armed_ns, instant_disarmed_ns, instant_armed_ns, counter_ns, hist_ns,
      baseline);
  std::fflush(stdout);
}

// One `BENCH {"bench":"cancel_checkpoint",...}` line: the cooperative-
// cancellation costs CI's robustness job gates on.  An INERT token (the
// default, what every non-deadline request carries) must make a checkpoint
// one null check; an ARMED token (deadline/drain-cancellable request) pays
// one relaxed atomic load.  Same baseline-subtraction convention as the
// telemetry_span block above.
void emit_cancel_bench_json() {
  const double baseline = median_ns_per_iter([] {
    int sink = 0;
    benchmark::DoNotOptimize(sink);
  });

  static const core::CancelToken inert;
  const double disarmed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 inert.throw_if_cancelled();
                 benchmark::DoNotOptimize(&inert);
               }) - baseline);

  static const core::CancelToken armed = core::CancelToken::cancellable();
  const double armed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 armed.throw_if_cancelled();
                 benchmark::DoNotOptimize(&armed);
               }) - baseline);

  std::printf(
      "BENCH {\"bench\":\"cancel_checkpoint\",\"disarmed_ns\":%.3f,"
      "\"armed_ns\":%.3f,\"baseline_ns\":%.3f}\n",
      disarmed_ns, armed_ns, baseline);
  std::fflush(stdout);
}

// --plans mode: the matrix of the fused-binarize tiled conv over VGG-16's
// 13 conv shapes (224x224 input, 3x3, pad 1), at every kernel lowering the
// host runs — both AVX-512 popcount lowerings included, SSE left out as the
// u64 tile under another name — on `threads` threads
// (one unless --threads N follows).  One `BENCH {"bench":"vgg16_conv_plan",
// ...}` line per (layer, variant) with the variant's one tile width T and
// the register-block height P it compiles in; "default" marks the plan the
// engine commits.  A last `vgg16_conv_plan_sum` line adds up the
// 13 default rows.  The source of EXPERIMENTS.md's "Full-width tiles" and
// "2-D register tiles" matrices.
void emit_vgg16_plan_matrix_json(int threads) {
  const models::VggConfig vgg = models::vgg16();
  const simd::CpuFeatures& features = simd::cpu_features();
  runtime::ThreadPool pool(threads);
  double default_ms = 0.0;
  std::uint64_t seed = 73;
  std::int64_t c = vgg.input_channels, hw = vgg.input_size;
  for (std::size_t b = 0; b < vgg.conv_blocks.size(); ++b, hw /= 2) {
    for (std::size_t j = 0; j < vgg.conv_blocks[b].size(); ++j) {
      const std::int64_t k = vgg.conv_blocks[b][j];
      const std::string layer = "conv" + std::to_string(b + 1) + "_" + std::to_string(j + 1);
      PackedTensor in(hw + 2, hw + 2, c);  // padded input, as the engine plans it
      fill_random_bits(in, seed++);
      PackedFilterBank filters(k, 3, 3, c);
      fill_random_bits(filters, seed++);
      const kernels::ConvSpec spec{3, 3, 1};
      PackedTensor out(hw, hw, k);
      const PackedTensor* ins[] = {&in};
      PackedTensor* outs[] = {&out};
      const simd::IsaLevel def = graph::default_kernel_plan(features).isa;
      for (const simd::IsaVariant& v : simd::supported_isa_variants()) {
        if (v.isa == simd::IsaLevel::kSse) continue;  // runs the u64 tile
        const std::int64_t t = kernels::weight_tile_width(v.isa);
        const TiledFilterBank bank = bitpack::tile_filters(filters, t);
        const auto fn = kernels::conv_binarize_kernel(v.isa, v.use_vpopcntdq);
        // Null limits: sign(dot).
        const double ms = 1e3 * runtime::measure_best_seconds(
                                    [&] { fn(ins, 1, bank, spec, nullptr, pool, outs, 0); }, 3,
                                    0.05);
        const bool is_default =
            v.isa == def &&
            v.use_vpopcntdq == (def == simd::IsaLevel::kAvx512 && features.avx512vpopcntdq);
        if (is_default) default_ms += ms;
        std::printf(
            "BENCH {\"bench\":\"vgg16_conv_plan\",\"layer\":\"%s\",\"hw\":%lld,\"c\":%lld,"
            "\"k\":%lld,\"isa\":\"%s\",\"tile\":%lld,\"p\":%lld,\"threads\":%d,"
            "\"default\":%s,\"ms\":%.3f}\n",
            layer.c_str(), static_cast<long long>(hw), static_cast<long long>(c),
            static_cast<long long>(k), std::string(v.name).c_str(), static_cast<long long>(t),
            static_cast<long long>(kernels::pixel_block(v.isa)), threads,
            is_default ? "true" : "false", ms);
        std::fflush(stdout);
      }
      c = k;
    }
  }
  std::printf("BENCH {\"bench\":\"vgg16_conv_plan_sum\",\"threads\":%d,\"default_ms\":%.3f}\n",
              threads, default_ms);
  std::fflush(stdout);
}

// --forkjoin mode: the pool's fork/join cost inside one inference.  A call
// is 22 empty parallel_for jobs, as many as a VGG-16 infer_batch makes
// (pack, 13 convs, 5 pools, 3 fcs), on an nproc pool, once unheld (every
// job wakes the parked workers) and once under a ThreadPool::Hold taken for
// the call, as infer_batch takes it (the workers spin from job to job and
// park after the call).  The two modes alternate in blocks of 50 calls so
// both see the same host; `calls` calls of each are timed after a warm-up.
// One `BENCH {"bench":"forkjoin",...}` line with p50 and p99 per call, the
// source of BENCH_forkjoin.json.
void emit_forkjoin_json(int calls) {
  constexpr int kJobsPerCall = 22, kBlock = 50;
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  runtime::ThreadPool pool(threads);
  const auto one_call = [&pool](bool held) {
    std::optional<runtime::ThreadPool::Hold> hold;
    if (held) hold.emplace(pool);
    for (int j = 0; j < kJobsPerCall; ++j) {
      pool.parallel_for(1024, [](runtime::Range r, int) { benchmark::DoNotOptimize(r); });
    }
  };
  std::vector<double> us[2];
  for (int done = -2 * kBlock; done < calls; done += kBlock) {  // two warm-up blocks
    for (const bool held : {false, true}) {
      for (int i = 0; i < kBlock; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        one_call(held);
        const double dt =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                .count();
        if (done >= 0) us[held ? 1 : 0].push_back(dt);
      }
    }
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  std::printf(
      "BENCH {\"bench\":\"forkjoin\",\"threads\":%d,\"jobs_per_call\":%d,\"calls\":%zu,"
      "\"unheld_p50_us\":%.2f,\"unheld_p99_us\":%.2f,\"held_p50_us\":%.2f,"
      "\"held_p99_us\":%.2f}\n",
      threads, kJobsPerCall, us[0].size(), quantile(us[0], 0.5), quantile(us[0], 0.99),
      quantile(us[1], 0.5), quantile(us[1], 0.99));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // --plans [--threads N] runs the VGG-16 plan matrix, and --forkjoin
  // [--calls N] the fork/join timing, instead of the google-benchmark suite.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--forkjoin") {
      int calls = 2000;
      if (i + 1 < argc && std::string_view(argv[i + 1]) == "--calls") {
        calls = i + 2 < argc ? std::atoi(argv[i + 2]) : 0;
      }
      if (calls < 1000 || calls > 1000000) {
        std::fprintf(stderr, "bench_micro: --forkjoin [--calls N] takes 1000 <= N <= 1000000\n");
        return 2;
      }
      emit_forkjoin_json(calls);
      return 0;
    }
    if (std::string_view(argv[i]) == "--plans") {
      int threads = 1;
      if (i + 1 < argc && std::string_view(argv[i + 1]) == "--threads") {
        threads = i + 2 < argc ? std::atoi(argv[i + 2]) : 0;
      }
      if (threads < 1 || threads > 64) {
        std::fprintf(stderr, "bench_micro: --plans [--threads N] takes 1 <= N <= 64\n");
        return 2;
      }
      emit_vgg16_plan_matrix_json(threads);
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_tiling_bench_json();
  emit_narrow_layer_bench_json();
  emit_telemetry_bench_json();
  emit_cancel_bench_json();
  return 0;
}
