#include "offline.hpp"

#include <cstdio>

#include "model_gen.hpp"
#include "stats.hpp"

namespace bench_e2e {

using namespace bitflow;

std::unique_ptr<LoadedNet> cold_start(const std::string& path, int threads, std::int64_t batch,
                                      const std::vector<Tensor>& images, io::Model& model,
                                      StageTimes& t) {
  Span whole("setup.cold_start", "setup");
  model = io::Model();  // the previous start's model is gone before this one loads
  const auto t0 = Clock::now();
  {
    Span s("io.load", "io");
    model = io::Model::load(path);
  }
  const auto t1 = Clock::now();
  graph::NetworkConfig cfg;
  cfg.num_threads = threads;
  std::unique_ptr<LoadedNet> loaded;
  {
    Span s("graph.instantiate", "graph");
    loaded = std::make_unique<LoadedNet>(model.instantiate(cfg));
  }
  const auto t2 = Clock::now();
  {
    Span s("graph.make_context", "graph");
    loaded->ctx.emplace(loaded->net.make_context(batch));
  }
  const auto t3 = Clock::now();
  std::span<const float> first;
  {
    Span s("graph.first_infer", "graph");
    const Tensor* input = &images[0];
    first = loaded->net.infer_batch({&input, 1}, *loaded->ctx);
  }
  const auto t4 = Clock::now();
  loaded->first_output.assign(first.begin(), first.end());
  t.load_ms = ms_between(t0, t1);
  t.instantiate_ms = ms_between(t1, t2);
  t.make_context_ms = ms_between(t2, t3);
  t.first_infer_ms = ms_between(t3, t4);
  t.total_s = ms_between(t0, t4) / 1e3;
  return loaded;
}

void report_setup(const StageTimes& t, Report& r) {
  r.set("setup_s", t.total_s, "s");
  r.set("io.load_ms", t.load_ms, "ms");
  r.set("graph.instantiate_ms", t.instantiate_ms, "ms");
  r.set("graph.make_context_ms", t.make_context_ms, "ms");
  r.set("graph.first_infer_ms", t.first_infer_ms, "ms");
}

Scores reference_scores(const graph::BinaryNetwork& net, graph::InferenceContext& ctx,
                        const std::vector<Tensor>& images, std::int64_t fan_in, Report& r) {
  Scores refs;
  for (const Tensor& img : images) {
    const Tensor* input = &img;
    const std::span<const float> out = net.infer_batch({&input, 1}, ctx);
    refs.emplace_back(out.begin(), out.end());
    if (!plausible_binary_scores(refs.back(), fan_in)) {
      std::printf("# WRONG: reference scores are not binary dot products of fan-in %lld\n",
                  static_cast<long long>(fan_in));
      ++r.wrong;
    }
  }
  r.digest = digest_hex(refs);
  return refs;
}

LoopResult closed_loop(const graph::BinaryNetwork& net, graph::InferenceContext& ctx,
                       std::int64_t batch, double seconds, std::size_t min_calls,
                       const std::vector<Tensor>& images, const Scores& refs) {
  LoopResult res;
  std::vector<const Tensor*> inputs(static_cast<std::size_t>(batch));
  std::vector<std::size_t> idx(inputs.size());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  for (std::size_t call = 0; call < min_calls || Clock::now() < end; ++call) {
    // Rotate the batch so every image visits every batch slot.
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      idx[j] = (call + j) % images.size();
      inputs[j] = &images[idx[j]];
    }
    const auto t0 = Clock::now();
    const std::span<const float> out = net.infer_batch(inputs, ctx);
    const auto t1 = Clock::now();
    spans().record("graph.infer_batch", "graph", t0, t1, call + 1);
    res.lat_ms.push_back(ms_between(t0, t1));
    const std::size_t per_image = out.size() / inputs.size();
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (!same_scores(out.subspan(j * per_image, per_image), refs[idx[j]])) ++res.wrong;
    }
    res.images += inputs.size();
  }
  res.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  return res;
}

namespace {

/// Binary ops (2 per multiply-accumulate) of one image through a layer.
double layer_ops(const io::LayerRecord& rec, const graph::LayerInfo& info) {
  switch (rec.kind) {
    case graph::LayerKind::kConv:
      return 2.0 * static_cast<double>(info.out.h * info.out.w * info.out.c) *
             static_cast<double>(rec.filters.bits_per_filter());
    case graph::LayerKind::kFc:
      return 2.0 * static_cast<double>(rec.fc_weights.rows() * rec.fc_weights.cols());
    case graph::LayerKind::kPool:
      return 0.0;
  }
  return 0.0;
}

}  // namespace

double report_kernels(const graph::BinaryNetwork& net, const graph::ProfileReport& since,
                       const io::Model& model, Report& r) {
  const graph::ProfileReport rep = net.profile_report();
  std::printf("%s", rep.to_table().c_str());
  // Per-row activity since the snapshot.
  struct Delta {
    double calls, images, total_ns, mean_ms;
  };
  const auto delta = [&](std::size_t i) {
    const graph::LayerProfile& now = rep.rows[i];
    const graph::LayerProfile& then = since.rows[i];
    Delta d{static_cast<double>(now.calls - then.calls),
            static_cast<double>(now.images - then.images),
            1e6 * (now.mean_ms * static_cast<double>(now.calls) -
                   then.mean_ms * static_cast<double>(then.calls)),
            0.0};
    d.mean_ms = d.calls > 0 ? d.total_ns / d.calls / 1e6 : 0.0;
    return d;
  };
  const std::vector<graph::LayerInfo>& infos = net.layers();
  double kind_ms[3] = {0, 0, 0};
  double ops = 0, binary_ns = 0, fc_bytes = 0, fc_ns = 0;
  double all_rows_ms = delta(0).mean_ms;
  r.set("bitpack.pack_input_ms", all_rows_ms, "ms", "mean per call");
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const Delta d = delta(i + 1);
    const io::LayerRecord& rec = model.layers()[i];
    r.set("kernels." + infos[i].name + "_ms", d.mean_ms, "ms", "mean per call");
    all_rows_ms += d.mean_ms;
    kind_ms[static_cast<int>(rec.kind)] += d.mean_ms;
    if (rec.kind != graph::LayerKind::kPool) {
      ops += layer_ops(rec, infos[i]) * d.images;
      binary_ns += d.total_ns;
    }
    if (rec.kind == graph::LayerKind::kFc) {
      fc_bytes += static_cast<double>(rec.fc_weights.num_words() * 8) * d.calls;
      fc_ns += d.total_ns;
    }
  }
  r.set("kernels.conv_ms", kind_ms[static_cast<int>(graph::LayerKind::kConv)], "ms");
  r.set("kernels.pool_ms", kind_ms[static_cast<int>(graph::LayerKind::kPool)], "ms");
  r.set("kernels.fc_ms", kind_ms[static_cast<int>(graph::LayerKind::kFc)], "ms");
  r.set("kernels.binary_gops", binary_ns > 0 ? ops / binary_ns : 0.0, "GOPS",
        "ops from layer shapes");
  r.set("kernels.fc_weight_gbytes_s", fc_ns > 0 ? fc_bytes / fc_ns : 0.0, "GB/s",
        "fc weight bytes streamed per call");
  return all_rows_ms;
}

void report_thread_speedup(const graph::BinaryNetwork& net, std::int64_t batch,
                           const RunOptions& opt, double nproc_median_ms,
                           const std::vector<Tensor>& images, const Scores& refs, Report& r) {
  graph::InferenceContext one = net.make_context(batch, 1);
  const LoopResult single =
      tally(closed_loop(net, one, batch, opt.seconds * 0.1, opt.min_calls(), images, refs), r);
  r.set("runtime.thread_speedup", median(single.lat_ms) / nproc_median_ms, "x",
        "1-thread median " + std::to_string(median(single.lat_ms)) + " ms");
}

Report setup_offline(const RunOptions& opt, std::int64_t batch) {
  Report r;
  const std::vector<Tensor> images = make_images(model_input(opt.workload), 1, opt.seed);
  io::Model model;
  StageTimes t;
  const std::unique_ptr<LoadedNet> loaded =
      cold_start(opt.model_path, opt.nproc, batch, images, model, t);
  report_setup(t, r);
  r.set("setup_rss_mb", peak_rss_mb(), "MB", "resident high-water mark after set-up");

  // Untimed: the cold first result against a second, warm run of the same
  // image (the workload process checks every image of every batch).
  const Scores refs = reference_scores(loaded->net, *loaded->ctx, images, last_fan_in(model), r);
  ++r.attempted;
  if (!same_scores(loaded->first_output, refs[0])) ++r.wrong;
  return r;
}

Report run_offline(const RunOptions& opt, std::int64_t batch) {
  Report r;
  const std::vector<Tensor> images = make_images(model_input(opt.workload), 8, opt.seed);
  io::Model model;
  StageTimes ignored;  // set-up is timed in processes of its own
  const std::unique_ptr<LoadedNet> loaded =
      cold_start(opt.model_path, opt.nproc, batch, images, model, ignored);
  const Scores refs = reference_scores(loaded->net, *loaded->ctx, images, last_fan_in(model), r);

  // End-to-end timings; a traced run spends half its time here.
  const double measure_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  (void)closed_loop(loaded->net, *loaded->ctx, batch, opt.warmup_s(), 1, images, refs);
  const LoopResult run =
      tally(closed_loop(loaded->net, *loaded->ctx, batch, measure_s, 1, images, refs), r);
  const Summary lat = summarize(run.lat_ms);
  r.set("e2e.latency_p50_ms", lat.p50, "ms", lat.note(50));
  r.set("e2e.latency_p90_ms", lat.p90, "ms", lat.note(90));
  r.set("e2e.light_latency_p50_ms", lat.p50, "ms", "closed loop: equals e2e.latency_p50_ms");
  r.set("e2e.throughput_img_s", static_cast<double>(run.images) / run.elapsed_s, "img/s",
        std::to_string(run.images) + " images");
  if (!opt.traced) return r;

  // Traced half: a profiled instance of the same model, same loop.
  graph::NetworkConfig cfg;
  cfg.num_threads = opt.nproc;
  cfg.profile = true;
  const graph::BinaryNetwork profiled = model.instantiate(cfg);
  graph::InferenceContext pctx = profiled.make_context(batch);
  (void)closed_loop(profiled, pctx, batch, opt.warmup_s(), 1, images, refs);
  const graph::ProfileReport warm = profiled.profile_report();
  const LoopResult traced =
      tally(closed_loop(profiled, pctx, batch, measure_s, 1, images, refs), r);
  const double rows_ms = report_kernels(profiled, warm, model, r);
  const double wall_ms = summarize(traced.lat_ms).mean;
  r.set("graph.infer_batch_ms", wall_ms, "ms", "mean wall time per call, profiled");
  r.set("graph.unattributed_ms", wall_ms - rows_ms, "ms",
        "closure " + std::to_string(100.0 * rows_ms / wall_ms) + "% of wall time");
  r.set("telemetry.profile_overhead_pct",
        100.0 * (summarize(traced.lat_ms).p50 - lat.p50) / lat.p50, "%");
  report_thread_speedup(loaded->net, batch, opt, lat.p50, images, refs, r);
  return r;
}

}  // namespace bench_e2e
