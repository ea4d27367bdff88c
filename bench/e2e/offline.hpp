// Offline measurement primitives: cold starts, the closed infer_batch loop,
// reference scores and the per-layer report from profile_report().  The
// served workloads reuse them for their offline reference and probes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"

namespace bench_e2e {

/// A network with one context (declared after it, so destroyed first).
struct LoadedNet {
  explicit LoadedNet(bitflow::graph::BinaryNetwork n) : net(std::move(n)) {}
  bitflow::graph::BinaryNetwork net;
  std::optional<bitflow::graph::InferenceContext> ctx;
  std::vector<float> first_output;  ///< the cold start's first result
};

/// Wall time of each step of one cold start.
struct StageTimes {
  double load_ms = 0, instantiate_ms = 0, make_context_ms = 0, first_infer_ms = 0;
  double total_s = 0;
};

/// Load `path`, instantiate with `threads` threads, make a context for
/// `batch` images and run the first inference, on images[0] alone: one
/// cold start.  It ends at the first result, so batch throughput, which
/// the end-to-end loop measures, stays out of it.  The loaded model is
/// moved into `model`.
[[nodiscard]] std::unique_ptr<LoadedNet> cold_start(const std::string& path, int threads,
                                                    std::int64_t batch,
                                                    const std::vector<bitflow::Tensor>& images,
                                                    bitflow::io::Model& model, StageTimes& t);

/// setup_s (the total) and each step of one cold start.
void report_setup(const StageTimes& t, Report& r);

/// One n=1 run per image, checked with plausible_binary_scores; an
/// implausible reference counts as a wrong output.
[[nodiscard]] Scores reference_scores(const bitflow::graph::BinaryNetwork& net,
                                      bitflow::graph::InferenceContext& ctx,
                                      const std::vector<bitflow::Tensor>& images,
                                      std::int64_t fan_in, Report& r);

struct LoopResult {
  std::vector<double> lat_ms;  ///< one sample per infer_batch call
  std::uint64_t images = 0;
  std::uint64_t wrong = 0;
  double elapsed_s = 0;
};

/// Back-to-back infer_batch calls of `batch` images for `seconds` (and at
/// least `min_calls`), rotating through `images`; every output image is
/// compared bit for bit with its n=1 reference.
LoopResult closed_loop(const bitflow::graph::BinaryNetwork& net,
                       bitflow::graph::InferenceContext& ctx, std::int64_t batch,
                       double seconds, std::size_t min_calls,
                       const std::vector<bitflow::Tensor>& images, const Scores& refs);

/// Adds a loop's images and wrong outputs to the run's counts.
inline LoopResult tally(LoopResult loop, Report& r) {
  r.attempted += loop.images;
  r.wrong += loop.wrong;
  return loop;
}

/// Per-layer metrics from the network's profile over the calls made since
/// `since` (a profile_report() taken after warm-up): kernels.<layer>_ms,
/// kernels.{conv,pool,fc}_ms, bitpack.pack_input_ms, kernels.binary_gops and
/// kernels.fc_weight_gbytes_s.  Returns the summed per-call time of every
/// row (input pack included), for attribution closure.
double report_kernels(const bitflow::graph::BinaryNetwork& net,
                      const bitflow::graph::ProfileReport& since,
                      const bitflow::io::Model& model, Report& r);

/// runtime.thread_speedup: median infer_batch time on a 1-thread context
/// (a tenth of the run, at least min_calls() calls) over `nproc_median_ms`,
/// the median at nproc threads.
void report_thread_speedup(const bitflow::graph::BinaryNetwork& net, std::int64_t batch,
                           const RunOptions& opt, double nproc_median_ms,
                           const std::vector<bitflow::Tensor>& images, const Scores& refs,
                           Report& r);

}  // namespace bench_e2e
