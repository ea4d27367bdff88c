// Static binary network graph: BitFlow's network-level optimization layer
// (paper Sec. IV).
//
// A BinaryNetwork is built layer by layer from float or packed weights;
// each binary layer's weights are binarized, packed and lowered into the
// register-tile layout as they are added (graph/weights.hpp), once per
// process: a network instantiated from an io::Model shares the Model's
// immutable banks instead of copying them.  `finalize()` then performs
// everything else the paper does once at initialization:
//   * shape inference over the whole chain (scheduler component 1);
//   * kernel selection per operator from the detected hardware (components
//     2-3): conv and fc layers run register-tiled at the widest ISA, pools
//     by the channel-multiple rules of Fig. 6 (graph/scheduler.hpp);
//   * a tile width per layer: it adopts the lowered bank when its plan's
//     width matches the bank's and re-lays a private copy only when it
//     differs (an ISA cap or fallback that changes the tile width);
//   * a memory plan for the activation buffers — the static-graph memory
//     planner.  Each buffer carries the *consumer's* padding margin, so
//     padding is realized by writing the producer's output into the interior
//     (Fig. 5).  The chain is linear, so only two buffers are live at once:
//     buffer j is a view into ping-pong arena j % 2 of its batch slot, each
//     arena sized to the largest buffer of its parity.  Because arenas are
//     reused, a padded buffer's margin ring is re-zeroed (O(perimeter))
//     right before its producer runs, on every inference.
//
// Thread-safety / replicated serving (the contract the serve::Engine relies
// on): after finalize() the network itself is immutable — stages, packed
// weights, layer metadata and the memory plan are only ever read, and the
// weight banks it shares with an io::Model or other networks are immutable
// too.  All mutable per-inference state (thread pool, activation buffers,
// fc bit rows, score buffer, profile log) lives in an InferenceContext
// created by `make_context()`.  Any number of threads may call `infer_batch()`
// concurrently on the same finalized network as long as each call uses a
// different context; a single context must not be used by two calls at once.
// The convenience `infer()` uses one internal default context (created by
// its first call) and is therefore NOT safe to call concurrently —
// replicated workers must go through make_context() + infer_batch().
//
// `infer_batch()` runs N <= max_batch images in one pass with zero
// allocation at steady state: the batch axis is fused with the spatial
// range inside the kernels (one n*H parallel_for for the input pack, one
// n*out_h per pool, one n*H*W per conv, one n*K bgemm per fc), so a
// micro-batch costs one fork/join per layer instead of N, and the call
// holds the context's pool (runtime::ThreadPool::Hold), so its workers
// wake once per call rather than once per layer.  Output b is
// bit-identical to a batch-1 run of input b.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "graph/scheduler.hpp"
#include "graph/shape_infer.hpp"
#include "graph/weights.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::graph {

/// Kind of a network layer.
enum class LayerKind { kConv, kPool, kFc };

[[nodiscard]] constexpr const char* layer_kind_name(LayerKind k) noexcept {
  switch (k) {
    case LayerKind::kConv: return "conv";
    case LayerKind::kPool: return "maxpool";
    case LayerKind::kFc: return "fc";
  }
  return "?";
}

/// Introspection record for one layer (drives the Fig. 6 operator-to-kernel
/// mapping report and the per-layer profiles).
struct LayerInfo {
  std::string name;
  LayerKind kind = LayerKind::kConv;
  TensorDesc in;   ///< logical (unpadded) input extents
  TensorDesc out;  ///< logical output extents
  std::int64_t pad = 0;  ///< input padding consumed by this layer (conv only)
  simd::IsaLevel isa = simd::IsaLevel::kU64;
  std::string isa_reason;
  bool full_precision = false;  ///< first-layer float conv (see add_conv_float)
  /// Committed register-tile width T — that of default_kernel_plan's ISA,
  /// the plan the stage will dispatch.  T > 0 for every binary conv/fc layer
  /// (its bank holds ceil(K / T) whole tiles) and 0 for pools and a
  /// full-precision first layer.
  std::int64_t tile = 0;
};

/// One row of a per-layer profile (see BinaryNetwork::profile_report()).
/// Latencies are per infer_batch() invocation of that stage (a fused batch
/// is one invocation); GOPS is normalized by images, so batch size does not
/// inflate it.
struct LayerProfile {
  std::string name;    ///< layer name; row 0 is the input pack ("pack_input")
  std::string kernel;  ///< kernel + plan actually dispatched, e.g. "pressedconv_bin[avx2,t16,p4]"
  std::uint64_t calls = 0;   ///< stage invocations recorded
  std::uint64_t images = 0;  ///< images processed across those calls
  double mean_ms = 0.0;
  double p50_ms = 0.0;  ///< log2-bucket upper bound
  double p99_ms = 0.0;
  double min_ms = 0.0;
  /// Achieved binary-op throughput (2 ops per MAC, the bench convention);
  /// 0 for stages with no counted arithmetic (pool, input pack).
  double gops = 0.0;
  /// Compute roof of the register-tiled kernel this layer dispatches: its
  /// one-thread GOPS on cache-resident operands, calibrated once per
  /// process, times the largest thread count among the contexts that ran
  /// the profiled inferences; 0 = not applicable (full-precision, pool,
  /// pack) or no samples.
  double roof_gops = 0.0;
  /// Arithmetic intensity of the layer's direct binary convolution
  /// (core/ait, ops per memory element); 0 = not applicable.
  double ait = 0.0;
  /// Measured hardware-counter attribution (telemetry::PerfSampler), when
  /// perf_event_open could run: instructions per cycle and LLC misses per
  /// kilo-instruction across this stage's profiled invocations.  0 when the
  /// stage went unmeasured.
  double ipc = 0.0;
  double llc_mpki = 0.0;
  /// Roofline provenance: "measured" when hardware counters backed this
  /// row, "calibrated" when only the calibrated roof applies (perf
  /// unavailable: CI containers, perf_event_paranoid, BITFLOW_NO_PERF).
  std::string perf_source = "calibrated";
};

/// Aggregated per-layer profile of every profiled inference since finalize()
/// (or the last reset_profile()).
struct ProfileReport {
  std::vector<LayerProfile> rows;  ///< row 0 = input pack, then one per layer
  /// Human-readable fixed-width table (one row per layer) with a roofline
  /// column showing achieved/peak GOPS for binary layers.
  [[nodiscard]] std::string to_table() const;
};

/// Network-wide execution configuration.
struct NetworkConfig {
  int num_threads = 1;
  bool profile = false;  ///< record per-layer wall-clock on every inference
  /// Caps the scheduler's kernel choice (e.g. kAvx2 to model an i7-7700HQ
  /// on wider hardware), conv and fc layers included.  The cap must itself
  /// be hardware-supported.  A cap that changes a layer's tile width makes
  /// finalize() re-lay a private copy of its bank.
  std::optional<simd::IsaLevel> max_isa;
};

class BinaryNetwork;

/// All mutable per-inference state of one inference stream: a thread pool
/// plus every scratch buffer the network's memory plan calls for, sized for
/// up to `max_batch` images (two ping-pong activation arenas per image,
/// with one view per planned buffer built here).  Contexts are created by
/// BinaryNetwork::make_context(), are move-only, and must not outlive the
/// network they were made from.  One context serves one infer_batch() call
/// at a time; replicated workers each own their own context.
class InferenceContext {
 public:
  InferenceContext(InferenceContext&&) noexcept;
  InferenceContext& operator=(InferenceContext&&) noexcept;
  ~InferenceContext();

  [[nodiscard]] std::int64_t max_batch() const noexcept;
  [[nodiscard]] int num_threads() const noexcept;
  /// Bytes of packed-activation arena storage this context holds: per
  /// batch slot, the largest even-indexed plus the largest odd-indexed
  /// planned buffer, times max_batch.
  [[nodiscard]] std::int64_t activation_bytes() const noexcept;
  /// Per-layer wall-clock of the most recent infer_batch() through this
  /// context (profile mode only; one extra leading entry is the input pack).
  [[nodiscard]] const std::vector<double>& last_profile_ms() const;

 private:
  friend class BinaryNetwork;
  struct Impl;
  explicit InferenceContext(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Sequential binary network (BitFlow targets inference latency: linear
/// chains, micro-batches of a few images — exactly the serving workloads of
/// the paper's evaluation).
class BinaryNetwork {
 public:
  explicit BinaryNetwork(NetworkConfig cfg = {});
  BinaryNetwork(BinaryNetwork&&) noexcept;
  BinaryNetwork& operator=(BinaryNetwork&&) noexcept;
  ~BinaryNetwork();

  // --- construction ---------------------------------------------------------

  /// Appends a binary convolution with symmetric spatial padding `pad`.
  /// `thresholds` (size K, may be empty = all zero) is the per-output-channel
  /// binarization threshold (folded batch-norm).  Output is re-binarized
  /// unless this ends up being the network's last layer.
  void add_conv(std::string name, FilterBank weights, std::int64_t stride, std::int64_t pad,
                std::vector<float> thresholds = {});

  /// Appends a *full-precision* convolution as the network's first layer:
  /// the float input is convolved with float weights (image-to-column +
  /// sgemm), and the outputs are binarized through `thresholds` into the
  /// packed pipeline.  Keeping the first layer in full precision is the
  /// accuracy-recovery technique the paper cites (Zhuang et al.): the
  /// input image carries real-valued information a sign() would destroy,
  /// and the first layer is a tiny fraction of total compute (C is 3).
  /// Only valid as the first layer.
  void add_conv_float(std::string name, FilterBank weights, std::int64_t stride,
                      std::int64_t pad, std::vector<float> thresholds = {});

  /// Appends a binary convolution whose weights are already lowered (e.g.
  /// an io::Model's bank): the network shares them, and finalize() copies
  /// them only when its plan needs another layout.
  void add_conv_packed(std::string name, ConvWeights filters, std::int64_t stride,
                       std::int64_t pad, std::vector<float> thresholds = {});

  /// Appends a binary max pooling layer.
  void add_maxpool(std::string name, kernels::PoolSpec spec);

  /// Appends a binary fully connected layer; `weights` is the row-major
  /// n x k float matrix of the paper's Table III convention.
  void add_fc(std::string name, std::vector<float> weights, std::int64_t n, std::int64_t k,
              std::vector<float> thresholds = {});

  /// Appends a binary fully connected layer from already-lowered K x N
  /// weights (one packed input-vector row per output neuron, as produced by
  /// bitpack::pack_transpose_fc_weights and lower_fc_weights), shared like
  /// add_conv_packed's.
  void add_fc_packed(std::string name, FcWeights weights, std::vector<float> thresholds = {});

  /// Runs shape inference, kernel selection, weight layout and memory
  /// planning for input extents `input`.  Must be called exactly once,
  /// after which the network is immutable (see the thread-safety contract
  /// at the top of this header).
  void finalize(TensorDesc input);

  // --- inference -------------------------------------------------------------

  /// Allocates an inference context able to run micro-batches of up to
  /// `max_batch` images.  The overload with `num_threads` sizes the
  /// context's own thread pool (default: the network's configured count) —
  /// replicated engine workers typically use a small per-worker pool.
  /// Only valid after finalize(); const and safe to call concurrently.
  [[nodiscard]] InferenceContext make_context(std::int64_t max_batch) const;
  [[nodiscard]] InferenceContext make_context(std::int64_t max_batch, int num_threads) const;

  /// Batch-N inference: runs inputs[0..n) (all matching the finalized input
  /// extents) through the chain using `ctx`'s buffers and pool.  Returns the
  /// concatenated float scores, laid out [image 0 scores | image 1 scores |
  /// ...], valid until the context's next use.  Bit-exact with n separate
  /// batch-1 runs.  Const: any number of concurrent calls are safe as long
  /// as every call uses a distinct context.
  std::span<const float> infer_batch(std::span<const Tensor* const> inputs,
                                     InferenceContext& ctx) const;

  /// Same, with cooperative cancellation: `cancel` is polled at every layer
  /// boundary (throwing core::CancelledError when it fired) and installed on
  /// the context's thread pool so parallel_for range chunks skip once it
  /// latches — an abandoned batch stops within roughly one layer instead of
  /// burning the full forward pass.  An inert (default) token makes this
  /// identical to the overload above; the per-checkpoint disarmed cost is
  /// one null check (< 2 ns, gated in CI like the disarmed TraceSpan).  On
  /// cancellation the context's buffers hold garbage but the context stays
  /// valid for the next call.
  std::span<const float> infer_batch(std::span<const Tensor* const> inputs,
                                     InferenceContext& ctx,
                                     const core::CancelToken& cancel) const;

  /// Batch-1 convenience API over an internal default context (created by
  /// the first call).  NOT safe to call concurrently — see the header contract.
  /// The returned span stays valid until the next call.
  std::span<const float> infer(const Tensor& input_hwc);

  // --- introspection -----------------------------------------------------------

  [[nodiscard]] bool finalized() const noexcept;
  [[nodiscard]] const std::vector<LayerInfo>& layers() const;
  [[nodiscard]] TensorDesc input_desc() const;
  [[nodiscard]] std::int64_t output_size() const;
  [[nodiscard]] int num_threads() const noexcept;
  /// Total bytes of packed weights (the 32x model-size story of Table V).
  [[nodiscard]] std::int64_t packed_weight_bytes() const;
  /// Per-layer wall-clock of the most recent infer() (profile mode only;
  /// index matches layers(); one extra leading entry is the input pack).
  /// Reads the default context — for infer_batch() use
  /// InferenceContext::last_profile_ms().
  [[nodiscard]] const std::vector<double>& last_profile_ms() const;

  /// Aggregated per-layer profile across every profiled inference through
  /// this network (all contexts; the per-layer accumulators are lock-free,
  /// so concurrent replicated workers profile into the same report).
  /// Populated when NetworkConfig::profile is set or process-wide profiling
  /// is armed (telemetry::set_profiling / BITFLOW_PROFILE=1); with profiling
  /// disarmed the rows carry the static metadata but zero samples.  The
  /// first report with samples on a kernel not yet calibrated in this
  /// process times that kernel on one thread (a few ms; see
  /// LayerProfile::roof_gops).  Only valid after finalize().
  [[nodiscard]] ProfileReport profile_report() const;

  /// Clears the profile accumulators and the roof's thread count (not the
  /// static metadata).  Do not call concurrently with in-flight profiled
  /// inferences.
  void reset_profile();

 private:
  friend class InferenceContext;  // its Impl allocates from the buffer plan
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bitflow::graph
