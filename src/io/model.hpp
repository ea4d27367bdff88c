// Serializable model container: the deployment artifact of BitFlow.
//
// A Model holds a binarized network — layer sequence, bit-packed weights,
// folded thresholds, input extents — and converts in both directions:
//
//   train::Sequential --export_to_model()--> Model --save()--> .bflow file
//   .bflow file --Model::load()--> Model --instantiate()--> BinaryNetwork
//
// The on-disk format ("BFLW", version 1) is little-endian and
// self-describing; see format.md-style notes in model.cpp.  Packed weights
// are stored 1 bit per weight, so a VGG-16 model file is ~17 MB against
// ~528 MB of float weights — the deployment half of Table V.
//
// In memory the binary weights are already in engine layout: load() and
// add_conv()/add_fc() lower each bank once (graph/weights.hpp), and every
// network instantiate() builds shares those immutable banks instead of
// copying them.  load() reads each bank straight into that layout.
// load(path) on a regular file walks the headers, then reads, checks and
// interleaves every bank's chunks in one fan-out over the CPUs the process
// may run on, on a transient pool it joins before returning.  load(istream)
// (and load(path) on a FIFO or a character device) is the serial route: it
// reads the stream straight through, with no seeking, and places each bank
// on the caller's thread as it reaches it, so any std::istream works.  No
// thread outlives load(), and two loads may run at once.  The file format
// does not follow the memory layout: save() writes the v1 filter-major
// words, de-interleaving as it goes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "graph/weights.hpp"
#include "kernels/binary_maxpool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::io {

/// Default ceiling on the total weight/threshold payload bytes a single
/// Model::load may allocate (1 GiB — comfortably above any real BNN, far
/// below what a corrupt header can request).
inline constexpr std::int64_t kDefaultModelLoadBudgetBytes = std::int64_t{1} << 30;

/// Process-wide Model::load allocation budget.  The loader computes each
/// layer's payload size with overflow-checked arithmetic and rejects the
/// file (clean std::runtime_error, no allocation) once the running total
/// exceeds this budget — per-dimension extents can individually look
/// plausible while their product demands terabytes.
[[nodiscard]] std::int64_t model_load_budget_bytes() noexcept;

/// Replaces the load budget (serving operators size this to their fleet's
/// memory headroom).  Throws std::invalid_argument when bytes < 1.
void set_model_load_budget_bytes(std::int64_t bytes);

/// One serialized layer.  Exactly one of the kind-specific payloads is
/// meaningful, selected by `kind`.
struct LayerRecord {
  graph::LayerKind kind = graph::LayerKind::kConv;
  std::string name;
  // conv
  bool full_precision = false;   ///< first-layer float conv (kind == kConv)
  graph::ConvWeights filters;    ///< binary conv weights (engine layout, shared)
  FilterBank float_filters;      ///< full-precision conv weights
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  // pool
  kernels::PoolSpec pool;
  // fc
  graph::FcWeights fc_weights;  ///< K x N rows (engine layout, shared)
  // conv / fc
  std::vector<float> thresholds;
};

/// Engine-independent binarized model description.
class Model {
 public:
  Model() = default;
  explicit Model(graph::TensorDesc input) : input_(input) {}

  [[nodiscard]] graph::TensorDesc input() const noexcept { return input_; }
  void set_input(graph::TensorDesc d) noexcept { input_ = d; }

  [[nodiscard]] const std::vector<LayerRecord>& layers() const noexcept { return layers_; }
  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }

  /// Appends a conv layer with packed filters, lowered into engine layout
  /// (std::runtime_error when a padding bit is set).
  void add_conv(std::string name, PackedFilterBank filters, std::int64_t stride,
                std::int64_t pad, std::vector<float> thresholds = {});
  /// Appends a full-precision first-layer conv with float filters.
  void add_conv_float(std::string name, FilterBank filters, std::int64_t stride,
                      std::int64_t pad, std::vector<float> thresholds = {});
  /// Appends a max pooling layer.
  void add_maxpool(std::string name, kernels::PoolSpec spec);
  /// Appends a fully connected layer with packed K x N weights, lowered
  /// like add_conv's.
  void add_fc(std::string name, PackedMatrix weights, std::vector<float> thresholds = {});

  /// Builds and finalizes an engine network for this model.  The network
  /// shares this Model's weight banks (it may outlive the Model) and copies
  /// a layer's bank only when `cfg` plans another layout for it.
  [[nodiscard]] graph::BinaryNetwork instantiate(graph::NetworkConfig cfg) const;

  /// Total packed weight bytes (the model-file payload size).
  [[nodiscard]] std::int64_t weight_bytes() const;

  // --- persistence -----------------------------------------------------------

  /// Writes the model to `path` (throws std::runtime_error on I/O failure).
  void save(const std::string& path) const;
  void save(std::ostream& os) const;

  /// Reads a model from `path` (throws std::runtime_error on I/O failure or
  /// malformed/unsupported content, including a set weight padding bit).
  /// Both overloads load the same model, or throw the same error, for the
  /// same bytes.
  [[nodiscard]] static Model load(const std::string& path);
  [[nodiscard]] static Model load(std::istream& is);

 private:
  /// What load() reads from, and the one parse both load()s run (model.cpp).
  class Source;
  static Model parse(Source& src);

  graph::TensorDesc input_{};
  std::vector<LayerRecord> layers_;
};

}  // namespace bitflow::io
