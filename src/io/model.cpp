// On-disk format (version 1, little-endian):
//
//   magic   : 4 bytes "BFLW"
//   version : u32 = 1
//   input   : 3 x i64 (h, w, c)
//   count   : u32 layer count
//   layers  : repeated
//     kind  : u8 (0 conv, 1 pool, 2 fc, 3 full-precision conv)
//     name  : u32 length + bytes
//     conv  : i64 k, kh, kw, c, stride, pad; u8 has_thresholds;
//             [k x f32 thresholds]; k*kh*kw*ceil(c/64) x u64 packed words
//     pool  : i64 pool_h, pool_w, stride
//     fc    : i64 k, n; u8 has_thresholds; [k x f32];
//             k*ceil(n/64) x u64 packed words
//     fconv : i64 k, kh, kw, c, stride, pad; u8 has_thresholds;
//             [k x f32 thresholds]; k*kh*kw*c x f32 float weights
//
// The format stores packed words in host (little-endian) order; BitFlow
// targets x86, so no byte swapping is performed.  Words are filter-major
// (row-major for fc) whatever layout the engine runs.  load() reads layers
// in file order, with no seeking; a binary bank's words stream through
// graph::stream_conv_weights / stream_fc_weights, which check and
// interleave them into engine layout chunk by chunk as they are read — on
// the caller's thread, or for a bank of 2 MiB and up on a transient pool of
// load workers that the call joins.  A bank in memory holds whole register
// tiles, so up to T - 1 zero pad rows past k, which the load budget is
// charged for and no file ever holds.  save() de-interleaves each bank back
// one tile block at a time and writes its k real rows.  Padding bits (above C in a conv tap's last
// word, above n in an fc row's last word) must be zero.  A corrupt or
// truncated stream throws std::runtime_error with a description of what
// failed.
#include "io/model.hpp"

#include <atomic>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "core/failpoint.hpp"

namespace bitflow::io {

namespace {

constexpr char kMagic[4] = {'B', 'F', 'L', 'W'};
constexpr std::uint32_t kVersion = 1;

// Ordering contract: relaxed loads/stores — the budget is a standalone
// configuration value; a load racing a set_model_load_budget_bytes() call
// legitimately sees either bound, and nothing else is published through it.
std::atomic<std::int64_t> g_load_budget{kDefaultModelLoadBudgetBytes};

/// `a * b`, throwing instead of overflowing.  Loader sizes are products of
/// attacker-controlled extents: each factor can pass its per-dimension
/// plausibility cap while the product wraps int64 or demands terabytes.
std::int64_t checked_mul(std::int64_t a, std::int64_t b, const char* what) {
  if (a != 0 && b > std::numeric_limits<std::int64_t>::max() / a) {
    throw std::runtime_error(std::string("model load: size overflow computing ") + what);
  }
  return a * b;
}

/// Running total of payload bytes a load is about to allocate; charge()
/// must be called BEFORE the corresponding allocation happens.
class PayloadBudget {
 public:
  void charge(std::int64_t bytes, const char* what) {
    if (bytes < 0 || bytes > std::numeric_limits<std::int64_t>::max() - used_) {
      throw std::runtime_error(std::string("model load: size overflow computing ") + what);
    }
    used_ += bytes;
    const std::int64_t budget = g_load_budget.load(std::memory_order_relaxed);
    if (used_ > budget) {
      throw std::runtime_error(std::string("model load: weight payload exceeds the ") +
                               std::to_string(budget) + "-byte load budget at " + what);
    }
  }

 private:
  std::int64_t used_ = 0;
};

// --- little-endian primitive I/O ------------------------------------------

template <typename T>
void write_pod(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error(std::string("model load: truncated reading ") + what);
  return value;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto len = read_pod<std::uint32_t>(is, "string length");
  if (len > 4096) throw std::runtime_error("model load: implausible name length");
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is) throw std::runtime_error("model load: truncated reading name");
  return s;
}

std::int64_t read_extent(std::istream& is, const char* what, std::int64_t max = 1 << 24) {
  const auto v = read_pod<std::int64_t>(is, what);
  if (v <= 0 || v > max) {
    throw std::runtime_error(std::string("model load: implausible extent for ") + what);
  }
  return v;
}

void write_thresholds(std::ostream& os, const std::vector<float>& th) {
  write_pod<std::uint8_t>(os, th.empty() ? 0 : 1);
  if (!th.empty()) {
    os.write(reinterpret_cast<const char*>(th.data()),
             static_cast<std::streamsize>(th.size() * sizeof(float)));
  }
}

/// The ByteSource a bank streams its words from: `is`, throwing
/// `truncated` on a short read.
graph::ByteSource payload_reader(std::istream& is, const char* truncated) {
  return [&is, truncated](void* dst, std::int64_t bytes) {
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    if (!is) throw std::runtime_error(truncated);
  };
}

std::vector<float> read_thresholds(std::istream& is, std::int64_t count) {
  const auto has = read_pod<std::uint8_t>(is, "threshold flag");
  if (has == 0) return {};
  std::vector<float> th(static_cast<std::size_t>(count));
  is.read(reinterpret_cast<char*>(th.data()),
          static_cast<std::streamsize>(th.size() * sizeof(float)));
  if (!is) throw std::runtime_error("model load: truncated reading thresholds");
  return th;
}

}  // namespace

std::int64_t model_load_budget_bytes() noexcept {
  return g_load_budget.load(std::memory_order_relaxed);
}

void set_model_load_budget_bytes(std::int64_t bytes) {
  if (bytes < 1) throw std::invalid_argument("model load budget must be >= 1 byte");
  g_load_budget.store(bytes, std::memory_order_relaxed);
}

void Model::add_conv(std::string name, PackedFilterBank filters, std::int64_t stride,
                     std::int64_t pad, std::vector<float> thresholds) {
  if (!thresholds.empty() &&
      thresholds.size() != static_cast<std::size_t>(filters.num_filters())) {
    throw std::invalid_argument("Model::add_conv: thresholds size mismatch");
  }
  LayerRecord r;
  r.kind = graph::LayerKind::kConv;
  r.name = std::move(name);
  r.filters = graph::lower_conv_weights(std::move(filters), r.name);
  r.stride = stride;
  r.pad = pad;
  r.thresholds = std::move(thresholds);
  layers_.push_back(std::move(r));
}

void Model::add_conv_float(std::string name, FilterBank filters, std::int64_t stride,
                           std::int64_t pad, std::vector<float> thresholds) {
  if (!thresholds.empty() &&
      thresholds.size() != static_cast<std::size_t>(filters.num_filters())) {
    throw std::invalid_argument("Model::add_conv_float: thresholds size mismatch");
  }
  LayerRecord r;
  r.kind = graph::LayerKind::kConv;
  r.full_precision = true;
  r.name = std::move(name);
  r.float_filters = std::move(filters);
  r.stride = stride;
  r.pad = pad;
  r.thresholds = std::move(thresholds);
  layers_.push_back(std::move(r));
}

void Model::add_maxpool(std::string name, kernels::PoolSpec spec) {
  LayerRecord r;
  r.kind = graph::LayerKind::kPool;
  r.name = std::move(name);
  r.pool = spec;
  layers_.push_back(std::move(r));
}

void Model::add_fc(std::string name, PackedMatrix weights, std::vector<float> thresholds) {
  if (!thresholds.empty() && thresholds.size() != static_cast<std::size_t>(weights.rows())) {
    throw std::invalid_argument("Model::add_fc: thresholds size mismatch");
  }
  LayerRecord r;
  r.kind = graph::LayerKind::kFc;
  r.name = std::move(name);
  r.fc_weights = graph::lower_fc_weights(std::move(weights), r.name);
  r.thresholds = std::move(thresholds);
  layers_.push_back(std::move(r));
}

graph::BinaryNetwork Model::instantiate(graph::NetworkConfig cfg) const {
  graph::BinaryNetwork net(cfg);
  for (const LayerRecord& r : layers_) {
    switch (r.kind) {
      case graph::LayerKind::kConv:
        if (r.full_precision) {
          net.add_conv_float(r.name, r.float_filters, r.stride, r.pad, r.thresholds);
        } else {
          net.add_conv_packed(r.name, r.filters, r.stride, r.pad, r.thresholds);
        }
        break;
      case graph::LayerKind::kPool:
        net.add_maxpool(r.name, r.pool);
        break;
      case graph::LayerKind::kFc:
        net.add_fc_packed(r.name, r.fc_weights, r.thresholds);
        break;
    }
  }
  net.finalize(input_);
  return net;
}

std::int64_t Model::weight_bytes() const {
  std::int64_t total = 0;
  for (const LayerRecord& r : layers_) {
    if (r.kind == graph::LayerKind::kConv) {
      total += r.full_precision ? r.float_filters.num_elements() * 4 : r.filters.num_words() * 8;
    } else if (r.kind == graph::LayerKind::kFc) {
      total += r.fc_weights.num_words() * 8;
    }
  }
  return total;
}

void Model::save(std::ostream& os) const {
  const graph::WordSink write_words = [&os](const std::uint64_t* words, std::int64_t count) {
    os.write(reinterpret_cast<const char*>(words), static_cast<std::streamsize>(count * 8));
  };
  os.write(kMagic, 4);
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::int64_t>(os, input_.h);
  write_pod<std::int64_t>(os, input_.w);
  write_pod<std::int64_t>(os, input_.c);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(layers_.size()));
  for (const LayerRecord& r : layers_) {
    const std::uint8_t kind_byte =
        r.kind == graph::LayerKind::kConv && r.full_precision
            ? 3
            : static_cast<std::uint8_t>(r.kind);
    write_pod<std::uint8_t>(os, kind_byte);
    write_string(os, r.name);
    if (kind_byte == 3) {
      write_pod<std::int64_t>(os, r.float_filters.num_filters());
      write_pod<std::int64_t>(os, r.float_filters.kernel_h());
      write_pod<std::int64_t>(os, r.float_filters.kernel_w());
      write_pod<std::int64_t>(os, r.float_filters.channels());
      write_pod<std::int64_t>(os, r.stride);
      write_pod<std::int64_t>(os, r.pad);
      write_thresholds(os, r.thresholds);
      os.write(reinterpret_cast<const char*>(r.float_filters.data()),
               static_cast<std::streamsize>(r.float_filters.num_elements() * 4));
      continue;
    }
    switch (r.kind) {
      case graph::LayerKind::kConv: {
        write_pod<std::int64_t>(os, r.filters.num_filters());
        write_pod<std::int64_t>(os, r.filters.kernel_h());
        write_pod<std::int64_t>(os, r.filters.kernel_w());
        write_pod<std::int64_t>(os, r.filters.channels());
        write_pod<std::int64_t>(os, r.stride);
        write_pod<std::int64_t>(os, r.pad);
        write_thresholds(os, r.thresholds);
        r.filters.for_each_filter_major(write_words);
        break;
      }
      case graph::LayerKind::kPool: {
        write_pod<std::int64_t>(os, r.pool.pool_h);
        write_pod<std::int64_t>(os, r.pool.pool_w);
        write_pod<std::int64_t>(os, r.pool.stride);
        break;
      }
      case graph::LayerKind::kFc: {
        write_pod<std::int64_t>(os, r.fc_weights.rows());
        write_pod<std::int64_t>(os, r.fc_weights.cols());
        write_thresholds(os, r.thresholds);
        r.fc_weights.for_each_filter_major(write_words);
        break;
      }
    }
  }
  if (!os) throw std::runtime_error("model save: stream write failed");
}

void Model::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("model save: cannot open " + path);
  save(f);
}

Model Model::load(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("model load: bad magic (not a BitFlow model file)");
  }
  const auto version = read_pod<std::uint32_t>(is, "version");
  if (version != kVersion) {
    throw std::runtime_error("model load: unsupported version " + std::to_string(version));
  }
  BF_FAILPOINT("io.read_header");
  PayloadBudget budget;
  Model m;
  m.input_.h = read_extent(is, "input h");
  m.input_.w = read_extent(is, "input w");
  m.input_.c = read_extent(is, "input c");
  const auto count = read_pod<std::uint32_t>(is, "layer count");
  if (count > 10000) throw std::runtime_error("model load: implausible layer count");
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto kind = read_pod<std::uint8_t>(is, "layer kind");
    LayerRecord r;
    r.name = read_string(is);
    switch (kind) {
      case 0: {
        r.kind = graph::LayerKind::kConv;
        const std::int64_t k = read_extent(is, "conv k");
        const std::int64_t kh = read_extent(is, "conv kh", 64);
        const std::int64_t kw = read_extent(is, "conv kw", 64);
        const std::int64_t c = read_extent(is, "conv c");
        r.stride = read_extent(is, "conv stride", 64);
        r.pad = read_pod<std::int64_t>(is, "conv pad");
        if (r.pad < 0 || r.pad > 64) throw std::runtime_error("model load: implausible pad");
        const std::int64_t wpf =
            checked_mul(checked_mul(kh, kw, "conv filter words"), (c + 63) / 64,
                        "conv filter words");
        // The bank in memory: whole tiles, up to T - 1 pad filters past k.
        budget.charge(
            checked_mul(checked_mul(graph::lowered_rows(k), wpf, "conv weights"), 8,
                        "conv weights"),
            "conv weights");
        budget.charge(checked_mul(k, 4, "conv thresholds"), "conv thresholds");
        r.thresholds = read_thresholds(is, k);
        BF_FAILPOINT("io.read_weights");
        r.filters = graph::stream_conv_weights(
            k, kh, kw, c, r.name, payload_reader(is, "model load: truncated conv weights"));
        break;
      }
      case 1: {
        r.kind = graph::LayerKind::kPool;
        r.pool.pool_h = read_extent(is, "pool h", 64);
        r.pool.pool_w = read_extent(is, "pool w", 64);
        r.pool.stride = read_extent(is, "pool stride", 64);
        break;
      }
      case 2: {
        r.kind = graph::LayerKind::kFc;
        const std::int64_t k = read_extent(is, "fc k");
        const std::int64_t n = read_extent(is, "fc n", 1 << 28);
        budget.charge(checked_mul(checked_mul(graph::lowered_rows(k), (n + 63) / 64, "fc weights"),
                                  8, "fc weights"),
                      "fc weights");
        budget.charge(checked_mul(k, 4, "fc thresholds"), "fc thresholds");
        r.thresholds = read_thresholds(is, k);
        BF_FAILPOINT("io.read_weights");
        r.fc_weights = graph::stream_fc_weights(
            k, n, r.name, payload_reader(is, "model load: truncated fc weights"));
        break;
      }
      case 3: {
        r.kind = graph::LayerKind::kConv;
        r.full_precision = true;
        const std::int64_t k = read_extent(is, "fconv k");
        const std::int64_t kh = read_extent(is, "fconv kh", 64);
        const std::int64_t kw = read_extent(is, "fconv kw", 64);
        const std::int64_t c = read_extent(is, "fconv c");
        r.stride = read_extent(is, "fconv stride", 64);
        r.pad = read_pod<std::int64_t>(is, "fconv pad");
        if (r.pad < 0 || r.pad > 64) throw std::runtime_error("model load: implausible pad");
        const std::int64_t elems = checked_mul(
            checked_mul(checked_mul(k, kh, "fconv weights"), kw, "fconv weights"), c,
            "fconv weights");
        budget.charge(checked_mul(elems, 4, "fconv weights"), "fconv weights");
        budget.charge(checked_mul(k, 4, "fconv thresholds"), "fconv thresholds");
        r.thresholds = read_thresholds(is, k);
        r.float_filters = FilterBank(k, kh, kw, c);
        BF_FAILPOINT("io.read_weights");
        is.read(reinterpret_cast<char*>(r.float_filters.data()),
                static_cast<std::streamsize>(r.float_filters.num_elements() * 4));
        if (!is) throw std::runtime_error("model load: truncated fconv weights");
        break;
      }
      default:
        throw std::runtime_error("model load: unknown layer kind " + std::to_string(kind));
    }
    m.layers_.push_back(std::move(r));
  }
  return m;
}

Model Model::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("model load: cannot open " + path);
  BF_FAILPOINT("io.open");
  return load(f);
}

}  // namespace bitflow::io
