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
// (row-major for fc) whatever layout the engine runs.
//
// Both load()s run one parse: a walk over the headers in file order that,
// at each binary bank, charges the padded bank to the budget, evaluates
// io.read_weights and has graph::BankLoad allocate the bank and queue its
// chunks.  load(path) opens the file once; for a regular file the walk
// reads the headers with pread at its own cursor and steps over each
// bank's words, and one fan-out after the walk reads, checks and
// interleaves every chunk of every bank on all CPUs (graph/weights.hpp).
// load(istream), and load(path) on a FIFO or a character device, is the
// serial route: the stream is read straight through, with no seeking, and
// each bank's chunks run as the walk reaches them.  On both routes the
// error is the first failure in file order: a chunk's, or the walk's own,
// which stops the walk after the chunks queued before it have run.  A bank
// in memory holds whole register tiles, so up to T - 1 zero pad rows past
// k, which the load budget is charged for and no file ever holds.  save()
// de-interleaves each bank back one tile block at a time and writes its k
// real rows.  Padding bits (above C in a conv tap's last word, above n in
// an fc row's last word) must be zero.  A corrupt or truncated file throws
// std::runtime_error with a description of what failed.
#include "io/model.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <streambuf>

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

/// Reads `bytes` bytes at `offset` of `fd` into `dst`; false when the file
/// ends first or the read fails.
bool pread_all(int fd, void* dst, std::int64_t bytes, std::int64_t offset) {
  auto* p = static_cast<char*>(dst);
  while (bytes > 0) {
    const ssize_t n = ::pread(fd, p, static_cast<std::size_t>(bytes), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= n;
    offset += n;
  }
  return true;
}

/// A read-only streambuf over a descriptor that cannot be read at offsets
/// (a FIFO, a character device): the serial route's stream for such a path.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd), buf_(std::size_t{64} << 10) {}
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, buf_.data(), buf_.size());
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_.data(), buf_.data(), buf_.data() + n);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  int fd_;
  std::vector<char> buf_;
};

/// Closes a descriptor when the load that opened it returns or throws.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

// --- little-endian primitive I/O ------------------------------------------

template <typename T>
void write_pod(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_thresholds(std::ostream& os, const std::vector<float>& th) {
  write_pod<std::uint8_t>(os, th.empty() ? 0 : 1);
  if (!th.empty()) {
    os.write(reinterpret_cast<const char*>(th.data()),
             static_cast<std::streamsize>(th.size() * sizeof(float)));
  }
}

}  // namespace

/// What the parse reads: a std::istream, straight through (the serial
/// route), or a regular file's descriptor at offsets (the fan-out), where
/// the walk steps over each bank's words and its chunks read them later.
class Model::Source {
 public:
  explicit Source(std::istream& is) : is_(&is) {}
  explicit Source(int fd) : fd_(fd) {}

  /// Whether BankLoad queues every bank for one fan-out after the walk.
  [[nodiscard]] bool fans_out() const noexcept { return is_ == nullptr; }

  /// Reads the next `bytes` bytes into `dst`; false when the source ends
  /// first.
  [[nodiscard]] bool read(void* dst, std::int64_t bytes) {
    if (is_ != nullptr) {
      is_->read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
      return static_cast<bool>(*is_);
    }
    const bool whole = pread_all(fd_, dst, bytes, offset_);
    offset_ += bytes;
    return whole;
  }

  template <typename T>
  T pod(const char* what) {
    T value{};
    if (!read(&value, sizeof(T))) {
      throw std::runtime_error(std::string("model load: truncated reading ") + what);
    }
    return value;
  }

  std::string name() {
    const auto len = pod<std::uint32_t>("string length");
    if (len > 4096) throw std::runtime_error("model load: implausible name length");
    std::string s(len, '\0');
    if (!read(s.data(), len)) throw std::runtime_error("model load: truncated reading name");
    return s;
  }

  std::int64_t extent(const char* what, std::int64_t max = 1 << 24) {
    const auto v = pod<std::int64_t>(what);
    if (v <= 0 || v > max) {
      throw std::runtime_error(std::string("model load: implausible extent for ") + what);
    }
    return v;
  }

  std::vector<float> thresholds(std::int64_t count) {
    if (pod<std::uint8_t>("threshold flag") == 0) return {};
    std::vector<float> th(static_cast<std::size_t>(count));
    if (!read(th.data(), count * 4)) {
      throw std::runtime_error("model load: truncated reading thresholds");
    }
    return th;
  }

  /// The ByteSource of the `bytes` bytes of bank words next in the source;
  /// it throws `truncated` on a short read.  On the serial route it reads
  /// them from the stream, in order; on the fan-out it reads them at their
  /// offsets, and the cursor steps past them now.
  graph::ByteSource bank(std::int64_t bytes, const char* truncated) {
    if (is_ != nullptr) {
      return [is = is_, truncated](void* dst, std::int64_t, std::int64_t n) {
        is->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
        if (!*is) throw std::runtime_error(truncated);
      };
    }
    const std::int64_t at = offset_;
    offset_ += bytes;
    return [fd = fd_, at, truncated](void* dst, std::int64_t offset, std::int64_t n) {
      if (!pread_all(fd, dst, n, at + offset)) throw std::runtime_error(truncated);
    };
  }

 private:
  std::istream* is_ = nullptr;
  int fd_ = -1;
  std::int64_t offset_ = 0;  ///< the fan-out's cursor
};

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
  Source src(is);
  return parse(src);
}

Model Model::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("model load: cannot open " + path);
  const FdCloser closer(fd);
  BF_FAILPOINT("io.open");
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    Source src(fd);
    return parse(src);
  }
  // A FIFO or a character device cannot be read at offsets.
  FdStreamBuf buf(fd);
  std::istream is(&buf);
  return load(is);
}

Model Model::parse(Source& src) {
  graph::BankLoad banks(src.fans_out());
  Model m;
  const auto walk = [&] {
    char magic[4];
    if (!src.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
      throw std::runtime_error("model load: bad magic (not a BitFlow model file)");
    }
    const auto version = src.pod<std::uint32_t>("version");
    if (version != kVersion) {
      throw std::runtime_error("model load: unsupported version " + std::to_string(version));
    }
    BF_FAILPOINT("io.read_header");
    PayloadBudget budget;
    m.input_.h = src.extent("input h");
    m.input_.w = src.extent("input w");
    m.input_.c = src.extent("input c");
    const auto count = src.pod<std::uint32_t>("layer count");
    if (count > 10000) throw std::runtime_error("model load: implausible layer count");
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto kind = src.pod<std::uint8_t>("layer kind");
      LayerRecord r;
      r.name = src.name();
      switch (kind) {
        case 0: {
          r.kind = graph::LayerKind::kConv;
          const std::int64_t k = src.extent("conv k");
          const std::int64_t kh = src.extent("conv kh", 64);
          const std::int64_t kw = src.extent("conv kw", 64);
          const std::int64_t c = src.extent("conv c");
          r.stride = src.extent("conv stride", 64);
          r.pad = src.pod<std::int64_t>("conv pad");
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
          r.thresholds = src.thresholds(k);
          BF_FAILPOINT("io.read_weights");
          // k * wpf * 8 <= the padded bank's charged bytes: no overflow.
          r.filters = banks.conv(k, kh, kw, c, r.name,
                                 src.bank(k * wpf * 8, "model load: truncated conv weights"));
          break;
        }
        case 1: {
          r.kind = graph::LayerKind::kPool;
          r.pool.pool_h = src.extent("pool h", 64);
          r.pool.pool_w = src.extent("pool w", 64);
          r.pool.stride = src.extent("pool stride", 64);
          break;
        }
        case 2: {
          r.kind = graph::LayerKind::kFc;
          const std::int64_t k = src.extent("fc k");
          const std::int64_t n = src.extent("fc n", 1 << 28);
          budget.charge(
              checked_mul(checked_mul(graph::lowered_rows(k), (n + 63) / 64, "fc weights"), 8,
                          "fc weights"),
              "fc weights");
          budget.charge(checked_mul(k, 4, "fc thresholds"), "fc thresholds");
          r.thresholds = src.thresholds(k);
          BF_FAILPOINT("io.read_weights");
          r.fc_weights = banks.fc(k, n, r.name,
                                  src.bank(k * ((n + 63) / 64) * 8,
                                           "model load: truncated fc weights"));
          break;
        }
        case 3: {
          r.kind = graph::LayerKind::kConv;
          r.full_precision = true;
          const std::int64_t k = src.extent("fconv k");
          const std::int64_t kh = src.extent("fconv kh", 64);
          const std::int64_t kw = src.extent("fconv kw", 64);
          const std::int64_t c = src.extent("fconv c");
          r.stride = src.extent("fconv stride", 64);
          r.pad = src.pod<std::int64_t>("fconv pad");
          if (r.pad < 0 || r.pad > 64) throw std::runtime_error("model load: implausible pad");
          const std::int64_t elems = checked_mul(
              checked_mul(checked_mul(k, kh, "fconv weights"), kw, "fconv weights"), c,
              "fconv weights");
          budget.charge(checked_mul(elems, 4, "fconv weights"), "fconv weights");
          budget.charge(checked_mul(k, 4, "fconv thresholds"), "fconv thresholds");
          r.thresholds = src.thresholds(k);
          r.float_filters = FilterBank(k, kh, kw, c);
          BF_FAILPOINT("io.read_weights");
          if (!src.read(r.float_filters.data(), elems * 4)) {
            throw std::runtime_error("model load: truncated fconv weights");
          }
          break;
        }
        default:
          throw std::runtime_error("model load: unknown layer kind " + std::to_string(kind));
      }
      m.layers_.push_back(std::move(r));
    }
  };
  try {
    walk();
  } catch (...) {
    // The walk stops at its failure, which comes after every chunk queued
    // before it in file order: those run first, and the earliest failure
    // is the one thrown.
    banks.run();
    throw;
  }
  banks.run();
  return m;
}

}  // namespace bitflow::io
