#include "tune/tune_cache.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/failpoint.hpp"
#include "telemetry/metrics.hpp"

namespace bitflow::tune {

namespace {

constexpr char kMagic[4] = {'B', 'F', 'T', 'C'};
constexpr std::uint32_t kFormatVersion = 1;

// Plausibility caps, in the io::Model spirit: any field outside these is
// corruption (or an attack), and parsing stops there.
constexpr std::int64_t kMaxExtent = std::int64_t{1} << 24;
constexpr std::int32_t kMaxThreads = 1 << 16;

telemetry::Counter& io_error_counter() {
  static telemetry::Counter& c = telemetry::registry().counter("tune.cache_io_error");
  return c;
}

std::uint32_t host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// --- little-endian pod helpers on a byte string ----------------------------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounded cursor over the input image; every read checks remaining bytes.
struct Reader {
  const unsigned char* p;
  std::size_t left;

  bool u8(std::uint8_t& v) {
    if (left < 1) return false;
    v = p[0];
    ++p;
    --left;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }
  bool i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!u32(u)) return false;
    v = static_cast<std::int32_t>(u);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
};

bool extent_ok(std::int64_t v) { return v >= 1 && v <= kMaxExtent; }

/// Full per-entry semantic validation.  Anything a later consumer would have
/// to double-check is rejected here, so a surviving entry is always a
/// *well-formed* plan (decision_valid() still re-checks it against the live
/// layer, because the shape key could legitimately collide across schemas).
bool entry_ok(const Entry& e) {
  const Key& k = e.key;
  if (k.kind > 1 || k.isa > 3 || k.vpopcnt > 1) return false;
  if (k.threads < 1 || k.threads > kMaxThreads) return false;
  if (!extent_ok(k.in_h) || !extent_ok(k.in_w) || !extent_ok(k.c) || !extent_ok(k.k) ||
      !extent_ok(k.kh) || !extent_ok(k.kw)) {
    return false;
  }
  if (k.stride < 1 || k.stride > kMaxExtent) return false;
  const Decision& d = e.decision;
  if (d.tile != 4 && d.tile != 8 && d.tile != 16) return false;
  if (d.par_grain < 1 || d.par_grain > kMaxExtent) return false;
  if (d.source != DecisionSource::kSearch && d.source != DecisionSource::kCache) return false;
  if (d.candidates < 0 || d.candidates > (1 << 20)) return false;
  if (!std::isfinite(d.best_ms) || d.best_ms < 0.0) return false;
  return true;
}

}  // namespace

const Decision* TuneCache::lookup(const Key& key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return &e.decision;
  }
  return nullptr;
}

void TuneCache::put(const Key& key, const Decision& decision) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.decision = decision;
      return;
    }
  }
  if (entries_.size() >= kCacheMaxEntries) return;
  entries_.push_back(Entry{key, decision});
}

std::string TuneCache::serialize() const {
  std::string out;
  out.reserve(20 + entries_.size() * 96);
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kFormatVersion);
  put_u32(out, kCacheSchemaVersion);
  put_u32(out, host_cores());
  put_u32(out, static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    put_u8(out, e.key.kind);
    put_u8(out, e.key.isa);
    put_u8(out, e.key.vpopcnt);
    put_u8(out, 0);  // reserved
    put_i32(out, e.key.threads);
    put_i64(out, e.key.in_h);
    put_i64(out, e.key.in_w);
    put_i64(out, e.key.c);
    put_i64(out, e.key.k);
    put_i64(out, e.key.kh);
    put_i64(out, e.key.kw);
    put_i64(out, e.key.stride);
    put_u8(out, 0);  // reserved (schema 1's tiled flag)
    put_u8(out, static_cast<std::uint8_t>(e.decision.source));
    put_u8(out, 0);  // reserved
    put_u8(out, 0);  // reserved
    put_i32(out, e.decision.candidates);
    put_i64(out, e.decision.tile);
    put_i64(out, e.decision.par_grain);
    put_f64(out, e.decision.best_ms);
  }
  return out;
}

void TuneCache::deserialize(const char* data, std::size_t size) {
  entries_.clear();
  if (data == nullptr || size > kCacheMaxBytes) return;
  Reader r{reinterpret_cast<const unsigned char*>(data), size};
  if (r.left < sizeof kMagic || std::memcmp(r.p, kMagic, sizeof kMagic) != 0) return;
  r.p += sizeof kMagic;
  r.left -= sizeof kMagic;
  std::uint32_t format = 0, schema = 0, cores = 0, count = 0;
  if (!r.u32(format) || !r.u32(schema) || !r.u32(cores) || !r.u32(count)) return;
  // Any header mismatch makes every entry stale: written by a different
  // code version or measured on a different machine.
  if (format != kFormatVersion || schema != kCacheSchemaVersion || cores != host_cores()) {
    return;
  }
  if (count > kCacheMaxEntries) return;
  entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    std::uint8_t reserved = 0, res1 = 0, source = 0, res2 = 0, res3 = 0;
    const bool ok = r.u8(e.key.kind) && r.u8(e.key.isa) && r.u8(e.key.vpopcnt) &&
                    r.u8(reserved) && r.i32(e.key.threads) && r.i64(e.key.in_h) &&
                    r.i64(e.key.in_w) && r.i64(e.key.c) && r.i64(e.key.k) && r.i64(e.key.kh) &&
                    r.i64(e.key.kw) && r.i64(e.key.stride) && r.u8(res1) && r.u8(source) &&
                    r.u8(res2) && r.u8(res3) && r.i32(e.decision.candidates) &&
                    r.i64(e.decision.tile) && r.i64(e.decision.par_grain) &&
                    r.f64(e.decision.best_ms);
    if (!ok) return;  // truncated mid-entry: keep the validated prefix
    if (source > 2) return;
    e.decision.source = static_cast<DecisionSource>(source);
    if (!entry_ok(e)) return;  // implausible fields: stop at the anomaly
    put(e.key, e.decision);    // put() dedups colliding keys in the file
  }
}

void TuneCache::load(const std::string& path) {
  entries_.clear();
  if (path.empty()) return;
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;  // a cold start, not an error
    BF_FAILPOINT("tune.cache_io");
    std::string bytes;
    bytes.resize(kCacheMaxBytes + 1);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    const std::streamsize got = in.gcount();
    if (in.bad() || got <= 0 || static_cast<std::size_t>(got) > kCacheMaxBytes) {
      io_error_counter().add();
      return;
    }
    deserialize(bytes.data(), static_cast<std::size_t>(got));
  } catch (...) {
    // Injected faults, allocation failure, anything: a broken cache read
    // must only ever cost a re-search.
    entries_.clear();
    io_error_counter().add();
  }
}

bool TuneCache::save(const std::string& path) const {
  if (path.empty()) return false;
  try {
    const std::string bytes = serialize();
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        io_error_counter().add();
        return false;
      }
      BF_FAILPOINT("tune.cache_io");
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      out.flush();
      if (!out) {
        io_error_counter().add();
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      io_error_counter().add();
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  } catch (...) {
    io_error_counter().add();
    return false;
  }
}

std::string default_cache_path() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env access.
  const char* p = std::getenv("BITFLOW_TUNE_CACHE");
  return p == nullptr ? std::string() : std::string(p);
}

}  // namespace bitflow::tune
