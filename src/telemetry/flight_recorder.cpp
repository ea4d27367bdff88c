#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include <unistd.h>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::telemetry {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMaxSectionBytes = 64u << 20;  // loader sanity cap

/// Everything the lock-free hot paths need, published as one immutable
/// object so arming cannot tear (config snapshot + detector state).
struct Active {
  explicit Active(FlightRecorderConfig c) : cfg(std::move(c)) {}
  const FlightRecorderConfig cfg;  // immutable after publication
  // Ordering contract: detector tallies are relaxed monotonic counters —
  // a trip needs only an approximate window, and the trigger path
  // re-serializes under the flight mutex.
  std::atomic<std::uint64_t> breach_count{0};
  std::atomic<std::uint64_t> window_total{0};
  std::atomic<std::uint64_t> window_errors{0};
};

// Ordering contract: relaxed — the fast disarmed gate; armed-path state is
// published through g_active's release/acquire pair, not this flag.
std::atomic<bool> g_flight_armed{false};

// Ordering contract: release store when flight_start publishes a fully
// constructed Active; acquire loads on every armed path (detectors,
// trigger, status).  A replaced Active is leaked deliberately: a straggler
// that loaded the old pointer may still feed its detectors, and arming is a
// rare, human-scale operation.
std::atomic<Active*> g_active{nullptr};

struct FlightState {
  // mu guards arming, bundle accounting and the context providers; the
  // detector hot path never touches this struct.  Lock order: flight mu may
  // take the registry mutex (counter lookup, prometheus snapshot) and the
  // trace mutex (arm/snapshot); neither ever takes flight mu.
  core::Mutex mu;
  bool armed BF_GUARDED_BY(mu) = false;
  bool owns_trace BF_GUARDED_BY(mu) = false;
  bool have_attempt BF_GUARDED_BY(mu) = false;
  std::chrono::steady_clock::time_point last_attempt BF_GUARDED_BY(mu){};
  std::uint64_t bundle_seq BF_GUARDED_BY(mu) = 0;  // never reset: unique names
  std::uint64_t written BF_GUARDED_BY(mu) = 0;
  std::uint64_t suppressed BF_GUARDED_BY(mu) = 0;
  std::vector<std::tuple<const void*, std::string, std::function<std::string()>>>
      contexts BF_GUARDED_BY(mu);
  // Replaced Actives parked here forever: stragglers that loaded the old
  // pointer may still use it, so it can never be freed — but keeping it
  // reachable makes the deliberate leak invisible to LeakSanitizer.
  std::vector<Active*> retired BF_GUARDED_BY(mu);
};

FlightState& fstate() {
  static auto* s = new FlightState();  // leaked: usable from atexit paths
  return *s;
}

bool write_whole_file(const fs::path& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return (std::fclose(f) == 0) && ok;
}

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// Writes one bundle directory (tmp + atomic rename).  Caller holds the
/// flight mutex — serializing bundle writes is the point: they are rare,
/// rate-limited, and must see a stable context-provider list.
bool write_bundle_locked(FlightState& st, const Active& active, std::uint64_t seq_no,
                         FlightTrigger trigger, const char* reason)
    BF_REQUIRES(st.mu) {
  std::error_code ec;
  const fs::path dir(active.cfg.dir);
  fs::create_directories(dir, ec);
  if (ec) return false;

  char name[32];
  std::snprintf(name, sizeof name, "bundle-%06llu",
                static_cast<unsigned long long>(seq_no));
  const fs::path final_dir = dir / name;
  const fs::path tmp_dir =
      dir / (std::string(".tmp-") + name + "-" + std::to_string(::getpid()));
  fs::remove_all(tmp_dir, ec);
  ec.clear();
  fs::create_directories(tmp_dir, ec);
  if (ec) return false;

  // Render every section.  Context providers run here (under the flight
  // mutex) so flight_remove_contexts() is a hard barrier for owners.
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back("trace.json", trace_snapshot_json());
  if (sections.back().second.empty()) sections.back().second = "{\"traceEvents\":[]}\n";
  sections.emplace_back("metrics.prom", registry().prometheus_text());
  for (const auto& [owner, section, fn] : st.contexts) {
    (void)owner;
    std::string body;
    try {
      body = fn();
    } catch (const std::exception& e) {
      body = std::string("<context provider failed: ") + e.what() + ">\n";
    } catch (...) {
      body = "<context provider failed>\n";
    }
    sections.emplace_back(section + ".txt", std::move(body));
  }

  std::string manifest;
  manifest += "{\n  \"version\": " + std::to_string(kBundleManifestVersion) + ",\n";
  manifest += "  \"seq\": " + std::to_string(seq_no) + ",\n";
  manifest += "  \"trigger\": ";
  append_json_string(manifest, flight_trigger_name(trigger));
  manifest += ",\n  \"reason\": ";
  append_json_string(manifest, reason != nullptr ? reason : "");
  manifest += ",\n  \"sections\": [\n";
  bool wrote_all = true;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& [sec_name, body] = sections[i];
    wrote_all = wrote_all && write_whole_file(tmp_dir / sec_name, body);
    char sum[24];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(body.data(), body.size())));
    manifest += "    {\"name\": ";
    append_json_string(manifest, sec_name);
    manifest += ", \"size\": " + std::to_string(body.size());
    manifest += ", \"fnv1a\": \"" + std::string(sum) + "\"}";
    manifest += i + 1 < sections.size() ? ",\n" : "\n";
  }
  manifest += "  ]\n}\n";
  wrote_all = wrote_all && write_whole_file(tmp_dir / "MANIFEST.json", manifest);
  if (!wrote_all) {
    fs::remove_all(tmp_dir, ec);
    return false;
  }
  fs::rename(tmp_dir, final_dir, ec);
  if (ec) {
    fs::remove_all(tmp_dir, ec);
    return false;
  }
  return true;
}

/// BITFLOW_FLIGHT_DIR=<dir>: arm the recorder (default thresholds) before
/// main(), mirroring BITFLOW_TRACE.
const bool g_flight_env_applied = [] {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): runs once at static init.
  const char* env_dir = std::getenv("BITFLOW_FLIGHT_DIR");
  if (env_dir == nullptr || env_dir[0] == '\0') return false;
  try {
    FlightRecorderConfig cfg;
    cfg.dir = env_dir;
    flight_start(std::move(cfg));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bitflow] ignoring BITFLOW_FLIGHT_DIR: %s\n", e.what());
  }
  return true;
}();

}  // namespace

void flight_start(FlightRecorderConfig cfg) {
  if (cfg.dir.empty()) throw std::invalid_argument("flight_start: empty dir");
  if (cfg.rate_window == 0) throw std::invalid_argument("flight_start: rate_window == 0");
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  if (st.armed) throw std::logic_error("flight_start: already armed");
  const bool trace_was_on = trace_enabled();
  trace_arm_passive();
  st.owns_trace = !trace_was_on;
  auto* fresh = new Active(std::move(cfg));
  if (Active* old = g_active.load(std::memory_order_relaxed)) {
    st.retired.push_back(old);  // never freed — see decl and retired's comment
  }
  g_active.store(fresh, std::memory_order_release);
  st.written = 0;
  st.suppressed = 0;
  st.have_attempt = false;
  st.armed = true;
  g_flight_armed.store(true, std::memory_order_relaxed);
}

void flight_stop() {
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  if (!st.armed) return;
  g_flight_armed.store(false, std::memory_order_relaxed);
  st.armed = false;
  if (st.owns_trace) {
    (void)trace_stop();  // passive session: disarms without writing a file
    st.owns_trace = false;
  }
}

bool flight_armed() noexcept {
  return g_flight_armed.load(std::memory_order_relaxed);
}

void flight_observe_outcome(bool ok, bool deadline_breach) noexcept {
  if (!g_flight_armed.load(std::memory_order_relaxed)) [[likely]] return;
  Active* a = g_active.load(std::memory_order_acquire);
  if (a == nullptr) return;
  if (deadline_breach) {
    const std::uint64_t n = a->breach_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n >= a->cfg.breach_threshold && a->cfg.breach_threshold > 0) {
      a->breach_count.store(0, std::memory_order_relaxed);
      char why[64];
      std::snprintf(why, sizeof why, "%llu deadline breaches",
                    static_cast<unsigned long long>(n));
      (void)flight_trigger(FlightTrigger::kSloBreach, why);
      return;  // a breach already counted as an error for this window
    }
  }
  if (!ok) a->window_errors.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t total = a->window_total.fetch_add(1, std::memory_order_relaxed) + 1;
  if (total >= a->cfg.rate_window) {
    // Window roll: approximate (two relaxed resets), which is fine — the
    // detector needs a trend, not an exact ratio.
    const std::uint64_t errs = a->window_errors.exchange(0, std::memory_order_relaxed);
    a->window_total.store(0, std::memory_order_relaxed);
    if (static_cast<double>(errs) >=
        a->cfg.error_rate_threshold * static_cast<double>(total)) {
      char why[64];
      std::snprintf(why, sizeof why, "%llu/%llu errors in window",
                    static_cast<unsigned long long>(errs),
                    static_cast<unsigned long long>(total));
      (void)flight_trigger(FlightTrigger::kErrorRate, why);
    }
  }
}

bool flight_trigger(FlightTrigger trigger, const char* reason) noexcept {
  if (!g_flight_armed.load(std::memory_order_relaxed)) return false;
  trace_instant(flight_trigger_name(trigger), "flight");
  try {
    FlightState& st = fstate();
    core::MutexLock lock(st.mu);
    if (!st.armed) return false;
    Active* a = g_active.load(std::memory_order_acquire);
    if (a == nullptr) return false;
    const auto now = std::chrono::steady_clock::now();
    if (st.written >= a->cfg.max_bundles ||
        (st.have_attempt && now - st.last_attempt < a->cfg.min_bundle_interval)) {
      st.suppressed += 1;
      registry().counter("flight.bundles.suppressed").add(1);
      return false;
    }
    st.have_attempt = true;
    st.last_attempt = now;
    st.bundle_seq += 1;
    const bool ok = write_bundle_locked(st, *a, st.bundle_seq, trigger, reason);
    if (ok) {
      st.written += 1;
      registry().counter("flight.bundles.written").add(1);
    }
    return ok;
  } catch (...) {
    return false;  // diagnostics must never take the serving path down
  }
}

void flight_add_context(const void* owner, std::string section,
                        std::function<std::string()> fn) {
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  st.contexts.emplace_back(owner, std::move(section), std::move(fn));
}

void flight_remove_contexts(const void* owner) {
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  std::erase_if(st.contexts,
                [owner](const auto& t) { return std::get<0>(t) == owner; });
}

std::uint64_t flight_bundles_written() {
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  return st.written;
}

std::uint64_t flight_bundles_suppressed() {
  FlightState& st = fstate();
  core::MutexLock lock(st.mu);
  return st.suppressed;
}

std::string flight_status_text() {
  FlightState& st = fstate();
  Active* a = g_active.load(std::memory_order_acquire);
  core::MutexLock lock(st.mu);
  std::string out;
  out += "flight.armed " + std::to_string(st.armed ? 1 : 0) + "\n";
  out += "flight.dir " + (a != nullptr ? a->cfg.dir : std::string("-")) + "\n";
  out += "flight.bundles.written " + std::to_string(st.written) + "\n";
  out += "flight.bundles.suppressed " + std::to_string(st.suppressed) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Bundle loader / validator.

std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

// Minimal defensive JSON scanner for the two formats we emit ourselves
// (MANIFEST.json, trace.json).  Bounded, non-throwing, rejects instead of
// guessing — the fuzz tests feed it truncations and bit flips.
struct Cursor {
  const char* p;
  const char* end;
};

void skip_ws(Cursor& c) {
  while (c.p < c.end &&
         (*c.p == ' ' || *c.p == '\t' || *c.p == '\n' || *c.p == '\r')) {
    ++c.p;
  }
}

bool parse_json_string(Cursor& c, std::string* out) {
  skip_ws(c);
  if (c.p >= c.end || *c.p != '"') return false;
  ++c.p;
  while (c.p < c.end) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.p >= c.end) return false;
      const char esc = *c.p++;
      if (out != nullptr) {
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            if (c.end - c.p < 4) return false;
            c.p += 4;
            out->push_back('?');
            break;
          default: out->push_back(esc); break;
        }
      } else if (esc == 'u') {
        if (c.end - c.p < 4) return false;
        c.p += 4;
      }
    } else if (out != nullptr) {
      out->push_back(ch);
    }
    if (out != nullptr && out->size() > kMaxSectionBytes) return false;
  }
  return false;  // unterminated
}

/// Parses a JSON number token.  Integers that fit u64 are reported exactly
/// (`*u64_out`, is_u64=true) so request ids survive above 2^53.
bool parse_json_number(Cursor& c, double* dbl_out, std::uint64_t* u64_out,
                       bool* is_u64) {
  skip_ws(c);
  const char* start = c.p;
  if (c.p < c.end && (*c.p == '-' || *c.p == '+')) ++c.p;
  bool integral = true;
  while (c.p < c.end &&
         (std::isdigit(static_cast<unsigned char>(*c.p)) != 0 || *c.p == '.' ||
          *c.p == 'e' || *c.p == 'E' || *c.p == '-' || *c.p == '+')) {
    if (*c.p == '.' || *c.p == 'e' || *c.p == 'E') integral = false;
    ++c.p;
  }
  if (c.p == start) return false;
  const std::string tok(start, c.p);
  errno = 0;
  char* parse_end = nullptr;
  if (integral && tok[0] != '-' && tok.size() <= 20) {
    const unsigned long long v = std::strtoull(tok.c_str(), &parse_end, 10);
    if (errno == 0 && parse_end != nullptr && *parse_end == '\0') {
      if (u64_out != nullptr) *u64_out = v;
      if (is_u64 != nullptr) *is_u64 = true;
      if (dbl_out != nullptr) *dbl_out = static_cast<double>(v);
      return true;
    }
  }
  errno = 0;
  const double d = std::strtod(tok.c_str(), &parse_end);
  if (parse_end == nullptr || *parse_end != '\0') return false;
  if (is_u64 != nullptr) *is_u64 = false;
  if (dbl_out != nullptr) *dbl_out = d;
  return true;
}

bool skip_json_value(Cursor& c, int depth);  // forward

bool skip_json_object(Cursor& c, int depth) {
  ++c.p;  // '{'
  skip_ws(c);
  if (c.p < c.end && *c.p == '}') {
    ++c.p;
    return true;
  }
  while (c.p < c.end) {
    if (!parse_json_string(c, nullptr)) return false;
    skip_ws(c);
    if (c.p >= c.end || *c.p != ':') return false;
    ++c.p;
    if (!skip_json_value(c, depth)) return false;
    skip_ws(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      skip_ws(c);
      continue;
    }
    if (c.p < c.end && *c.p == '}') {
      ++c.p;
      return true;
    }
    return false;
  }
  return false;
}

bool skip_json_array(Cursor& c, int depth) {
  ++c.p;  // '['
  skip_ws(c);
  if (c.p < c.end && *c.p == ']') {
    ++c.p;
    return true;
  }
  while (c.p < c.end) {
    if (!skip_json_value(c, depth)) return false;
    skip_ws(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      continue;
    }
    if (c.p < c.end && *c.p == ']') {
      ++c.p;
      return true;
    }
    return false;
  }
  return false;
}

bool skip_json_value(Cursor& c, int depth) {
  if (depth > 48) return false;
  skip_ws(c);
  if (c.p >= c.end) return false;
  const char ch = *c.p;
  if (ch == '"') return parse_json_string(c, nullptr);
  if (ch == '{') return skip_json_object(c, depth + 1);
  if (ch == '[') return skip_json_array(c, depth + 1);
  if (ch == 't' || ch == 'f' || ch == 'n') {
    while (c.p < c.end && std::isalpha(static_cast<unsigned char>(*c.p)) != 0) ++c.p;
    return true;
  }
  return parse_json_number(c, nullptr, nullptr, nullptr);
}

bool parse_hex_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') {
      v |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      v |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      v |= static_cast<std::uint64_t>(ch - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

core::Status bad(const std::string& what) {
  return {core::ErrorCode::kBadInput, "bundle: " + what};
}

core::Result<BundleManifest> parse_manifest(const std::string& text) {
  BundleManifest m;
  Cursor c{text.data(), text.data() + text.size()};
  skip_ws(c);
  if (c.p >= c.end || *c.p != '{') return bad("manifest: not a JSON object");
  ++c.p;
  skip_ws(c);
  if (c.p < c.end && *c.p == '}') return m;  // empty object: caller validates
  while (c.p < c.end) {
    std::string key;
    if (!parse_json_string(c, &key)) return bad("manifest: bad key");
    skip_ws(c);
    if (c.p >= c.end || *c.p != ':') return bad("manifest: missing ':'");
    ++c.p;
    if (key == "version" || key == "seq") {
      std::uint64_t v = 0;
      bool is_int = false;
      if (!parse_json_number(c, nullptr, &v, &is_int) || !is_int) {
        return bad("manifest: non-integer " + key);
      }
      if (key == "version") {
        m.version = static_cast<int>(v);
      } else {
        m.seq = v;
      }
    } else if (key == "trigger" || key == "reason") {
      std::string v;
      if (!parse_json_string(c, &v)) return bad("manifest: bad " + key);
      (key == "trigger" ? m.trigger : m.reason) = std::move(v);
    } else if (key == "sections") {
      skip_ws(c);
      if (c.p >= c.end || *c.p != '[') return bad("manifest: sections not an array");
      ++c.p;
      skip_ws(c);
      while (c.p < c.end && *c.p != ']') {
        skip_ws(c);
        if (c.p >= c.end || *c.p != '{') return bad("manifest: section not an object");
        ++c.p;
        BundleSectionInfo info;
        skip_ws(c);
        while (c.p < c.end && *c.p != '}') {
          std::string sk;
          if (!parse_json_string(c, &sk)) return bad("manifest: bad section key");
          skip_ws(c);
          if (c.p >= c.end || *c.p != ':') return bad("manifest: missing ':'");
          ++c.p;
          if (sk == "name") {
            if (!parse_json_string(c, &info.name)) return bad("manifest: bad name");
          } else if (sk == "size") {
            bool is_int = false;
            if (!parse_json_number(c, nullptr, &info.size, &is_int) || !is_int) {
              return bad("manifest: bad size");
            }
          } else if (sk == "fnv1a") {
            std::string hex;
            if (!parse_json_string(c, &hex) || !parse_hex_u64(hex, &info.fnv1a)) {
              return bad("manifest: bad fnv1a");
            }
          } else if (!skip_json_value(c, 0)) {
            return bad("manifest: bad section value");
          }
          skip_ws(c);
          if (c.p < c.end && *c.p == ',') {
            ++c.p;
            skip_ws(c);
          }
        }
        if (c.p >= c.end) return bad("manifest: truncated section");
        ++c.p;  // '}'
        m.sections.push_back(std::move(info));
        skip_ws(c);
        if (c.p < c.end && *c.p == ',') {
          ++c.p;
          skip_ws(c);
        }
      }
      if (c.p >= c.end) return bad("manifest: truncated sections");
      ++c.p;  // ']'
    } else if (!skip_json_value(c, 0)) {
      return bad("manifest: bad value for " + key);
    }
    skip_ws(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      continue;
    }
    if (c.p < c.end && *c.p == '}') return m;
    return bad("manifest: trailing garbage");
  }
  return bad("manifest: truncated");
}

core::Result<std::string> read_file_capped(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return bad("cannot open " + path.string());
  std::string data;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    data.append(buf, static_cast<std::size_t>(in.gcount()));
    if (data.size() > kMaxSectionBytes) return bad("file too large: " + path.string());
    if (in.eof()) break;
  }
  return data;
}

bool parse_trace_event(Cursor& c, ParsedTraceEvent* out) {
  skip_ws(c);
  if (c.p >= c.end || *c.p != '{') return false;
  ++c.p;
  skip_ws(c);
  if (c.p < c.end && *c.p == '}') {
    ++c.p;
    return true;
  }
  while (c.p < c.end) {
    std::string key;
    if (!parse_json_string(c, &key)) return false;
    skip_ws(c);
    if (c.p >= c.end || *c.p != ':') return false;
    ++c.p;
    if (key == "name") {
      if (!parse_json_string(c, &out->name)) return false;
    } else if (key == "cat") {
      if (!parse_json_string(c, &out->cat)) return false;
    } else if (key == "ph") {
      std::string v;
      if (!parse_json_string(c, &v) || v.empty()) return false;
      out->ph = v[0];
    } else if (key == "tid") {
      double v = 0;
      if (!parse_json_number(c, &v, nullptr, nullptr)) return false;
      out->tid = static_cast<std::uint32_t>(v);
    } else if (key == "ts") {
      if (!parse_json_number(c, &out->ts_us, nullptr, nullptr)) return false;
    } else if (key == "dur") {
      if (!parse_json_number(c, &out->dur_us, nullptr, nullptr)) return false;
    } else if (key == "id") {
      // Emitted as a decimal string; tolerate a bare number too.
      skip_ws(c);
      if (c.p < c.end && *c.p == '"') {
        std::string v;
        if (!parse_json_string(c, &v)) return false;
        char* parse_end = nullptr;
        errno = 0;
        out->id = std::strtoull(v.c_str(), &parse_end, 10);
        if (errno != 0 || parse_end == nullptr || *parse_end != '\0') return false;
      } else {
        if (!parse_json_number(c, nullptr, &out->id, nullptr)) return false;
      }
    } else if (key == "args") {
      skip_ws(c);
      if (c.p >= c.end || *c.p != '{') return false;
      ++c.p;
      skip_ws(c);
      while (c.p < c.end && *c.p != '}') {
        std::string ak;
        if (!parse_json_string(c, &ak)) return false;
        skip_ws(c);
        if (c.p >= c.end || *c.p != ':') return false;
        ++c.p;
        if (ak == "rid") {
          if (!parse_json_number(c, nullptr, &out->rid, nullptr)) return false;
        } else if (!skip_json_value(c, 0)) {
          return false;
        }
        skip_ws(c);
        if (c.p < c.end && *c.p == ',') {
          ++c.p;
          skip_ws(c);
        }
      }
      if (c.p >= c.end) return false;
      ++c.p;
    } else if (!skip_json_value(c, 0)) {
      return false;
    }
    skip_ws(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      skip_ws(c);
      continue;
    }
    if (c.p < c.end && *c.p == '}') {
      ++c.p;
      return true;
    }
    return false;
  }
  return false;
}

}  // namespace

core::Result<Bundle> load_bundle(const std::string& dir) {
  const fs::path root(dir);
  auto manifest_text = read_file_capped(root / "MANIFEST.json");
  if (!manifest_text.is_ok()) return manifest_text.status();
  auto manifest = parse_manifest(manifest_text.value());
  if (!manifest.is_ok()) return manifest.status();

  Bundle bundle;
  bundle.manifest = std::move(manifest).value();
  for (const BundleSectionInfo& info : bundle.manifest.sections) {
    if (info.name.empty() || info.name.find('/') != std::string::npos ||
        info.name.find("..") != std::string::npos) {
      return bad("unsafe section name: '" + info.name + "'");
    }
    if (bundle.sections.count(info.name) != 0) {
      return bad("duplicate section: " + info.name);
    }
    auto body = read_file_capped(root / info.name);
    if (!body.is_ok()) return body.status();
    if (body.value().size() != info.size) {
      return bad("section " + info.name + ": size mismatch (manifest " +
                 std::to_string(info.size) + ", file " +
                 std::to_string(body.value().size()) + ")");
    }
    const std::uint64_t sum = fnv1a64(body.value().data(), body.value().size());
    if (sum != info.fnv1a) return bad("section " + info.name + ": checksum mismatch");
    bundle.sections.emplace(info.name, std::move(body).value());
  }
  return bundle;
}

core::Result<std::vector<ParsedTraceEvent>> parse_bundle_trace(const Bundle& bundle) {
  const auto it = bundle.sections.find("trace.json");
  if (it == bundle.sections.end()) return bad("missing trace.json");
  const std::string& text = it->second;
  Cursor c{text.data(), text.data() + text.size()};
  skip_ws(c);
  if (c.p >= c.end || *c.p != '{') return bad("trace.json: not a JSON object");
  ++c.p;
  std::vector<ParsedTraceEvent> events;
  skip_ws(c);
  if (c.p < c.end && *c.p == '}') return events;
  while (c.p < c.end) {
    std::string key;
    if (!parse_json_string(c, &key)) return bad("trace.json: bad key");
    skip_ws(c);
    if (c.p >= c.end || *c.p != ':') return bad("trace.json: missing ':'");
    ++c.p;
    if (key == "traceEvents") {
      skip_ws(c);
      if (c.p >= c.end || *c.p != '[') return bad("trace.json: events not an array");
      ++c.p;
      skip_ws(c);
      while (c.p < c.end && *c.p != ']') {
        ParsedTraceEvent ev;
        if (!parse_trace_event(c, &ev)) return bad("trace.json: bad event");
        events.push_back(std::move(ev));
        if (events.size() > (kMaxSectionBytes >> 6)) {
          return bad("trace.json: too many events");
        }
        skip_ws(c);
        if (c.p < c.end && *c.p == ',') {
          ++c.p;
          skip_ws(c);
        }
      }
      if (c.p >= c.end) return bad("trace.json: truncated events");
      ++c.p;
    } else if (!skip_json_value(c, 0)) {
      return bad("trace.json: bad value for " + key);
    }
    skip_ws(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      continue;
    }
    if (c.p < c.end && *c.p == '}') return events;
    return bad("trace.json: trailing garbage");
  }
  return bad("trace.json: truncated");
}

namespace {

core::Status check_trace_nesting(const std::vector<ParsedTraceEvent>& events) {
  // Complete ('X') spans on one thread must nest like a call stack: the
  // trace sink records a span at destructor time, so an inner RAII span
  // always closes before — and inside — its enclosing one.
  constexpr double kEps = 1e-3;  // µs; events print with ns resolution
  struct Ref {
    double ts;
    double end;
    std::uint32_t tid;
    const std::string* name;
  };
  std::vector<Ref> spans;
  for (const ParsedTraceEvent& ev : events) {
    if (ev.ph == 'X') spans.push_back({ev.ts_us, ev.ts_us + ev.dur_us, ev.tid, &ev.name});
  }
  std::sort(spans.begin(), spans.end(), [](const Ref& a, const Ref& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.end > b.end;  // open the enclosing span first on ties
  });
  std::vector<Ref> stack;
  std::uint32_t cur_tid = 0;
  bool have_tid = false;
  for (const Ref& r : spans) {
    if (!have_tid || r.tid != cur_tid) {
      stack.clear();
      cur_tid = r.tid;
      have_tid = true;
    }
    while (!stack.empty() && r.ts >= stack.back().end - kEps) stack.pop_back();
    if (!stack.empty() && r.end > stack.back().end + kEps) {
      return bad("trace: span '" + *r.name + "' (tid " + std::to_string(r.tid) +
                 ") crosses the boundary of '" + *stack.back().name + "'");
    }
    stack.push_back(r);
  }
  return core::Status::ok();
}

core::Status check_metrics_text(const std::string& text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find_last_of(" \t");
    if (sp == std::string::npos || sp == 0) {
      return bad("metrics.prom:" + std::to_string(line_no) + ": no value field");
    }
    const std::string value = line.substr(sp + 1);
    char* parse_end = nullptr;
    errno = 0;
    (void)std::strtod(value.c_str(), &parse_end);
    if (value.empty() || parse_end == nullptr || *parse_end != '\0') {
      return bad("metrics.prom:" + std::to_string(line_no) + ": bad value '" +
                 value + "'");
    }
  }
  return core::Status::ok();
}

}  // namespace

core::Status validate_bundle(const Bundle& bundle) {
  if (bundle.manifest.version != kBundleManifestVersion) {
    return bad("unsupported manifest version " +
               std::to_string(bundle.manifest.version));
  }
  if (bundle.manifest.trigger.empty()) return bad("manifest: empty trigger");
  for (const char* required : {"trace.json", "metrics.prom"}) {
    if (bundle.sections.count(required) == 0) {
      return bad(std::string("missing required section ") + required);
    }
  }
  auto events = parse_bundle_trace(bundle);
  if (!events.is_ok()) return events.status();
  if (auto nest = check_trace_nesting(events.value()); !nest.is_ok()) return nest;
  return check_metrics_text(bundle.sections.at("metrics.prom"));
}

bool bundle_has_request_chain(const Bundle& bundle, std::uint64_t rid) {
  if (rid == 0) return false;
  auto parsed = parse_bundle_trace(bundle);
  if (!parsed.is_ok()) return false;
  const std::vector<ParsedTraceEvent>& events = parsed.value();
  bool wire = false;
  bool lifetime = false;
  std::vector<const ParsedTraceEvent*> members;
  for (const ParsedTraceEvent& ev : events) {
    if (ev.rid != rid) continue;
    if (ev.ph == 'X' && ev.name == "net.request") wire = true;
    if ((ev.ph == 'b' || ev.ph == 'e') && ev.name == "serve.request") lifetime = true;
    if (ev.ph == 'i' && ev.name == "serve.batch.member") members.push_back(&ev);
  }
  if (!wire || !lifetime || members.empty()) return false;
  // Kernel attribution: a kernel-category span on the member's worker
  // thread that ends at or after the member instant (the batch that ran
  // this request).  Bound the forward window to keep an unrelated later
  // batch from vouching for a dropped one.
  constexpr double kWindowUs = 60e6;
  for (const ParsedTraceEvent* member : members) {
    for (const ParsedTraceEvent& ev : events) {
      if (ev.ph != 'X' || ev.cat != "kernel" || ev.tid != member->tid) continue;
      if (ev.ts_us + ev.dur_us + 1e-3 >= member->ts_us &&
          ev.ts_us <= member->ts_us + kWindowUs) {
        return true;
      }
    }
  }
  return false;
}

std::string bundle_summary(const Bundle& bundle) {
  std::string out;
  out += "bundle seq=" + std::to_string(bundle.manifest.seq) +
         " version=" + std::to_string(bundle.manifest.version) + "\n";
  out += "trigger: " + bundle.manifest.trigger + "\n";
  out += "reason:  " + bundle.manifest.reason + "\n";
  out += "sections:\n";
  for (const BundleSectionInfo& info : bundle.manifest.sections) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %10llu bytes  fnv1a=%016llx\n",
                  info.name.c_str(), static_cast<unsigned long long>(info.size),
                  static_cast<unsigned long long>(info.fnv1a));
    out += line;
  }
  auto events = parse_bundle_trace(bundle);
  if (events.is_ok()) {
    std::size_t n_complete = 0;
    std::size_t n_async = 0;
    std::size_t n_instant = 0;
    std::map<std::string, std::size_t> instants_by_cat;
    std::vector<std::uint64_t> rids;
    for (const ParsedTraceEvent& ev : events.value()) {
      if (ev.ph == 'X') ++n_complete;
      if (ev.ph == 'b' || ev.ph == 'e') ++n_async;
      if (ev.ph == 'i') {
        ++n_instant;
        ++instants_by_cat[ev.cat];
      }
      if (ev.rid != 0) rids.push_back(ev.rid);
    }
    std::sort(rids.begin(), rids.end());
    rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
    out += "trace: " + std::to_string(events.value().size()) + " events (" +
           std::to_string(n_complete) + " spans, " + std::to_string(n_async / 2) +
           " async pairs, " + std::to_string(n_instant) + " instants), " +
           std::to_string(rids.size()) + " distinct request ids\n";
    if (!instants_by_cat.empty()) {
      out += "instants:";
      for (const auto& [cat, n] : instants_by_cat) {
        out += " " + cat + "=" + std::to_string(n);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace bitflow::telemetry
