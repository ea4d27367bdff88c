#include "telemetry/flight_recorder.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::telemetry {

namespace {

namespace fs = std::filesystem;

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
  detail::append_json_string(manifest, flight_trigger_name(trigger));
  manifest += ",\n  \"reason\": ";
  detail::append_json_string(manifest, reason != nullptr ? reason : "");
  manifest += ",\n  \"sections\": [\n";
  bool wrote_all = true;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& [sec_name, body] = sections[i];
    wrote_all = wrote_all && write_whole_file(tmp_dir / sec_name, body);
    char sum[24];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(body.data(), body.size())));
    manifest += "    {\"name\": ";
    detail::append_json_string(manifest, sec_name);
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

std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace bitflow::telemetry
