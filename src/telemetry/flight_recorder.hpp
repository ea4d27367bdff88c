// Black-box flight recorder: always-on tracing + anomaly-triggered
// diagnostic bundles.
//
// The serving tier's failure evidence is perishable — by the time a human
// looks at a shed storm or a p99 blowout, the trace that would explain it is
// gone.  The flight recorder keeps the trace sink armed permanently in
// passive mode (per-thread rings that keep each thread's newest events, see
// trace.hpp).  Discrete facts — sheds, quarantines, drains, deadline
// breaches, failpoint hits, lifecycle transitions — are trace instants in
// the same rings, categorized and joined to their wire request id.  When a
// trigger fires — the SLO-breach detector over observed outcomes, a worker
// quarantine, the serve error-rate detector, or a manual request — it
// snapshots a **diagnostic bundle** to disk:
//
//   <dir>/bundle-000001/
//     MANIFEST.json   version, trigger, reason, per-section size + FNV-1a
//     trace.json      non-destructive trace snapshot (request-id joinable)
//     metrics.prom    Prometheus exposition snapshot
//     <section>.txt   one file per registered context provider (varz,
//                     profile report, layer plans, lifecycle state, ...)
//
// Bundles are written to a temp directory and atomically renamed into
// place, rate-limited (min interval between bundles + max bundle count per
// process) so a flapping trigger cannot fill the disk.
//
// Environment: BITFLOW_FLIGHT_DIR=<dir> arms the recorder (and passive
// tracing) at static init with default thresholds — no code changes needed.
//
// Layering: telemetry depends only on core, so serving-layer state
// (lifecycle, /varz, profile report, layer plans) enters bundles through
// context providers registered by the owning layer (`flight_add_context`).
//
// Only the writer lives here.  Bundles are read back by the line reader in
// tools/trace_reader.hpp (manifest + checksum verification, trace
// well-nesting, metrics parse, the request-id span-chain query), linked by
// `tools/bitflow_bundle_dump` and the tests, never by the run-time library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace bitflow::telemetry {

// ---------------------------------------------------------------------------
// Recording side.

enum class FlightTrigger : std::uint8_t {
  kSloBreach,    ///< deadline-breach detector tripped (flight_observe_outcome)
  kErrorRate,    ///< windowed error-rate detector tripped
  kQuarantine,   ///< a worker circuit breaker quarantined
  kManual,       ///< explicit flight_trigger() call (tools, tests)
};

[[nodiscard]] constexpr const char* flight_trigger_name(FlightTrigger t) noexcept {
  switch (t) {
    case FlightTrigger::kSloBreach: return "slo_breach";
    case FlightTrigger::kErrorRate: return "error_rate";
    case FlightTrigger::kQuarantine: return "quarantine";
    case FlightTrigger::kManual: return "manual";
  }
  return "?";
}

struct FlightRecorderConfig {
  /// Directory bundles are written into (created if missing).  Required.
  std::string dir;
  /// Rate limit: minimum wall time between two bundles.
  std::chrono::milliseconds min_bundle_interval{30'000};
  /// Rate limit: hard cap on bundles per armed session.
  std::size_t max_bundles = 8;
  /// SLO detector: this many deadline breaches (since the last trip)
  /// trigger a bundle.
  std::size_t breach_threshold = 8;
  /// Error-rate detector: over each window of `rate_window` observed
  /// outcomes, an error fraction >= `error_rate_threshold` triggers.
  std::size_t rate_window = 64;
  double error_rate_threshold = 0.5;
};

/// Arms the recorder: arms passive tracing and resets the detectors.
/// Throws std::invalid_argument on an empty dir or a zero rate_window,
/// std::logic_error if already armed.
void flight_start(FlightRecorderConfig cfg);

/// Disarms the recorder (stops passive tracing only if the recorder armed
/// it).  Registered context providers are kept.  No-op when disarmed.
void flight_stop();

/// One relaxed load: is the recorder armed?
[[nodiscard]] bool flight_armed() noexcept;

/// Feeds the SLO-breach / error-rate detectors with one request outcome.
/// Call from the serving layer's resolution paths.  May trigger a bundle
/// (rate-limited) on the calling thread.  Disarmed cost: one relaxed load.
void flight_observe_outcome(bool ok, bool deadline_breach) noexcept;

/// Fires a trigger: records it as a "flight" trace instant and, unless
/// rate-limited, writes a bundle.  Returns true when a bundle was written.
/// No-op (false) when disarmed.
bool flight_trigger(FlightTrigger trigger, const char* reason) noexcept;

/// Registers a named bundle section rendered at snapshot time (e.g. the
/// server's /varz text, profile_report() tables, layer plans).  `owner` keys
/// removal: call flight_remove_contexts(owner) before any state the
/// callback captures is destroyed.  Section names become `<section>.txt`
/// in the bundle.  Callbacks run on the triggering thread and must not
/// call back into the flight recorder.
void flight_add_context(const void* owner, std::string section,
                        std::function<std::string()> fn);
void flight_remove_contexts(const void* owner);

/// Bundles written / suppressed by rate limiting since flight_start().
[[nodiscard]] std::uint64_t flight_bundles_written();
[[nodiscard]] std::uint64_t flight_bundles_suppressed();

/// One /varz-style block: armed state, dir, bundle counters.
[[nodiscard]] std::string flight_status_text();

// ---------------------------------------------------------------------------
// Bundle format, shared with the reader.

inline constexpr int kBundleManifestVersion = 1;

/// FNV-1a 64-bit over `data` — the bundle section checksum.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept;

}  // namespace bitflow::telemetry
