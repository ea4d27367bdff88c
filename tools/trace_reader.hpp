// The one reader of what the telemetry writers emit: a flight-recorder
// bundle (MANIFEST.json plus its sections, see telemetry/flight_recorder.hpp)
// and a Chrome trace (trace_stop()'s file, trace_snapshot_json(), a bundle's
// trace.json).  It lives under tools/ with its only callers,
// bitflow_bundle_dump and the tests; the run-time library never reads a
// bundle back.
//
// It reads lines, not general JSON, and accepts only the layout the writers
// produce:
//   trace     the header line {"displayTimeUnit":"ms","traceEvents":[, one
//             event object per line (each but the last ending in ','), then
//             ]} — or the recorder's fallback {"traceEvents":[]} when no
//             trace session was armed.  An event's keys are read one by one
//             in the order the writer emits them, optional keys only where
//             the writer puts them.
//   manifest  {, one field per line (version, seq, trigger, reason), the
//             "sections": [ line, one section object per line, ], }.
// Every file ends in a newline.  Strings decode only \" and \\ (the writer
// drops bytes below 0x20 and escapes nothing else), and integers are read
// exactly up to 2^64 - 1.  Anything else is rejected: the fuzz tests in
// flight_recorder_test feed it truncations and bit flips.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"

namespace bitflow::telemetry {

struct BundleSectionInfo {
  std::string name;       ///< file name within the bundle directory
  std::uint64_t size = 0;
  std::uint64_t fnv1a = 0;
};

struct BundleManifest {
  std::uint64_t version = 0;
  std::uint64_t seq = 0;
  std::string trigger;
  std::string reason;
  std::vector<BundleSectionInfo> sections;
};

struct Bundle {
  BundleManifest manifest;
  std::map<std::string, std::string> sections;  ///< name -> raw contents
};

/// One trace event as written.
struct ParsedTraceEvent {
  std::string name;
  std::string cat;
  char ph = '?';
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t id = 0;   ///< async pair id (0 = none)
  std::uint64_t rid = 0;  ///< args.rid (0 = none)
};

/// Reads all of `s` as a decimal integer: digits only, no sign or space,
/// exact up to 2^64 - 1.
[[nodiscard]] bool parse_decimal_u64(std::string_view s, std::uint64_t* out);

/// Reads a rendered trace into its events, the trailing
/// trace_dropped_events counter included.  kBadInput on any line the writer
/// would not have produced.
[[nodiscard]] core::Result<std::vector<ParsedTraceEvent>> parse_trace(std::string_view text);

/// Complete ('X') spans on one thread must nest like a call stack.
[[nodiscard]] core::Status check_trace_nesting(const std::vector<ParsedTraceEvent>& events);

/// Reads `<dir>/MANIFEST.json` plus every listed section, verifying sizes
/// and FNV-1a checksums.  Fail-closed: any missing, truncated or corrupt
/// piece is kBadInput, never a crash (fuzzed).
[[nodiscard]] core::Result<Bundle> load_bundle(const std::string& dir);

/// Structural validation of a loaded bundle: manifest version, required
/// sections present, trace.json reads with well-nested 'X' spans per
/// thread, metrics.prom reads as Prometheus text.
[[nodiscard]] core::Status validate_bundle(const Bundle& bundle);

/// The bundle's trace.json through parse_trace().
[[nodiscard]] core::Result<std::vector<ParsedTraceEvent>> parse_bundle_trace(
    const Bundle& bundle);

/// True when the trace holds request `rid`'s wire-to-kernel chain: a
/// "net.request" span, the async "serve.request" pair, a
/// "serve.batch.member" instant, and a kernel-category span on the member's
/// thread overlapping its timestamp.
[[nodiscard]] bool bundle_has_request_chain(const Bundle& bundle, std::uint64_t rid);

/// Human-readable multi-line description (bitflow_bundle_dump output).
[[nodiscard]] std::string bundle_summary(const Bundle& bundle);

}  // namespace bitflow::telemetry
