// Hardware performance-counter sampling for the per-layer roofline.
//
// The profiler attributes each layer's achieved GOPS against a *calibrated*
// roof (its tile kernel timed on one thread over cache-resident operands) —
// a model, not a measurement.  PerfSampler turns the same per-layer span hooks into
// measured evidence: one perf_event_open counter group per worker thread
// (cycles leader + instructions + LLC misses, opened with
// PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING so
// multiplexed readings scale honestly), read at layer boundaries so
// profile_report() and /varz can print measured IPC and LLC misses-per-kilo-
// instruction next to AIT.
//
// Graceful degradation is a hard requirement (acceptance criterion): the
// syscall is frequently unavailable — seccomp'd containers, CI runners,
// perf_event_paranoid — so available() probes once and everything else
// no-ops, leaving the calibrated roof as the explicit
// `source=calibrated` fallback.  BITFLOW_NO_PERF=1 forces the fallback for
// deterministic tests.
//
// Counts are cumulative per sampler: callers snapshot read() before and
// after a region and subtract (operator-).  Reading another thread's group
// fd from the profiling thread is supported by the kernel ABI — fds are
// opened per-tid but readable from anywhere.
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.hpp"

namespace bitflow::telemetry {

/// One multiplex-scaled counter reading (cumulative since open()).
struct PerfCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  bool valid = false;

  [[nodiscard]] double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
};

/// a - b, clamped at zero per field (multiplex scaling can jitter
/// cumulative readings backwards by a few counts).
[[nodiscard]] inline PerfCounts operator-(const PerfCounts& a, const PerfCounts& b) noexcept {
  PerfCounts d;
  d.valid = a.valid && b.valid;
  d.cycles = a.cycles >= b.cycles ? a.cycles - b.cycles : 0;
  d.instructions = a.instructions >= b.instructions ? a.instructions - b.instructions : 0;
  d.llc_misses = a.llc_misses >= b.llc_misses ? a.llc_misses - b.llc_misses : 0;
  return d;
}

class PerfSampler {
 public:
  /// One-time probe (cached): can this process open a hardware counter
  /// group?  False on non-Linux, restricted perf_event_paranoid, seccomp,
  /// missing PMU (VMs), or BITFLOW_NO_PERF=1.
  [[nodiscard]] static bool available() noexcept;

  PerfSampler() = default;
  ~PerfSampler() { close_all(); }
  PerfSampler(const PerfSampler&) = delete;
  PerfSampler& operator=(const PerfSampler&) = delete;

  /// Opens one enabled counter group per thread id.  `tid` 0 means the
  /// calling thread; non-positive/duplicate ids are skipped.  Threads whose
  /// group fails to open are skipped (their work goes unmeasured rather
  /// than failing the sampler); returns non-OK only when NO group opened.
  core::Status open(const std::vector<int>& tids);

  /// Any group open?
  [[nodiscard]] bool active() const noexcept { return !leaders_.empty(); }

  /// Sums all groups' readings, each scaled by time_enabled/time_running
  /// (counter multiplexing).  `valid` is false when inactive.
  [[nodiscard]] PerfCounts read() const noexcept;

  void close_all() noexcept;

 private:
  std::vector<int> leaders_;  ///< group-leader fds (one read each)
  std::vector<int> fds_;      ///< every fd we own, for close()
};

}  // namespace bitflow::telemetry
