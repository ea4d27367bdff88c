// Chrome-tracing / Perfetto trace-event sink with per-thread ring buffers.
//
// When disabled (the default), a TraceSpan costs ONE relaxed atomic load in
// its constructor and a branch on the cached result in its destructor — the
// same discipline as core/failpoint, verified by bench_micro's span-overhead
// rows and CI's telemetry job.  When enabled (programmatically via
// trace_start(), passively via trace_arm_passive() — the flight recorder's
// always-on mode — or for a whole process via BITFLOW_TRACE=<path>), each
// span records a complete event into its thread's ring: no locks, no
// allocation on the hot path after the first event of a thread.
// trace_stop() (or process exit under BITFLOW_TRACE) merges every thread's
// ring and writes Chrome's JSON array format, loadable in chrome://tracing
// and Perfetto:
//
//   BITFLOW_TRACE=trace.json ./examples/serving_engine
//
// Span vocabulary (cat / name):
//   net     : "net.request" — wire frame receipt on the poll thread
//   serve   : "serve.batch" — one micro-batch through a worker;
//             "serve.batch.member" — instant, one request joining a batch;
//             "serve.drain"
//   graph   : "graph.infer_batch", "pack_input" — one pass through the chain
//   layer   : "layer:<name>" — one network stage
//   kernel  : "<kernel>[<isa>,tN]" — the kernel dispatch inside a stage
//   request : async "serve.request" pairs (enqueue -> resolution); async
//             because a request's lifetime spans threads and overlaps
//             batches, so it must not claim a slot in the nesting stack.
// Instant vocabulary (cat: name is one line of detail, 47 chars at most):
//   lifecycle : "lifecycle:<state>", "lifecycle:router-<state>", "shed",
//               "quarantine" — state transitions, sheds, breaker trips
//   deadline, error, cancel : one request's failed resolution (rid-tagged)
//   shed    : a rejection by the router's lifecycle gate or the wire's
//             per-connection in-flight cap
//   drain, failpoint, decode_error : serving-tier facts
//   flight  : "<trigger>" — a flight-recorder trigger fired
//
// Request-scoped joining: events carry an optional request id (`rid`,
// emitted as args.rid; for the async request pair it is also the event id),
// so one request's wire-to-kernel timeline — net.request on the poll
// thread, the async serve.request track, the serve.batch.member instant on
// the worker that ran it, and the layer/kernel spans nested in that
// worker's serve.batch window — reconstructs from a single trace.
//
// Each thread's ring holds its newest kTraceRingEvents events and
// overwrites the oldest.  Rings are never reset or resized: arming records
// each ring's head, a trace shows only what was recorded since, and the
// events a session lost to wrapping are reported in the trace metadata and
// surfaced as the `telemetry.trace.dropped` registry gauge.  A thread that
// exits hands its ring, events and tid included, to the next thread that
// records, so the rings number the most threads ever recording at once and
// a tid is a ring's track: short-lived threads run one after another share
// one.  A record made after its thread's ring went back (from a later
// thread_local destructor) is dropped.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace bitflow::telemetry {

/// Per-thread ring depth: the newest this-many events of each thread survive.
inline constexpr std::size_t kTraceRingEvents = std::size_t{1} << 14;

namespace detail {
// Ordering contract: relaxed loads/stores only.  Arming publishes no data
// through this flag — a span that observes the old value merely skips (or
// clamps into) the session; slot publication orders via each slot's
// release/acquire sequence number instead.
extern std::atomic<bool> g_trace_enabled;
/// Appends a complete event to the calling thread's ring.  `start_ns`/`end_ns`
/// are steady_clock readings.  `name` is copied into the ring slot (truncated
/// to 47 chars) so dynamic names — layer/kernel names owned by a network —
/// stay valid even when the flush runs at process exit; `cat` must be a
/// string literal (the pointer is kept).  `rid` (0 = none) joins the event
/// to a wire request.
void trace_record(const char* name, const char* cat, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t arg, std::uint64_t rid = 0);
/// Appends an async begin/end pair (rendered as its own track).
void trace_record_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid = 0);
/// Appends a thread-scoped instant event.
void trace_record_instant(const char* name, const char* cat, std::uint64_t ts_ns,
                          std::uint64_t rid);
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// Appends `s` as a JSON string: quoted, with '"' and '\\' escaped by a
/// backslash and bytes below 0x20 dropped.  The trace and the bundle
/// manifest are both written through it; tools/trace_reader.cpp decodes
/// exactly these two escapes.
void append_json_string(std::string& out, std::string_view s);
}  // namespace detail

/// One relaxed load: is the trace sink armed?
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Arms the sink; events recorded from now on are written to `path` by
/// trace_stop() — each thread's newest kTraceRingEvents of them.  Throws
/// std::invalid_argument on an empty path, std::logic_error if already armed.
void trace_start(const std::string& path);

/// Arms the sink with NO output path: events accumulate in the rings and are
/// read non-destructively by trace_snapshot_json() — the flight recorder's
/// always-on mode.  trace_stop() on a passive session disarms without
/// writing a file.  No-op when a session (either kind) is already armed —
/// the existing session's rings serve the snapshots.
void trace_arm_passive();

/// Disarms the sink, merges every thread's ring and writes the JSON file
/// (unless the session was passive).  Returns the number of events written.
/// No-op returning 0 when not armed.
std::size_t trace_stop();

/// Non-destructive snapshot: merges the events every thread's ring holds
/// from this session into a Chrome-trace JSON string WITHOUT disarming —
/// safe to call while writers keep recording (a slot overwritten mid-read
/// is skipped).  Returns an empty string when not armed.
[[nodiscard]] std::string trace_snapshot_json();

/// Events the rings overwrote since the session armed (0 when disarmed).
[[nodiscard]] std::uint64_t trace_dropped_events();

/// RAII scoped span.  Disarmed cost: one relaxed atomic load (constructor)
/// plus a predictable branch (destructor).  `rid` (0 = none) joins the span
/// to a wire request (emitted as args.rid).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "span",
                     std::int64_t arg = -1, std::uint64_t rid = 0) noexcept
      : name_(name), cat_(cat), arg_(arg), rid_(rid), armed_(trace_enabled()) {
    if (armed_) [[unlikely]] start_ns_ = detail::now_ns();
  }
  ~TraceSpan() {
    if (armed_) [[unlikely]] {
      detail::trace_record(name_, cat_, start_ns_, detail::now_ns(), arg_, rid_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t arg_;
  std::uint64_t rid_;
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

/// Records an async (cross-thread) interval from explicit steady_clock
/// nanosecond readings; used for request lifetimes.  Call only after
/// checking trace_enabled().
inline void trace_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid = 0) {
  detail::trace_record_async(name, cat, start_ns, end_ns, id, rid);
}

/// Thread-scoped instant event (Chrome ph "i"): a point in time interleaved
/// with the surrounding spans — lifecycle transitions, shed decisions,
/// batch membership, failed resolutions.  `name` is copied (47 chars at
/// most); `cat` must be a string literal.  One relaxed load when disarmed
/// (CI-gated at <= 5 ns, BENCH_telemetry.json).
inline void trace_instant(const char* name, const char* cat = "lifecycle",
                          std::uint64_t rid = 0) noexcept {
  if (trace_enabled()) [[unlikely]] {
    detail::trace_record_instant(name, cat, detail::now_ns(), rid);
  }
}

/// steady_clock now in nanoseconds (the time base every recorded span uses).
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept { return detail::now_ns(); }

/// Fresh process-unique id for an async interval.
[[nodiscard]] std::uint64_t trace_next_async_id();

}  // namespace bitflow::telemetry
