#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "telemetry/metrics.hpp"

namespace bitflow::telemetry {

namespace {

constexpr std::size_t kNameCap = 48;  // 47 chars + NUL
constexpr std::size_t kNameWords = kNameCap / sizeof(std::uint64_t);
constexpr std::uint64_t kSlotMask = kTraceRingEvents - 1;
constexpr std::uint64_t kIdNone = UINT64_MAX;  // synchronous event
static_assert((kTraceRingEvents & kSlotMask) == 0, "ring depth must be a power of two");

/// One event as the renderer reads it back out of a slot.
struct TraceEvent {
  char name[kNameCap];
  const char* cat;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t arg;   // >= 0: recorded as args.n
  std::uint64_t rid;  // != 0: recorded as args.rid (wire request id)
  std::uint64_t id;   // async pair id; kIdNone = synchronous
  char ph;            // 'X' complete span, 'a' async pair, 'i' instant
};

/// One ring slot.  Span names are COPIED in (truncated to 47 chars): layer
/// and kernel names point into network internals that may be destroyed
/// before the atexit flush of a BITFLOW_TRACE session.  Categories must be
/// string literals (see trace.hpp), so the pointer is kept.
struct Slot {
  // Ordering contract: single-writer seqlock.  seq holds 1 + the index of
  // the event the slot publishes (0 = being written or never written).  The
  // writer stores seq = 0 relaxed, fences release, stores the payload
  // relaxed, then release-stores index + 1.  A reader acquire-loads seq,
  // copies the payload relaxed, fences acquire and re-reads seq: a slot
  // whose seq moved, or does not hold the index the reader wants, is
  // skipped.  Every payload field is a relaxed atomic, so the read that
  // races an overwrite is defined (and TSan-clean) and then discarded.
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> name[kNameWords] = {};
  std::atomic<const char*> cat{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::int64_t> arg{0};
  std::atomic<std::uint64_t> rid{0};
  // Ordering contract: relaxed payload, published by seq (see above).
  std::atomic<std::uint64_t> pair_id{0};
  std::atomic<char> ph{0};

  /// Copies the payload of event `index` into `ev`; false when the slot no
  /// longer (or not yet) holds that event, or was overwritten mid-copy.
  bool read(std::uint64_t index, TraceEvent& ev) const noexcept {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 != index + 1) return false;
    for (std::size_t w = 0; w < kNameWords; ++w) {
      const std::uint64_t word = name[w].load(std::memory_order_relaxed);
      std::memcpy(ev.name + w * sizeof word, &word, sizeof word);
    }
    ev.name[kNameCap - 1] = '\0';
    ev.cat = cat.load(std::memory_order_relaxed);
    ev.start_ns = start_ns.load(std::memory_order_relaxed);
    ev.end_ns = end_ns.load(std::memory_order_relaxed);
    ev.arg = arg.load(std::memory_order_relaxed);
    ev.rid = rid.load(std::memory_order_relaxed);
    ev.id = pair_id.load(std::memory_order_relaxed);
    ev.ph = ph.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq.load(std::memory_order_relaxed) == s1;
  }
};

/// One thread's event ring: kTraceRingEvents slots that keep the newest
/// events, overwriting the oldest.  Single writer (the thread holding it;
/// it changes hands only at thread exit, under TraceState::mu); readers run
/// concurrently through the per-slot seqlock.  Never reset or resized, so a
/// span that straddles a re-arm writes into the same memory.
struct ThreadRing {
  explicit ThreadRing(std::uint32_t thread_id) : slots(kTraceRingEvents), tid(thread_id) {}
  std::vector<Slot> slots;
  // Ordering contract: head counts the events ever pushed.  Only the owner
  // writes it, release-storing index + 1 after publishing the slot; a
  // reader's acquire load bounds the scan (each slot's seq still decides).
  std::atomic<std::uint64_t> head{0};
  const std::uint32_t tid;

  void push(const char* name_in, const char* cat_in, std::uint64_t start,
            std::uint64_t end, std::int64_t arg_in, std::uint64_t rid_in,
            std::uint64_t id_in, char ph_in) noexcept {
    const std::uint64_t n = head.load(std::memory_order_relaxed);
    Slot& s = slots[n & kSlotMask];
    s.seq.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    char buf[kNameCap] = {};
    std::strncpy(buf, name_in, kNameCap - 1);
    for (std::size_t w = 0; w < kNameWords; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, buf + w * sizeof word, sizeof word);
      s.name[w].store(word, std::memory_order_relaxed);
    }
    s.cat.store(cat_in, std::memory_order_relaxed);
    s.start_ns.store(start, std::memory_order_relaxed);
    s.end_ns.store(end, std::memory_order_relaxed);
    s.arg.store(arg_in, std::memory_order_relaxed);
    s.rid.store(rid_in, std::memory_order_relaxed);
    s.pair_id.store(id_in, std::memory_order_relaxed);
    s.ph.store(ph_in, std::memory_order_relaxed);
    s.seq.store(n + 1, std::memory_order_release);
    head.store(n + 1, std::memory_order_release);
  }
};

/// A registered ring plus its head when the current session armed: the
/// render skips events below `base`, and everything above it that the ring
/// no longer holds was overwritten during this session.
struct RingEntry {
  std::unique_ptr<ThreadRing> ring;
  std::uint64_t base = 0;
};

struct TraceState {
  // mu guards the session state (arm/flush/ring registration); recording
  // into an already-registered ring is lock-free and goes through the
  // thread_local pointer, never this struct.
  core::Mutex mu;
  bool armed BF_GUARDED_BY(mu) = false;
  std::string path BF_GUARDED_BY(mu);  // empty: a passive session
  std::uint64_t t0_ns BF_GUARDED_BY(mu) = 0;
  std::uint32_t next_tid BF_GUARDED_BY(mu) = 1;
  // Ordering contract: relaxed fetch_add — ids only need uniqueness.
  std::atomic<std::uint64_t> next_async_id{1};
  // Rings live for the whole process and keep their events after their
  // thread exits.  The vector is guarded; the pointed-to rings are
  // lock-free (see above).
  std::vector<RingEntry> rings BF_GUARDED_BY(mu);
  // Rings whose threads exited, the most recently freed last; the next
  // thread to record takes the back one.  The mutex hands a ring from its
  // old writer to its new one.
  std::vector<ThreadRing*> free_rings BF_GUARDED_BY(mu);
};

/// Events overwritten since the session armed, summed over every ring.
std::uint64_t overwritten_locked(TraceState& st) BF_REQUIRES(st.mu) {
  std::uint64_t total = 0;
  for (const RingEntry& e : st.rings) {
    const std::uint64_t n = e.ring->head.load(std::memory_order_relaxed) - e.base;
    if (n > kTraceRingEvents) total += n - kTraceRingEvents;
  }
  return total;
}

TraceState& state() {
  static TraceState* s = [] {
    auto* st = new TraceState();  // leaked: threads record at exit
    // Ring wraps are otherwise silent: surface the session's overwritten
    // count through the registry so dashboards see burst loss.  The
    // registry and this state are both process-lifetime leaks, so the
    // callback never dangles; it takes the trace mutex under the registry
    // mutex (Registry mu -> trace mu, one-way — nothing holding the trace
    // mutex calls the registry's locked API).
    registry().add_callback_gauge(st, "telemetry.trace.dropped", "", [st] {
      core::MutexLock lock(st->mu);
      return st->armed ? static_cast<double>(overwritten_locked(*st)) : 0.0;
    });
    return st;
  }();
  return *s;
}

// The calling thread's ring: null before its first record and after its
// exit returned the ring.  Both are trivially destructible, so a record made
// from any thread_local destructor still reads them.
thread_local ThreadRing* t_ring = nullptr;
thread_local bool t_ring_returned = false;

/// Returns the thread's ring to the free list when the thread exits.
struct RingReturn {
  RingReturn() = default;
  RingReturn(const RingReturn&) = delete;
  RingReturn& operator=(const RingReturn&) = delete;
  ~RingReturn() {
    TraceState& st = state();
    core::MutexLock lock(st.mu);
    st.free_rings.push_back(t_ring);
    t_ring = nullptr;
    t_ring_returned = true;
  }
};

/// Slow path of this_thread_ring(): the most recently freed ring, or a new
/// one registered for the life of the process (the renderer never reads
/// freed memory).  A ring born mid-session starts at base 0.
ThreadRing* acquire_ring() {
  // The ring this thread returned may belong to another thread by now.
  if (t_ring_returned) return nullptr;
  TraceState& st = state();
  {
    core::MutexLock lock(st.mu);
    if (st.free_rings.empty()) {
      st.rings.push_back({std::make_unique<ThreadRing>(st.next_tid++), 0});
      t_ring = st.rings.back().ring.get();
    } else {
      t_ring = st.free_rings.back();
      st.free_rings.pop_back();
    }
  }
  thread_local RingReturn on_exit;
  return t_ring;
}

ThreadRing* this_thread_ring() { return t_ring != nullptr ? t_ring : acquire_ring(); }

/// Opens a session: every ring's current head becomes its base, so the
/// render starts at the first event recorded from here on.
void arm_locked(TraceState& st, std::string path) BF_REQUIRES(st.mu) {
  st.path = std::move(path);
  st.t0_ns = detail::now_ns();
  for (RingEntry& e : st.rings) e.base = e.ring->head.load(std::memory_order_relaxed);
  st.armed = true;
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

/// Serializes every event each ring still holds from the current session
/// into Chrome's JSON array format.  Caller holds the trace mutex.  Reads
/// are non-destructive and safe against concurrent writers: each slot is
/// read through its seqlock, and one overwritten mid-read is skipped.
std::string render_json_locked(TraceState& st, std::size_t* events_out)
    BF_REQUIRES(st.mu) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::size_t written = 0;
  auto emit = [&](const TraceEvent& ev, std::uint32_t tid, double ts_us, double dur_us,
                  const char* ph, std::uint64_t id) {
    if (written != 0) out += ",\n";
    out += "{\"name\":";
    detail::append_json_string(out, ev.name);
    out += ",\"cat\":";
    detail::append_json_string(out, ev.cat);
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", ts_us);
    out += buf;
    if (ph[0] == 'X') {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", dur_us);
      out += buf;
    }
    if (ph[0] == 'i') out += ",\"s\":\"t\"";
    if (id != kIdNone) {
      out += ",\"id\":\"";
      out += std::to_string(id);
      out += '"';
    }
    if (ev.arg >= 0 || ev.rid != 0) {
      out += ",\"args\":{";
      bool first = true;
      if (ev.arg >= 0) {
        out += "\"n\":";
        out += std::to_string(ev.arg);
        first = false;
      }
      if (ev.rid != 0) {
        if (!first) out += ',';
        out += "\"rid\":";
        out += std::to_string(ev.rid);
      }
      out += '}';
    }
    out += '}';
    ++written;
  };

  TraceEvent ev;
  for (const RingEntry& e : st.rings) {
    const std::uint64_t head = e.ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo =
        std::max(e.base, head > kTraceRingEvents ? head - kTraceRingEvents : 0);
    for (std::uint64_t i = lo; i < head; ++i) {
      if (!e.ring->slots[i & kSlotMask].read(i, ev)) continue;
      // Clamp an event that straddled arming (a span constructed before
      // arming records nothing, but one constructed in an earlier session
      // can close in this one) to start at t0.
      const std::uint64_t start = std::max(ev.start_ns, st.t0_ns);
      const double ts_us = static_cast<double>(start - st.t0_ns) / 1000.0;
      const double dur_us =
          static_cast<double>(std::max(ev.end_ns, start) - start) / 1000.0;
      const std::uint32_t tid = e.ring->tid;
      if (ev.ph == 'i') {
        emit(ev, tid, ts_us, 0.0, "i", kIdNone);
      } else if (ev.id == kIdNone) {
        emit(ev, tid, ts_us, dur_us, "X", kIdNone);
      } else {
        emit(ev, tid, ts_us, 0.0, "b", ev.id);
        emit(ev, tid, ts_us + dur_us, 0.0, "e", ev.id);
      }
    }
  }
  // Footer: stamp the session's overwritten count into the trace so a
  // consumer knows how far back the timeline reaches (also exported live as
  // the telemetry.trace.dropped registry gauge).
  if (written != 0) out += ",\n";
  out += "{\"name\":\"trace_dropped_events\",\"cat\":\"meta\",\"ph\":\"C\",\"pid\":1,"
         "\"tid\":0,\"ts\":0,\"args\":{\"dropped\":";
  out += std::to_string(overwritten_locked(st));
  out += "}}";
  ++written;
  out += "\n]}\n";
  if (events_out != nullptr) *events_out = written;
  return out;
}

/// Applies BITFLOW_TRACE before main() and flushes at process exit, so any
/// binary in the tree can be traced without code changes.
const bool g_env_applied = [] {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): runs once at static init.
  const char* path = std::getenv("BITFLOW_TRACE");
  if (path == nullptr || path[0] == '\0') return false;
  try {
    trace_start(path);
    std::atexit([] {
      const std::size_t n = trace_stop();
      std::fprintf(stderr, "[bitflow] trace: wrote %zu events to %s\n", n,
                   std::getenv("BITFLOW_TRACE"));  // NOLINT(concurrency-mt-unsafe)
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bitflow] ignoring BITFLOW_TRACE: %s\n", e.what());
  }
  return true;
}();

}  // namespace

namespace detail {

// Ordering contract: relaxed (see trace.hpp — the flag publishes nothing).
std::atomic<bool> g_trace_enabled{false};

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void trace_record(const char* name, const char* cat, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t arg, std::uint64_t rid) {
  if (ThreadRing* r = this_thread_ring()) {
    r->push(name, cat, start_ns, end_ns, arg, rid, kIdNone, 'X');
  }
}

void trace_record_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid) {
  if (id == kIdNone) id -= 1;
  if (ThreadRing* r = this_thread_ring()) r->push(name, cat, start_ns, end_ns, -1, rid, id, 'a');
}

void trace_record_instant(const char* name, const char* cat, std::uint64_t ts_ns,
                          std::uint64_t rid) {
  if (ThreadRing* r = this_thread_ring()) r->push(name, cat, ts_ns, ts_ns, -1, rid, kIdNone, 'i');
}

}  // namespace detail

void trace_start(const std::string& path) {
  if (path.empty()) throw std::invalid_argument("trace_start: empty path");
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (st.armed) throw std::logic_error("trace_start: trace already armed");
  arm_locked(st, path);
}

void trace_arm_passive() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (st.armed) return;  // existing session (either kind) serves snapshots
  arm_locked(st, {});
}

std::uint64_t trace_dropped_events() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  return st.armed ? overwritten_locked(st) : 0;
}

std::string trace_snapshot_json() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (!st.armed) return {};
  std::size_t written = 0;
  return render_json_locked(st, &written);
}

std::size_t trace_stop() {
  TraceState& st = state();
  core::MutexLock lock(st.mu);
  if (!st.armed) return 0;
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
  st.armed = false;

  std::size_t written = 0;
  if (!st.path.empty()) {
    const std::string json = render_json_locked(st, &written);
    std::FILE* f = std::fopen(st.path.c_str(), "w");
    bool ok = f != nullptr && std::fputs(json.c_str(), f) != EOF;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "[bitflow] trace: cannot write '%s'\n", st.path.c_str());
      written = 0;
    }
  }
  return written;
}

/// Fresh id for an async interval (request lifetimes).
std::uint64_t trace_next_async_id() {
  return state().next_async_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace bitflow::telemetry
