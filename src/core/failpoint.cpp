#include "core/failpoint.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace bitflow::failpoint {

namespace {

// Fixed catalog of every injection site compiled into the library.  Names
// are namespaced by subsystem; the serving boundary maps a FaultInjected
// back to a Status code by this prefix (serve/error_map.cpp).
constexpr std::array<PointInfo, 15> kCatalog{{
    {"io.open", "Model::load(path) after the file was opened"},
    {"io.read_header", "Model::load(path) and load(istream) after magic/version were read"},
    {"io.read_weights",
     "Model::load(path) and load(istream) before each layer weight payload"},
    {"alloc.buffer", "AlignedBuffer allocation (every tensor/weight buffer)"},
    {"runtime.worker", "ThreadPool job execution, every worker incl. the caller"},
    {"runtime.worker_stall", "ThreadPool job execution (stall flavour, same site)"},
    {"serve.infer", "Engine batch and per-member rerun entry, inside the error boundary"},
    {"serve.queue_admit", "Engine::submit admission path, before the request is enqueued"},
    {"serve.shed", "Engine::submit load-shedding decision: site-fault forces a shed"},
    {"serve.cancel_checkpoint",
     "infer_batch layer-boundary checkpoint: site-fault forces a cancellation"},
    {"serve.drain", "Engine::drain entry, inside the drain error boundary"},
    {"serve.worker_quarantine",
     "Engine worker breaker evaluation: site-fault forces a quarantine trip"},
    {"simd.force_fallback", "finalize() ISA clamp: site-fault lowers every layer to u64"},
    {"net.accept", "Server poll loop, accepting a new connection"},
    {"net.frame_decode", "Server binary input path, before buffered frames are decoded"},
}};

struct PointState {
  bool armed = false;
  Config cfg;
  std::uint64_t hits = 0;   // hits while armed (reset by arm)
  std::uint64_t fired = 0;  // how many of those hits fired
};

// Lock ordering: g_mutex is a leaf — no other lock is ever taken while it
// is held (detail::hit() performs its action after releasing it).
core::Mutex g_mutex;
std::array<PointState, kCatalog.size()> g_state BF_GUARDED_BY(g_mutex);

/// Index of `name` in the catalog, or -1.
int find(std::string_view name) {
  for (std::size_t i = 0; i < kCatalog.size(); ++i) {
    if (kCatalog[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int find_or_throw(std::string_view name) {
  const int i = find(name);
  if (i < 0) {
    throw std::invalid_argument("failpoint: unknown name '" + std::string(name) + "'");
  }
  return i;
}

/// Parses "count(12)" / "stall(250)"-style parameterized tokens.
bool parse_paren(std::string_view token, std::string_view keyword, std::uint64_t& out) {
  if (token.size() < keyword.size() + 3 || token.substr(0, keyword.size()) != keyword ||
      token[keyword.size()] != '(' || token.back() != ')') {
    return false;
  }
  const std::string_view digits =
      token.substr(keyword.size() + 1, token.size() - keyword.size() - 2);
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (char ch : digits) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  out = v;
  return true;
}

/// Parses one "name=trigger:action" clause.
void arm_one_clause(std::string_view clause) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos) {
    throw std::invalid_argument("failpoint spec: missing '=' in '" + std::string(clause) + "'");
  }
  const std::string_view name = clause.substr(0, eq);
  const std::string_view rest = clause.substr(eq + 1);
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) {
    throw std::invalid_argument("failpoint spec: missing ':' in '" + std::string(clause) + "'");
  }
  const std::string_view trig = rest.substr(0, colon);
  const std::string_view act = rest.substr(colon + 1);

  Config cfg;
  std::uint64_t n = 0;
  if (trig == "always") {
    cfg.trigger = Trigger::kAlways;
  } else if (trig == "once") {
    cfg.trigger = Trigger::kOnce;
  } else if (parse_paren(trig, "count", n) && n > 0) {
    cfg.trigger = Trigger::kCounted;
    cfg.n = n;
  } else if (parse_paren(trig, "every", n) && n > 0) {
    cfg.trigger = Trigger::kEveryNth;
    cfg.n = n;
  } else {
    throw std::invalid_argument("failpoint spec: bad trigger '" + std::string(trig) + "'");
  }

  if (act == "error") {
    cfg.action = Action::kError;
  } else if (act == "badalloc") {
    cfg.action = Action::kBadAlloc;
  } else if (act == "site") {
    cfg.action = Action::kSite;
  } else if (parse_paren(act, "stall", n)) {
    cfg.action = Action::kStall;
    cfg.stall_ms = n;
  } else {
    throw std::invalid_argument("failpoint spec: bad action '" + std::string(act) + "'");
  }

  arm(name, cfg);
}

// Environment activation runs before main() so env-armed failpoints cover
// code executed from static initializers of downstream binaries too.
const bool g_env_applied = [] {
  arm_from_env();
  return true;
}();

}  // namespace

const std::vector<PointInfo>& catalog() {
  static const std::vector<PointInfo> v(kCatalog.begin(), kCatalog.end());
  return v;
}

void arm(std::string_view name, Config cfg) {
  if ((cfg.trigger == Trigger::kCounted || cfg.trigger == Trigger::kEveryNth) && cfg.n == 0) {
    throw std::invalid_argument("failpoint: trigger parameter n must be >= 1");
  }
  const int i = find_or_throw(name);
  core::MutexLock lock(g_mutex);
  PointState& st = g_state[static_cast<std::size_t>(i)];
  if (!st.armed) detail::g_armed_points.fetch_add(1, std::memory_order_relaxed);
  st.armed = true;
  st.cfg = cfg;
  st.hits = 0;
  st.fired = 0;
}

void disarm(std::string_view name) {
  const int i = find_or_throw(name);
  core::MutexLock lock(g_mutex);
  PointState& st = g_state[static_cast<std::size_t>(i)];
  if (st.armed) detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
  st.armed = false;
}

void disarm_all() {
  core::MutexLock lock(g_mutex);
  for (PointState& st : g_state) {
    if (st.armed) detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
    st.armed = false;
  }
}

bool armed(std::string_view name) {
  const int i = find_or_throw(name);
  core::MutexLock lock(g_mutex);
  return g_state[static_cast<std::size_t>(i)].armed;
}

std::uint64_t hit_count(std::string_view name) {
  const int i = find_or_throw(name);
  core::MutexLock lock(g_mutex);
  return g_state[static_cast<std::size_t>(i)].hits;
}

void arm_from_spec(std::string_view spec) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(pos, end - pos);
    if (!clause.empty()) arm_one_clause(clause);
    pos = end + 1;
  }
}

void arm_from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before main() normally.
  const char* spec = std::getenv("BITFLOW_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return;
  try {
    arm_from_spec(spec);
  } catch (const std::exception& e) {
    // A malformed env var must not abort the process that inherited it.
    std::fprintf(stderr, "[bitflow] ignoring BITFLOW_FAILPOINTS: %s\n", e.what());
  }
}

namespace detail {

// Ordering contract: relaxed (see failpoint.hpp — it is only a fast-path
// gate; point state synchronizes through g_mutex).
std::atomic<int> g_armed_points{0};

bool hit(const char* name) {
  Action action{};
  std::uint64_t stall_ms = 0;
  {
    core::MutexLock lock(g_mutex);
    const int i = find(name);
    // An unknown name in a BF_FAILPOINT macro is a wiring bug, but hit()
    // runs inside production paths — degrade to a no-op rather than abort.
    if (i < 0) return false;
    PointState& st = g_state[static_cast<std::size_t>(i)];
    if (!st.armed) return false;
    ++st.hits;
    bool fire = false;
    switch (st.cfg.trigger) {
      case Trigger::kAlways: fire = true; break;
      case Trigger::kOnce: fire = st.fired == 0; break;
      case Trigger::kCounted: fire = st.fired < st.cfg.n; break;
      case Trigger::kEveryNth: fire = st.hits % st.cfg.n == 0; break;
    }
    if (!fire) return false;
    ++st.fired;
    const bool exhausted = (st.cfg.trigger == Trigger::kOnce && st.fired >= 1) ||
                           (st.cfg.trigger == Trigger::kCounted && st.fired >= st.cfg.n);
    if (exhausted) {
      st.armed = false;
      g_armed_points.fetch_sub(1, std::memory_order_relaxed);
    }
    action = st.cfg.action;
    stall_ms = st.cfg.stall_ms;
  }
  // Perform the action outside the registry lock: a stalled worker must not
  // block other threads' failpoint evaluation, and throwing with a lock
  // held would be an obvious self-inflicted wound.
  switch (action) {
    case Action::kError: throw FaultInjected(name);
    case Action::kBadAlloc: throw std::bad_alloc();
    case Action::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      return false;
    case Action::kSite: return true;
  }
  return false;
}

}  // namespace detail

}  // namespace bitflow::failpoint
