#include "telemetry/profiler.hpp"

#include <cstdlib>

namespace bitflow::telemetry {

namespace {

// Ordering contract: relaxed — arming profiling publishes no data; the
// accumulators a newly armed thread records into are individually racy-safe.
std::atomic<bool> g_profiling{false};

const bool g_profile_env_applied = [] {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): runs once at static init.
  const char* v = std::getenv("BITFLOW_PROFILE");
  if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
    g_profiling.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}();

}  // namespace

bool profiling_enabled() noexcept {
  return g_profiling.load(std::memory_order_relaxed);
}

void set_profiling(bool on) noexcept {
  g_profiling.store(on, std::memory_order_relaxed);
}

}  // namespace bitflow::telemetry
