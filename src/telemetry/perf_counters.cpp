#include "telemetry/perf_counters.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace bitflow::telemetry {

#if defined(__linux__)

namespace {

int perf_open(perf_event_attr* attr, int tid, int group_fd) noexcept {
  return static_cast<int>(
      ::syscall(SYS_perf_event_open, attr, tid, /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

perf_event_attr make_attr(std::uint64_t config, bool leader) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = config;
  // The leader starts disabled and is enabled once the whole group is
  // attached, so members never measure a partially built group.
  attr.disabled = leader ? 1 : 0;
  attr.exclude_kernel = 1;  // user-space kernels only; also lowers the
  attr.exclude_hv = 1;      // perf_event_paranoid bar the probe must clear
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

/// Opens the cycles/instructions/LLC-miss group for one tid.  Returns the
/// leader fd (enabled) or -1; appends every opened fd to `owned`.
int open_group(int tid, std::vector<int>& owned) noexcept {
  perf_event_attr lead = make_attr(PERF_COUNT_HW_CPU_CYCLES, /*leader=*/true);
  const int leader = perf_open(&lead, tid, -1);
  if (leader < 0) return -1;
  owned.push_back(leader);
  for (std::uint64_t config :
       {static_cast<std::uint64_t>(PERF_COUNT_HW_INSTRUCTIONS),
        static_cast<std::uint64_t>(PERF_COUNT_HW_CACHE_MISSES)}) {
    perf_event_attr attr = make_attr(config, /*leader=*/false);
    const int fd = perf_open(&attr, tid, leader);
    if (fd < 0) return -1;  // partial group is useless; caller closes owned fds
    owned.push_back(fd);
  }
  if (::ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ::ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    return -1;
  }
  return leader;
}

}  // namespace

bool PerfSampler::available() noexcept {
  static const bool ok = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): first call races nothing hot.
    const char* no_perf = std::getenv("BITFLOW_NO_PERF");
    if (no_perf != nullptr && no_perf[0] != '\0' && no_perf[0] != '0') return false;
    std::vector<int> probe_fds;
    const int leader = open_group(/*tid=*/0, probe_fds);
    for (int fd : probe_fds) ::close(fd);
    return leader >= 0;
  }();
  return ok;
}

core::Status PerfSampler::open(const std::vector<int>& tids) {
  close_all();
  if (!available()) {
    return {core::ErrorCode::kUnavailable, "perf: perf_event_open unavailable"};
  }
  std::vector<int> seen;
  for (int tid : tids) {
    if (tid < 0) continue;
    bool dup = false;
    for (int s : seen) dup = dup || s == tid;
    if (dup) continue;
    seen.push_back(tid);
    std::vector<int> owned;
    const int leader = open_group(tid, owned);
    if (leader < 0) {
      for (int fd : owned) ::close(fd);
      continue;  // this thread goes unmeasured; keep the rest
    }
    leaders_.push_back(leader);
    fds_.insert(fds_.end(), owned.begin(), owned.end());
  }
  if (leaders_.empty()) {
    return {core::ErrorCode::kUnavailable, "perf: no counter group could be opened"};
  }
  return {};
}

PerfCounts PerfSampler::read() const noexcept {
  PerfCounts total;
  if (leaders_.empty()) return total;
  for (int leader : leaders_) {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
    std::uint64_t buf[3 + 3] = {};
    const ssize_t n = ::read(leader, buf, sizeof buf);
    if (n < static_cast<ssize_t>(6 * sizeof(std::uint64_t)) || buf[0] != 3) continue;
    double scale = 1.0;
    if (buf[2] != 0 && buf[2] < buf[1]) {
      scale = static_cast<double>(buf[1]) / static_cast<double>(buf[2]);
    } else if (buf[2] == 0) {
      continue;  // never scheduled: nothing measured
    }
    total.cycles += static_cast<std::uint64_t>(static_cast<double>(buf[3]) * scale);
    total.instructions += static_cast<std::uint64_t>(static_cast<double>(buf[4]) * scale);
    total.llc_misses += static_cast<std::uint64_t>(static_cast<double>(buf[5]) * scale);
    total.valid = true;
  }
  return total;
}

void PerfSampler::close_all() noexcept {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
  leaders_.clear();
}

#else  // !__linux__

bool PerfSampler::available() noexcept { return false; }

core::Status PerfSampler::open(const std::vector<int>&) {
  return {core::ErrorCode::kUnavailable, "perf: not supported on this platform"};
}

PerfCounts PerfSampler::read() const noexcept { return {}; }

void PerfSampler::close_all() noexcept {}

#endif

}  // namespace bitflow::telemetry
