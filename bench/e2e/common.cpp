#include "common.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace bench_e2e {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest_hex(const Scores& refs) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // fnv1a-64
  for (const std::vector<float>& s : refs) {
    const auto* p = reinterpret_cast<const unsigned char*>(s.data());
    for (std::size_t i = 0; i < s.size() * sizeof(float); ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool plausible_binary_scores(const std::vector<float>& s, std::int64_t fan_in) {
  for (const float v : s) {
    const double d = v;
    if (d != std::floor(d) || std::fabs(d) > static_cast<double>(fan_in) ||
        static_cast<std::int64_t>(fan_in - static_cast<std::int64_t>(d)) % 2 != 0) {
      return false;
    }
  }
  return !s.empty();
}

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  // Ordering contract: relaxed; the counter only hands out distinct ids.
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void SpanLog::record(const char* name, const char* cat, Clock::time_point start,
                     Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
  };
  const int tid = thread_index();
  const std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{name, cat, tid, ns(start), ns(end), id});
}

std::size_t SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}},\n",
                  e.name, e.cat, e.tid, static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                  static_cast<unsigned long long>(e.id));
    out << line;
  }
  out << "{\"name\":\"dropped\",\"ph\":\"M\",\"pid\":1,\"args\":{\"events\":" << dropped_
      << "}}\n]\n";
  return events_.size();
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace bench_e2e
