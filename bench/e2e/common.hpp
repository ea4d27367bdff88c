// Shared vocabulary of the end-to-end benchmark: run options, the metric
// sink a workload reports into, output checks, and the benchmark's own span
// recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one child process runs.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< measured time of the whole workload (all phases)
  bool traced = false;
  bool smoke = false;
  int nproc = 1;
  std::string model_path;  ///< .bflow written by the parent

  // --smoke checks outputs and metric names, not timings: it keeps the
  // warm-ups and repeat counts to the minimum.
  [[nodiscard]] double warmup_s() const { return smoke ? 0.0 : 0.5; }
  [[nodiscard]] std::size_t min_calls() const { return smoke ? 1 : 3; }
};

/// Metrics and counts a workload reports.  Values keep every digit; the
/// parent prints them and builds the result line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;  ///< human-only detail, e.g. sample count
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  ///< inferences asked for (images or requests)
  std::uint64_t errors = 0;     ///< error frames, rejections, unanswered requests
  std::uint64_t wrong = 0;      ///< outputs that differ from the reference
  std::string digest;           ///< fnv1a of the reference scores, hex

  void set(const std::string& name, double value, const std::string& unit,
           std::string note = {}) {
    metrics[name] = Metric{value, unit, std::move(note)};
  }
};

/// Reference scores of a workload's seeded images (one n=1 run each).
using Scores = std::vector<std::vector<float>>;

/// This process's resident high-water mark so far (ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb();

/// fnv1a-64 over every reference score's bytes, as 16 hex digits.
[[nodiscard]] std::string digest_hex(const Scores& refs);

/// Bit-exact comparison of one image's scores against its reference.
[[nodiscard]] inline bool same_scores(std::span<const float> got, const std::vector<float>& ref) {
  return got.size() == ref.size() &&
         std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)) == 0;
}

/// Scores of the binary networks here are fc dot products N - 2*popcount:
/// integers of N's parity with |s| <= N.  Any seed must satisfy this, so it
/// checks the reference itself rather than only its repeatability.
[[nodiscard]] bool plausible_binary_scores(const std::vector<float>& s, std::int64_t fan_in);

/// The benchmark's own spans (no spans inside the library): recorded around
/// each call into a layer when the run is traced, kept in memory, and
/// written as a Chrome-trace JSON array when the run ends.
class SpanLog {
 public:
  void enable(std::size_t capacity) {
    enabled_ = true;
    events_.reserve(capacity);
    capacity_ = capacity;
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// `id` joins the spans of one request (0 = none).
  void record(const char* name, const char* cat, Clock::time_point start, Clock::time_point end,
              std::uint64_t id = 0);
  /// Writes the trace; returns the number of events written.
  std::size_t write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    int tid;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
  };
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

SpanLog& spans();

/// RAII span on the benchmark's log; free when tracing is off.
class Span {
 public:
  Span(const char* name, const char* cat) : name_(name), cat_(cat), armed_(spans().enabled()) {
    if (armed_) start_ = Clock::now();
  }
  ~Span() {
    if (armed_) spans().record(name_, cat_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  bool armed_;
  Clock::time_point start_{};
};

// --- workloads (offline.cpp, served.cpp) -------------------------------------

/// vgg16_b1 / vgg16_b8: closed-loop infer_batch on one context of nproc threads.
Report run_offline(const RunOptions& opt, std::int64_t batch);
/// tiny_served / vgg16_served: the serving tier on loopback.
Report run_served(const RunOptions& opt);

/// One set-up sample, the only work of its process: the cold start of the
/// workload's instance (setup_s, setup_rss_mb, io.load_ms and the graph.*
/// steps), then, untimed, its first result checked against an n=1 run.
Report setup_offline(const RunOptions& opt, std::int64_t batch);
Report setup_served(const RunOptions& opt);

}  // namespace bench_e2e
