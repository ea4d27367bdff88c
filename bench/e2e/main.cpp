// bench_e2e: whole-VGG-16 latency and throughput, offline and served over
// loopback, with per-layer attribution.  See README.md in this directory.
//
//   bench_e2e [--seed N] [--seconds S] [--traced] [--smoke]
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//   bench_e2e --self-test
//
// The parent process writes each workload's seeded .bflow model (untimed)
// and runs the workload in a child process of its own, so the memory
// metrics are that child's alone.  The set-up metrics come from further
// children that each only set up once.  A child reports metric lines on a
// pipe; the parent checks them, prints every metric with its unit, and ends
// with one JSON result line per workload.  Any wrong output makes the exit
// code 1.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "model_gen.hpp"
#include "simd/cpu_features.hpp"
#include "stats.hpp"
#include "telemetry/perf_counters.hpp"

namespace bench_e2e {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;

/// setup_s and the other set-up metrics are medians over this many set-up
/// samples.  Each sample is a process of its own that only sets up: a
/// cold start inside a process that has already set up once reuses its
/// freed heap, so it reads faster and varies with the allocator's state.
constexpr int kSetupSamples = 9;

const std::vector<std::string> kWorkloads = {"vgg16_b1", "vgg16_b8", "tiny_served",
                                             "vgg16_served"};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The result line of an untraced run carries exactly these: the metrics
/// that hold still between runs on a shared host (README.md, "Gated and
/// diagnostic metrics").
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"setup_rss_mb", "MB"},
};

/// The result line of a traced run carries exactly these; a metric a
/// workload does not have (a VGG layer on tiny_served, serve.* offline)
/// reads 0.  The e2e.* metrics come first: end-to-end, but too noisy
/// between runs to gate.
std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> v = {{"e2e.latency_p50_ms", "ms"},
                               {"e2e.latency_p90_ms", "ms"},
                               {"e2e.light_latency_p50_ms", "ms"},
                               {"e2e.throughput_img_s", "img/s"},
                               {"e2e.peak_rss_mb", "MB"},
                               {"io.load_ms", "ms"},
                               {"graph.instantiate_ms", "ms"},
                               {"graph.make_context_ms", "ms"},
                               {"graph.first_infer_ms", "ms"}};
  for (const std::string& layer : vgg16_layer_names()) {
    v.push_back({"kernels." + layer + "_ms", "ms"});
  }
  const std::vector<MetricSpec> rest = {
      {"kernels.conv_ms", "ms"},
      {"kernels.pool_ms", "ms"},
      {"kernels.fc_ms", "ms"},
      {"kernels.binary_gops", "GOPS"},
      {"kernels.fc_weight_gbytes_s", "GB/s"},
      {"bitpack.pack_input_ms", "ms"},
      {"graph.infer_batch_ms", "ms"},
      {"graph.unattributed_ms", "ms"},
      {"runtime.thread_speedup", "x"},
      {"serve.inproc_latency_p50_ms", "ms"},
      {"serve.overhead_p50_ms", "ms"},
      {"serve.mean_batch", "requests"},
      {"serve.rejected", "count"},
      {"serve.expired", "count"},
      {"serve.shed", "count"},
      {"net.wire_overhead_p50_ms", "ms"},
      {"net.encode_request_us", "us"},
      {"net.decode_request_us", "us"},
      {"net.request_bytes", "bytes"},
      {"telemetry.profile_overhead_pct", "%"},
      {"gen.late_p99_ms", "ms"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

struct Args {
  std::string workload;  // empty: all four
  std::uint64_t seed = kDefaultSeed;
  double seconds = -1;  // <0: mode default
  bool traced = false;
  bool smoke = false;
  bool self_test = false;
  bool child = false;
  bool setup = false;  // child: one set-up sample instead of the workload
  std::string model_path, trace_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n"
               "          [--smoke] [--self-test]\n"
               "workloads: vgg16_b1 vgg16_b8 tiny_served vgg16_served\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto number = [&](auto convert) {
      const std::string v = value();
      try {
        return convert(v);
      } catch (const std::exception&) {
        usage(argv[0]);
      }
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = number([](const std::string& v) { return std::stoull(v); });
    } else if (k == "--seconds") {
      a.seconds = number([](const std::string& v) { return std::stod(v); });
    } else if (k == "--trace") {
      a.traced = value() == "1";
    } else if (k == "--traced") {
      a.traced = true;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--self-test") {
      a.self_test = true;
    } else if (k == "--child") {
      a.child = true;
    } else if (k == "--setup") {
      a.setup = true;
    } else if (k == "--model") {
      a.model_path = value();
    } else if (k == "--trace-out") {
      a.trace_path = value();
    } else {
      usage(argv[0]);
    }
  }
  if (!a.workload.empty() &&
      std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) == kWorkloads.end()) {
    usage(argv[0]);
  }
  return a;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

void print_host(const Args& a) {
  std::printf("# host: nproc=%d cpu=\"%s\" isa=\"%s\" perf_counters=%s\n", nproc(),
              cpu_model().c_str(), bitflow::simd::cpu_features().to_string().c_str(),
              bitflow::telemetry::PerfSampler::available() ? "available" : "unavailable");
  std::printf("# build: compiler=\"%s\" build_type=%s seed=%llu traced=%d\n", BENCH_E2E_COMPILER,
              BENCH_E2E_BUILD_TYPE, static_cast<unsigned long long>(a.seed), a.traced ? 1 : 0);
}

/// The untraced run measures the library as shipped: no profiling, tracing,
/// failpoints, flight recorder or tuning cache armed from the environment.
bool environment_clean() {
  bool clean = true;
  for (const char* var : {"BITFLOW_PROFILE", "BITFLOW_TRACE", "BITFLOW_FAILPOINTS",
                          "BITFLOW_FLIGHT_DIR", "BITFLOW_TUNE_CACHE"}) {
    if (std::getenv(var) != nullptr) {  // NOLINT(concurrency-mt-unsafe): before any thread
      std::fprintf(stderr, "bench_e2e: refusing an untraced run with %s set\n", var);
      clean = false;
    }
  }
  return clean;
}

std::string exe_dir() { return fs::read_symlink("/proc/self/exe").parent_path().string(); }

// --- child ---------------------------------------------------------------------

int run_child(const Args& a) {
  RunOptions opt;
  opt.workload = a.workload;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.traced = a.traced;
  opt.smoke = a.smoke;
  opt.nproc = nproc();
  opt.model_path = a.model_path;
  if (opt.traced && !a.setup) spans().enable(1 << 20);
  const std::int64_t batch = opt.workload == "vgg16_b8" ? 8 : 1;
  const bool offline = opt.workload.rfind("vgg16_b", 0) == 0;
  Report r;
  try {
    r = a.setup ? (offline ? setup_offline(opt, batch) : setup_served(opt))
                : (offline ? run_offline(opt, batch) : run_served(opt));
  } catch (const std::exception& e) {
    std::printf("# workload failed: %s\n", e.what());
    return 1;
  }
  if (spans().enabled() && !a.trace_path.empty()) {
    std::printf("# %zu benchmark spans written to %s\n", spans().write(a.trace_path),
                a.trace_path.c_str());
  }
  for (const auto& [name, m] : r.metrics) {
    std::printf("@metric %s %.17g %s\t%s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("@count %llu %llu %llu\n", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.errors), static_cast<unsigned long long>(r.wrong));
  std::printf("@digest %s\n", r.digest.c_str());
  std::fflush(stdout);
  return 0;
}

// --- parent --------------------------------------------------------------------

struct ChildResult {
  bool exited_ok = false;
  Report report;
  double peak_rss_mb = 0;
};

/// Runs one workload, or with `setup` one set-up sample of it, in a child
/// process of this executable and collects its report; other child output
/// passes through to stdout.
ChildResult spawn_workload(const Args& a, const std::string& workload, double seconds,
                           const std::string& model_path, const std::string& trace_path,
                           bool setup) {
  std::vector<std::string> args = {"/proc/self/exe", "--child", "--workload", workload,
                                   "--seed", std::to_string(a.seed), "--seconds",
                                   std::to_string(seconds), "--trace", a.traced ? "1" : "0",
                                   "--model", model_path, "--trace-out", trace_path};
  if (a.smoke) args.push_back("--smoke");
  if (setup) args.push_back("--setup");
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  ChildResult res;
  int fds[2];
  if (pipe(fds) != 0) return res;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return res;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);

  // A workload that overruns its budget is killed: the benchmark must end.
  const auto deadline = Clock::now() + std::chrono::duration<double>(120 + 2 * seconds);
  std::string buf;
  bool timed_out = false;
  const auto handle_line = [&res](const std::string& line) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "@metric") {
      std::string name, unit, note;
      double value = 0;
      in >> name >> value >> unit;
      std::getline(in, note);
      if (!note.empty() && note.front() == '\t') note.erase(0, 1);
      res.report.set(name, value, unit, note);
    } else if (tag == "@count") {
      in >> res.report.attempted >> res.report.errors >> res.report.wrong;
    } else if (tag == "@digest") {
      in >> res.report.digest;
    } else {
      std::printf("%s\n", line.c_str());
    }
  };
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(std::min<long long>(left.count(), 1000))) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(fds[0], chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = buf.find('\n')) != std::string::npos; buf.erase(0, nl + 1)) {
      handle_line(buf.substr(0, nl));
    }
  }
  close(fds[0]);
  if (timed_out) {
    std::printf("# %s: killed after its time budget\n", workload.c_str());
    kill(pid, SIGKILL);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  res.exited_ok = !timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  res.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return res;
}

/// Keeps `threads` threads busy for `seconds`.  On a VM whose vCPUs have
/// been idle, the first ~1.2 s of multithreaded work runs as if on one CPU
/// (the first VGG-16 infer_batch: 105-160 ms instead of 40-45 ms on the
/// reference host).  Set-up samples come first in every workload, so
/// without this they would time the host waking up rather than the library.
void warm_cpus(int threads, double seconds) {
  const auto until = Clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> busy;
  for (int i = 0; i < threads; ++i) {
    busy.emplace_back([until] {
      while (Clock::now() < until) {
      }
    });
  }
  for (std::thread& t : busy) t.join();
}

/// Gives the workload's report the median of each metric of its set-up
/// samples, and adds their counts and failures.
void add_setup_samples(const std::vector<ChildResult>& samples, ChildResult& c) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const ChildResult& s : samples) {
    c.exited_ok = c.exited_ok && s.exited_ok;
    c.report.attempted += s.report.attempted;
    c.report.errors += s.report.errors;
    c.report.wrong += s.report.wrong;
    for (const auto& [name, m] : s.report.metrics) {
      values[name].push_back(m.value);
      units[name] = m.unit;
    }
  }
  for (const auto& [name, v] : values) {
    c.report.set(name, median(v), units[name],
                 "median of " + std::to_string(v.size()) + " set-up processes");
  }
}

/// Expected reference digest of `workload` at the default seed.
std::string expected_digest(const std::string& workload) {
  std::ifstream in(std::string(BENCH_E2E_SOURCE_DIR) + "/digests.txt");
  for (std::string w, d; in >> w >> d;) {
    if (w == workload) return d;
  }
  return {};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

/// Prints one workload's metrics and result line; returns whether every
/// output was correct.
bool report_workload(const Args& a, const std::string& workload, ChildResult& c,
                     const std::vector<MetricSpec>& specs, std::set<std::string>& produced) {
  Report& r = c.report;
  r.set("e2e.peak_rss_mb", c.peak_rss_mb, "MB", "ru_maxrss of the whole workload process");
  bool correct = c.exited_ok && r.wrong == 0;
  if (!c.exited_ok) std::printf("# %s: workload process failed\n", workload.c_str());
  std::string digest_note = "unchecked: seed is not the default";
  if (a.seed == kDefaultSeed) {
    const std::string want = expected_digest(workload);
    const bool match = !want.empty() && want == r.digest;
    digest_note = match ? "matches" : want.empty() ? "MISSING from digests.txt" : "MISMATCH, want " + want;
    correct = correct && match;
  }
  std::printf("# %s: digest %s (%s)\n", workload.c_str(), r.digest.c_str(), digest_note.c_str());

  std::string metrics;
  for (const MetricSpec& s : specs) {
    const auto it = r.metrics.find(s.name);
    const bool have = it != r.metrics.end();
    if (have) produced.insert(s.name);
    if (!have && !a.traced) {
      std::printf("# %s: end-to-end metric %s missing\n", workload.c_str(), s.name.c_str());
      correct = false;
    }
    const double v = have ? it->second.value : 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + s.name + "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + s.unit +
               "\"}";
  }
  std::printf("# %s metrics:\n", workload.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-32s %14.6g %-8s %s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  const std::uint64_t failed = r.errors + r.wrong;
  std::printf("  %-32s %14.6g %-8s %llu failed of %llu attempted\n", "error_rate",
              r.attempted ? static_cast<double>(failed) / static_cast<double>(r.attempted) : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct;
}

/// Metric names and units BENCHMARK.json declares under `key`.
std::vector<MetricSpec> declared_metrics(const std::string& json, const std::string& key) {
  std::vector<MetricSpec> out;
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return out;
  const std::size_t open = json.find('[', at), close = json.find(']', at);
  const std::string body = json.substr(open, close - open);
  static const std::regex obj(R"(\{[^{}]*\})");
  static const std::regex name(R"re("name"\s*:\s*"([^"]*)")re");
  static const std::regex unit(R"re("unit"\s*:\s*"([^"]*)")re");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), obj); it != std::sregex_iterator();
       ++it) {
    const std::string o = it->str();
    std::smatch n, u;
    if (std::regex_search(o, n, name) && std::regex_search(o, u, unit)) {
      out.push_back({n[1].str(), u[1].str()});
    }
  }
  return out;
}

/// --smoke: every metric BENCHMARK.json declares must be one this build
/// prints (same unit), and must have been produced by a workload.
bool smoke_check(const std::set<std::string>& produced_e2e,
                 const std::set<std::string>& produced_layer) {
  const std::string path = std::string(BENCH_E2E_SOURCE_DIR) + "/../../BENCHMARK.json";
  std::ifstream in(path);
  if (!in) {
    std::printf("# smoke: cannot read %s\n", path.c_str());
    return false;
  }
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  bool ok = true;
  const auto check = [&](const std::string& key, const std::vector<MetricSpec>& printed,
                         const std::set<std::string>& produced) {
    const std::vector<MetricSpec> declared = declared_metrics(json, key);
    if (declared.empty()) {
      std::printf("# smoke: BENCHMARK.json declares no %s metrics\n", key.c_str());
      ok = false;
    }
    for (const MetricSpec& d : declared) {
      const auto it = std::find_if(printed.begin(), printed.end(),
                                   [&](const MetricSpec& p) { return p.name == d.name; });
      if (it == printed.end() || it->unit != d.unit || !produced.count(d.name)) {
        std::printf("# smoke: %s metric %s (%s) is not printed\n", key.c_str(), d.name.c_str(),
                    d.unit.c_str());
        ok = false;
      }
    }
  };
  check("end_to_end", kEndToEnd, produced_e2e);
  check("per_layer", per_layer_specs(), produced_layer);
  std::printf("# smoke: BENCHMARK.json metric names %s\n", ok ? "all printed" : "NOT all printed");
  return ok;
}

int run_parent(Args a) {
  const std::vector<std::string> workloads =
      a.workload.empty() ? kWorkloads : std::vector<std::string>{a.workload};
  const std::string dir = exe_dir();
  const std::string model_dir = dir + "/models-" + std::to_string(getpid());
  fs::create_directories(model_dir);

  bool all_correct = true;
  std::set<std::string> produced_e2e, produced_layer;
  const std::vector<MetricSpec> layer_specs = per_layer_specs();
  for (const bool traced : a.smoke ? std::vector<bool>{false, true} : std::vector<bool>{a.traced}) {
    a.traced = traced;
    print_host(a);
    for (const std::string& w : workloads) {
      const bool tiny = w == "tiny_served";
      // --smoke: under a second per phase (tiny_served has three).
      const double seconds =
          a.smoke ? (tiny ? 2.1 : 0.8) : a.seconds > 0 ? a.seconds : traced ? 10.0 : 30.0;
      const std::string model_path =
          model_dir + (tiny ? "/tiny" : "/vgg16") + "-seed" + std::to_string(a.seed) + ".bflow";
      if (!fs::exists(model_path)) make_model_for(w, a.seed).save(model_path);
      const std::string trace_path =
          dir + "/trace-" + w + "-seed" + std::to_string(a.seed) + ".json";
      std::printf("# workload %s: %.1f s measured, %s\n", w.c_str(), seconds,
                  traced ? "traced" : "untraced");
      // Set-up samples, half before the workload and half after it.
      const int setups = a.smoke ? 1 : kSetupSamples;
      warm_cpus(nproc(), a.smoke ? 0.0 : 2.0);
      std::vector<ChildResult> samples;
      for (int k = 0; k < (setups + 1) / 2; ++k) {
        samples.push_back(spawn_workload(a, w, seconds, model_path, "", true));
      }
      ChildResult c = spawn_workload(a, w, seconds, model_path, trace_path, false);
      for (int k = (setups + 1) / 2; k < setups; ++k) {
        samples.push_back(spawn_workload(a, w, seconds, model_path, "", true));
      }
      add_setup_samples(samples, c);
      all_correct = report_workload(a, w, c, traced ? layer_specs : kEndToEnd,
                                    traced ? produced_layer : produced_e2e) &&
                    all_correct;
    }
  }
  fs::remove_all(model_dir);
  if (a.smoke) {
    all_correct = quantile_self_test() == 0 && all_correct;
    all_correct = smoke_check(produced_e2e, produced_layer) && all_correct;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  using namespace bench_e2e;
  const Args a = parse(argc, argv);
  if (a.self_test) {
    const int fails = quantile_self_test();
    std::printf("quantile self-test: %s\n", fails == 0 ? "OK" : "FAILED");
    return fails == 0 ? 0 : 1;
  }
  if (!a.traced && !environment_clean()) return 2;
  ::signal(SIGPIPE, SIG_IGN);
  if (a.child) return run_child(a);
  return run_parent(a);
}
