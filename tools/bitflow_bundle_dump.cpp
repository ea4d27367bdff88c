// Inspects a flight-recorder diagnostic bundle: verifies the manifest
// (version, section sizes, FNV-1a checksums), re-reads trace.json checking
// per-thread span well-nesting, parses metrics.prom, and prints a summary.
//
//   bitflow_bundle_dump <bundle-dir>            load + validate + summarize
//   bitflow_bundle_dump <bundle-dir> --rid <n>  also require request n's
//                                               wire-to-kernel span chain
//   bitflow_bundle_dump --self-test             fixture round-trip (ctest)
//
// n is a whole, nonzero decimal u64.  Any other argument list prints the
// usage and exits 2 before the bundle is read.  Otherwise the exit status is
// 0 only when every check passes, so the tool doubles as the bundle
// acceptance gate in tests and CI.
//
// --self-test needs no pre-built fixture: it arms the recorder into a temp
// directory, records trace instants, fires a manual trigger, runs the tool
// on the bundle it just wrote, and checks that every malformed argument
// list is refused and that a bundle whose spans cross fails validation.  The loader's corruption cases are fuzzed in
// flight_recorder_test (BundleFuzz).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"
#include "trace_reader.hpp"

namespace {

namespace fs = std::filesystem;
using namespace bitflow;

int fail(const char* what, const core::Status& st) {
  std::fprintf(stderr, "bitflow_bundle_dump: %s: %s\n", what, st.to_string().c_str());
  return 1;
}

/// Loads, validates and summarizes `dir`; a nonzero `rid` also requires that
/// request's span chain.
int dump(const std::string& dir, std::uint64_t rid) {
  auto loaded = telemetry::load_bundle(dir);
  if (!loaded.is_ok()) return fail("load failed", loaded.status());
  const telemetry::Bundle bundle = std::move(loaded).value();
  const core::Status st = telemetry::validate_bundle(bundle);
  if (!st.is_ok()) return fail("validation failed", st);
  std::fputs(telemetry::bundle_summary(bundle).c_str(), stdout);
  if (rid != 0) {
    if (!telemetry::bundle_has_request_chain(bundle, rid)) {
      std::fprintf(stderr,
                   "bitflow_bundle_dump: request %llu has no complete "
                   "wire-to-kernel span chain in trace.json\n",
                   static_cast<unsigned long long>(rid));
      return 1;
    }
    std::printf("request %llu: wire-to-kernel chain present\n",
                static_cast<unsigned long long>(rid));
  }
  return 0;
}

/// `<dir>` or `<dir> --rid <n>`; anything else is a usage error (exit 2).
int run(int argc, const char* const* argv) {
  if (argc == 2) return dump(argv[1], 0);
  std::uint64_t rid = 0;
  if (argc == 4 && std::strcmp(argv[2], "--rid") == 0 &&
      telemetry::parse_decimal_u64(argv[3], &rid) && rid != 0) {
    return dump(argv[1], rid);
  }
  std::fprintf(stderr,
               "usage: bitflow_bundle_dump <bundle-dir> [--rid <n>]\n"
               "       bitflow_bundle_dump --self-test\n");
  return 2;
}

// --- self-test ------------------------------------------------------------

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "self-test FAILED at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                        \
      return 1;                                                             \
    }                                                                       \
  } while (0)

int self_test() {
  const fs::path root =
      fs::temp_directory_path() /
      ("bitflow_bundle_dump_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(root, ec);

  // Produce a real bundle the way the serving tier would.
  telemetry::FlightRecorderConfig cfg;
  cfg.dir = root.string();
  cfg.min_bundle_interval = std::chrono::milliseconds(0);
  cfg.max_bundles = 4;
  telemetry::flight_start(cfg);
  telemetry::flight_add_context(&cfg, "selftest",
                                [] { return std::string("fixture section\n"); });
  telemetry::trace_instant("self-test shed", "shed", 7);
  telemetry::trace_instant("self-test drain escalated", "drain");
  CHECK(telemetry::flight_trigger(telemetry::FlightTrigger::kManual,
                                  "bundle_dump self-test"));
  {
    // Two spans that cross on one thread: the second bundle's checksums
    // hold, but its trace fails validation.
    auto outer = std::make_unique<telemetry::TraceSpan>("self-test outer", "test");
    const telemetry::TraceSpan inner("self-test inner", "test");
    outer.reset();
  }
  CHECK(telemetry::flight_trigger(telemetry::FlightTrigger::kManual, "crossed spans"));
  telemetry::flight_remove_contexts(&cfg);
  telemetry::flight_stop();

  const std::string bundle_dir = (root / "bundle-000001").string();
  auto loaded = telemetry::load_bundle(bundle_dir);
  CHECK(loaded.is_ok());
  // The summary counts instants per category (the trigger adds "flight").
  CHECK(telemetry::bundle_summary(loaded.value()).find(" drain=1 flight=1 shed=1") !=
        std::string::npos);

  const auto run_on_bundle = [&bundle_dir](std::vector<const char*> args) {
    args.insert(args.begin(), {"bitflow_bundle_dump", bundle_dir.c_str()});
    return run(static_cast<int>(args.size()), args.data());
  };
  CHECK(run_on_bundle({}) == 0);
  CHECK(dump((root / "bundle-000002").string(), 0) == 1);
  // No traffic ran, so no request chain may be claimed.
  CHECK(run_on_bundle({"--rid", "7"}) == 1);
  // Every other argument list is refused before the bundle is read.
  using Args = std::vector<const char*>;
  for (const Args& args : {Args{"--rid"}, Args{"--ird", "7"}, Args{"--rid", "7x"},
                           Args{"--rid", "abc"}, Args{"--rid", "0"}, Args{"--rid", "-7"},
                           Args{"--rid", "18446744073709551616"}, Args{"--rid", "7", "8"}}) {
    CHECK(run_on_bundle(args) == 2);
  }

  fs::remove_all(root, ec);
  std::puts("bitflow_bundle_dump self-test OK");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test();
  return run(argc, argv);
}
