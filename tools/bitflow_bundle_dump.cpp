// Inspects a flight-recorder diagnostic bundle: verifies the manifest
// (version, section sizes, FNV-1a checksums), re-parses trace.json checking
// per-thread span well-nesting, parses metrics.prom, and prints a summary.
//
//   bitflow_bundle_dump <bundle-dir>            load + validate + summarize
//   bitflow_bundle_dump <bundle-dir> --rid <n>  also require request n's
//                                               wire-to-kernel span chain
//   bitflow_bundle_dump --self-test             fixture round-trip (ctest)
//
// Exit status is 0 only when every check passes, so the tool doubles as the
// bundle acceptance gate in tests and CI.
//
// --self-test needs no pre-built fixture: it arms the recorder into a temp
// directory, records trace instants, fires a manual trigger, and validates
// the bundle it just wrote — then corrupts the bundle on disk (section bit
// flip, section truncation, section removal, manifest truncation) and
// asserts the loader fails closed on each, mirroring the fuzz discipline of
// flight_recorder_test.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace bitflow;

int fail(const char* what, const core::Status& st) {
  std::fprintf(stderr, "bitflow_bundle_dump: %s: %s\n", what, st.to_string().c_str());
  return 1;
}

int dump(const std::string& dir, std::uint64_t rid, bool want_rid) {
  auto loaded = telemetry::load_bundle(dir);
  if (!loaded.is_ok()) return fail("load failed", loaded.status());
  const telemetry::Bundle bundle = std::move(loaded).value();
  const core::Status st = telemetry::validate_bundle(bundle);
  if (!st.ok()) return fail("validation failed", st);
  std::fputs(telemetry::bundle_summary(bundle).c_str(), stdout);
  if (want_rid) {
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

// --- self-test ------------------------------------------------------------

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "self-test FAILED at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                        \
      return 1;                                                             \
    }                                                                       \
  } while (0)

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::string& body) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

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
  telemetry::trace_instant("self-test reload", "reload");
  CHECK(telemetry::flight_trigger(telemetry::FlightTrigger::kManual,
                                  "bundle_dump self-test"));
  telemetry::flight_remove_contexts(&cfg);
  telemetry::flight_stop();

  const fs::path bundle_dir = root / "bundle-000001";
  CHECK(fs::exists(bundle_dir / "MANIFEST.json"));

  // The happy path: load, validate, summarize, and check fixture contents.
  auto loaded = telemetry::load_bundle(bundle_dir.string());
  CHECK(loaded.is_ok());
  const telemetry::Bundle bundle = std::move(loaded).value();
  CHECK(telemetry::validate_bundle(bundle).ok());
  CHECK(bundle.manifest.version == telemetry::kBundleManifestVersion);
  CHECK(bundle.manifest.trigger == "manual");
  CHECK(bundle.sections.count("selftest.txt") == 1);
  CHECK(bundle.sections.at("selftest.txt") == "fixture section\n");
  auto events = telemetry::parse_bundle_trace(bundle);
  CHECK(events.is_ok());
  int seeded = 0;
  for (const telemetry::ParsedTraceEvent& ev : events.value()) {
    if (ev.ph != 'i') continue;
    if (ev.name == "self-test shed" && ev.cat == "shed" && ev.rid == 7) ++seeded;
    if (ev.name == "self-test reload" && ev.cat == "reload" && ev.rid == 0) ++seeded;
  }
  CHECK(seeded == 2);
  // The summary counts instants per category (the trigger adds "flight").
  CHECK(telemetry::bundle_summary(bundle).find(" reload=1 shed=1") != std::string::npos);
  // No traffic ran, so no request chain may be claimed.
  CHECK(!telemetry::bundle_has_request_chain(bundle, 7));

  // Corruption 1: flip one byte inside a checksummed section.
  {
    const fs::path victim = bundle_dir / "metrics.prom";
    std::string body = read_file(victim);
    CHECK(!body.empty());
    body[body.size() / 2] ^= 0x20;
    write_file(victim, body);
    CHECK(!telemetry::load_bundle(bundle_dir.string()).is_ok());
    body[body.size() / 2] ^= 0x20;  // restore
    write_file(victim, body);
    CHECK(telemetry::load_bundle(bundle_dir.string()).is_ok());
  }

  // Corruption 2: truncate a listed section (size mismatch).
  {
    const fs::path victim = bundle_dir / "metrics.prom";
    const std::string body = read_file(victim);
    write_file(victim, body.substr(0, body.size() / 2));
    CHECK(!telemetry::load_bundle(bundle_dir.string()).is_ok());
    write_file(victim, body);  // restore
  }

  // Corruption 3: delete a required section entirely.
  {
    const fs::path victim = bundle_dir / "trace.json";
    const std::string body = read_file(victim);
    fs::remove(victim, ec);
    CHECK(!telemetry::load_bundle(bundle_dir.string()).is_ok());
    write_file(victim, body);  // restore
  }

  // Corruption 4: truncate the manifest itself.
  {
    const fs::path manifest = bundle_dir / "MANIFEST.json";
    const std::string body = read_file(manifest);
    write_file(manifest, body.substr(0, body.size() / 3));
    CHECK(!telemetry::load_bundle(bundle_dir.string()).is_ok());
    write_file(manifest, body);  // restore
  }

  // A directory that is not a bundle at all fails closed too.
  CHECK(!telemetry::load_bundle((root / "nope").string()).is_ok());

  // Restored bundle passes through the public entry point end to end.
  CHECK(dump(bundle_dir.string(), 0, false) == 0);

  fs::remove_all(root, ec);
  std::puts("bitflow_bundle_dump self-test OK");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test();
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bitflow_bundle_dump <bundle-dir> [--rid <n>]\n"
                 "       bitflow_bundle_dump --self-test\n");
    return 2;
  }
  std::uint64_t rid = 0;
  bool want_rid = false;
  if (argc >= 4 && std::strcmp(argv[2], "--rid") == 0) {
    rid = std::strtoull(argv[3], nullptr, 10);
    want_rid = true;
  }
  return dump(argv[1], rid, want_rid);
}
