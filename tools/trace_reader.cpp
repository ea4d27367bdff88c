#include "trace_reader.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "telemetry/flight_recorder.hpp"

namespace bitflow::telemetry {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMaxSectionBytes = 64u << 20;              // per file read
constexpr std::size_t kMaxTraceEvents = kMaxSectionBytes >> 6;  // per trace

constexpr std::string_view kTraceHeader = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
// What the recorder writes for trace.json when no trace session is armed.
constexpr std::string_view kEmptyTrace = "{\"traceEvents\":[]}\n";
constexpr std::string_view kPhases = "XibeC";

core::Status bad(const std::string& what) {
  return {core::ErrorCode::kBadInput, "bundle: " + what};
}

/// Reads one line left to right.  Each step consumes exactly its token or
/// marks the line bad, and a bad line stays bad, so a chain of steps is
/// judged once, by done().
class Line {
 public:
  explicit Line(std::string_view text) : rest_(text) {}

  /// Consumes `s` if it comes next.
  bool skip(std::string_view s) {
    if (!ok_ || !rest_.starts_with(s)) return false;
    rest_.remove_prefix(s.size());
    return true;
  }
  /// `s` must come next.
  Line& lit(std::string_view s) {
    ok_ = skip(s);
    return *this;
  }
  /// A quoted string whose only escapes are \" and \\, with no byte below
  /// 0x20: the inverse of detail::append_json_string.
  Line& str(std::string& out) {
    out.clear();
    if (!skip("\"")) return fail();
    while (!rest_.empty()) {
      char c = rest_.front();
      rest_.remove_prefix(1);
      if (c == '"') return *this;
      if (c == '\\') {
        if (rest_.empty() || (rest_.front() != '"' && rest_.front() != '\\')) break;
        c = rest_.front();
        rest_.remove_prefix(1);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        break;
      }
      out.push_back(c);
    }
    return fail();
  }
  /// A decimal integer, exact up to 2^64 - 1.
  Line& u64(std::uint64_t& out) { return number(out); }
  /// A decimal without exponent, as "%.3f" prints it.
  Line& dec(double& out) { return number(out, std::chars_format::fixed); }
  [[nodiscard]] bool done() const { return ok_ && rest_.empty(); }

 private:
  Line& fail() {
    ok_ = false;
    return *this;
  }
  template <typename T, typename... Format>
  Line& number(T& out, Format... format) {
    // Only a leading digit: from_chars would take "-", "inf" and "nan" for
    // a double.
    if (!ok_ || rest_.empty() || rest_.front() < '0' || rest_.front() > '9') return fail();
    const auto [end, ec] = std::from_chars(rest_.data(), rest_.data() + rest_.size(), out,
                                           format...);
    if (ec != std::errc()) return fail();
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return *this;
  }

  std::string_view rest_;
  bool ok_ = true;
};

/// Splits `text` at '\n'.  False unless the last line ends in '\n', as every
/// writer's does, so a file cut short shows.
bool split_lines(std::string_view text, std::vector<std::string_view>* out) {
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    if (eol == std::string_view::npos) return false;
    out->push_back(text.substr(0, eol));
    text.remove_prefix(eol + 1);
  }
  return true;
}

bool parse_fnv1a(std::string_view hex, std::uint64_t* out) {
  const char* end = hex.data() + hex.size();
  const auto [p, ec] = std::from_chars(hex.data(), end, *out, 16);
  return hex.size() == 16 && ec == std::errc() && p == end;
}

core::Result<BundleManifest> parse_manifest(std::string_view text) {
  std::vector<std::string_view> lines;
  BundleManifest m;
  // {, four fields, "sections": [, one line per section, ], }.
  if (!split_lines(text, &lines) || lines.size() < 8 || lines[0] != "{" ||
      !Line(lines[1]).lit("  \"version\": ").u64(m.version).lit(",").done() ||
      !Line(lines[2]).lit("  \"seq\": ").u64(m.seq).lit(",").done() ||
      !Line(lines[3]).lit("  \"trigger\": ").str(m.trigger).lit(",").done() ||
      !Line(lines[4]).lit("  \"reason\": ").str(m.reason).lit(",").done() ||
      lines[5] != "  \"sections\": [" || lines[lines.size() - 2] != "  ]" ||
      lines.back() != "}") {
    return bad("manifest: bad fields or truncated");
  }
  for (std::size_t i = 6; i + 2 < lines.size(); ++i) {
    BundleSectionInfo info;
    std::string hex;
    Line line(lines[i]);
    line.lit("    {\"name\": ").str(info.name).lit(", \"size\": ").u64(info.size)
        .lit(", \"fnv1a\": ").str(hex).lit("}");
    if (i + 3 < lines.size()) line.lit(",");
    if (!line.done() || !parse_fnv1a(hex, &info.fnv1a)) {
      return bad("manifest: bad section on line " + std::to_string(i + 1));
    }
    m.sections.push_back(std::move(info));
  }
  return m;
}

/// One event line: the keys the trace writer emits, in its order.
bool read_event(std::string_view text, bool last, ParsedTraceEvent& ev) {
  Line line(text);
  std::string ph;
  std::uint64_t tid = 0;
  line.lit("{\"name\":").str(ev.name).lit(",\"cat\":").str(ev.cat).lit(",\"ph\":").str(ph)
      .lit(",\"pid\":1,\"tid\":").u64(tid).lit(",\"ts\":").dec(ev.ts_us);
  if (ph.size() != 1 || kPhases.find(ph[0]) == std::string_view::npos ||
      tid > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  ev.ph = ph[0];
  ev.tid = static_cast<std::uint32_t>(tid);
  if (ev.ph == 'X') line.lit(",\"dur\":").dec(ev.dur_us);
  if (ev.ph == 'i') line.lit(",\"s\":\"t\"");
  if (ev.ph == 'b' || ev.ph == 'e') {
    std::string id;
    line.lit(",\"id\":").str(id);
    if (!parse_decimal_u64(id, &ev.id)) return false;
  }
  if (line.skip(",\"args\":{")) {
    do {
      std::string key;
      std::uint64_t value = 0;
      line.str(key).lit(":").u64(value);
      if (key == "rid") {
        ev.rid = value;
      } else if (key != "n" && key != "dropped") {
        return false;
      }
    } while (line.skip(","));
    line.lit("}");
  }
  line.lit("}");
  if (!last) line.lit(",");
  return line.done();
}

core::Result<std::string> read_file_capped(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return bad("cannot open " + path.string());
  std::string data;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    data.append(buf, static_cast<std::size_t>(in.gcount()));
    if (data.size() > kMaxSectionBytes) return bad("file too large: " + path.string());
    if (in.eof()) break;
  }
  return data;
}

core::Status check_metrics_text(const std::string& text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find_last_of(" \t");
    if (sp == std::string::npos || sp == 0) {
      return bad("metrics.prom:" + std::to_string(line_no) + ": no value field");
    }
    const std::string value = line.substr(sp + 1);
    char* parse_end = nullptr;
    errno = 0;
    (void)std::strtod(value.c_str(), &parse_end);
    if (value.empty() || parse_end == nullptr || *parse_end != '\0') {
      return bad("metrics.prom:" + std::to_string(line_no) + ": bad value '" +
                 value + "'");
    }
  }
  return {};
}

}  // namespace

bool parse_decimal_u64(std::string_view s, std::uint64_t* out) {
  return Line(s).u64(*out).done();
}

core::Result<std::vector<ParsedTraceEvent>> parse_trace(std::string_view text) {
  std::vector<ParsedTraceEvent> events;
  if (text == kEmptyTrace) return events;
  std::vector<std::string_view> lines;
  if (!split_lines(text, &lines) || lines.size() < 2 || lines.front() != kTraceHeader ||
      lines.back() != "]}") {
    return bad("trace: bad header or truncated");
  }
  if (lines.size() - 2 > kMaxTraceEvents) return bad("trace: too many events");
  events.resize(lines.size() - 2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!read_event(lines[i + 1], i + 1 == events.size(), events[i])) {
      return bad("trace: bad event on line " + std::to_string(i + 2));
    }
  }
  return events;
}

core::Status check_trace_nesting(const std::vector<ParsedTraceEvent>& events) {
  // The trace sink records a span at destructor time, so an inner RAII span
  // always closes before, and inside, its enclosing one.
  constexpr double kEps = 1e-3;  // µs; events print with ns resolution
  struct Ref {
    double ts;
    double end;
    std::uint32_t tid;
    const std::string* name;
  };
  std::vector<Ref> spans;
  for (const ParsedTraceEvent& ev : events) {
    if (ev.ph == 'X') spans.push_back({ev.ts_us, ev.ts_us + ev.dur_us, ev.tid, &ev.name});
  }
  std::sort(spans.begin(), spans.end(), [](const Ref& a, const Ref& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.end > b.end;  // open the enclosing span first on ties
  });
  std::vector<Ref> stack;
  std::uint32_t cur_tid = 0;
  bool have_tid = false;
  for (const Ref& r : spans) {
    if (!have_tid || r.tid != cur_tid) {
      stack.clear();
      cur_tid = r.tid;
      have_tid = true;
    }
    while (!stack.empty() && r.ts >= stack.back().end - kEps) stack.pop_back();
    if (!stack.empty() && r.end > stack.back().end + kEps) {
      return bad("trace: span '" + *r.name + "' (tid " + std::to_string(r.tid) +
                 ") crosses the boundary of '" + *stack.back().name + "'");
    }
    stack.push_back(r);
  }
  return {};
}

core::Result<Bundle> load_bundle(const std::string& dir) {
  const fs::path root(dir);
  auto manifest_text = read_file_capped(root / "MANIFEST.json");
  if (!manifest_text.is_ok()) return manifest_text.status();
  auto manifest = parse_manifest(manifest_text.value());
  if (!manifest.is_ok()) return manifest.status();

  Bundle bundle;
  bundle.manifest = std::move(manifest).value();
  for (const BundleSectionInfo& info : bundle.manifest.sections) {
    if (info.name.empty() || info.name.find('/') != std::string::npos ||
        info.name.find("..") != std::string::npos) {
      return bad("unsafe section name: '" + info.name + "'");
    }
    if (bundle.sections.count(info.name) != 0) {
      return bad("duplicate section: " + info.name);
    }
    auto body = read_file_capped(root / info.name);
    if (!body.is_ok()) return body.status();
    if (body.value().size() != info.size) {
      return bad("section " + info.name + ": size mismatch (manifest " +
                 std::to_string(info.size) + ", file " +
                 std::to_string(body.value().size()) + ")");
    }
    const std::uint64_t sum = fnv1a64(body.value().data(), body.value().size());
    if (sum != info.fnv1a) return bad("section " + info.name + ": checksum mismatch");
    bundle.sections.emplace(info.name, std::move(body).value());
  }
  return bundle;
}

core::Result<std::vector<ParsedTraceEvent>> parse_bundle_trace(const Bundle& bundle) {
  const auto it = bundle.sections.find("trace.json");
  if (it == bundle.sections.end()) return bad("missing trace.json");
  return parse_trace(it->second);
}

core::Status validate_bundle(const Bundle& bundle) {
  if (bundle.manifest.version != kBundleManifestVersion) {
    return bad("unsupported manifest version " +
               std::to_string(bundle.manifest.version));
  }
  if (bundle.manifest.trigger.empty()) return bad("manifest: empty trigger");
  for (const char* required : {"trace.json", "metrics.prom"}) {
    if (bundle.sections.count(required) == 0) {
      return bad(std::string("missing required section ") + required);
    }
  }
  auto events = parse_bundle_trace(bundle);
  if (!events.is_ok()) return events.status();
  if (auto nest = check_trace_nesting(events.value()); !nest.is_ok()) return nest;
  return check_metrics_text(bundle.sections.at("metrics.prom"));
}

bool bundle_has_request_chain(const Bundle& bundle, std::uint64_t rid) {
  if (rid == 0) return false;
  auto parsed = parse_bundle_trace(bundle);
  if (!parsed.is_ok()) return false;
  const std::vector<ParsedTraceEvent>& events = parsed.value();
  bool wire = false;
  bool lifetime = false;
  std::vector<const ParsedTraceEvent*> members;
  for (const ParsedTraceEvent& ev : events) {
    if (ev.rid != rid) continue;
    if (ev.ph == 'X' && ev.name == "net.request") wire = true;
    if ((ev.ph == 'b' || ev.ph == 'e') && ev.name == "serve.request") lifetime = true;
    if (ev.ph == 'i' && ev.name == "serve.batch.member") members.push_back(&ev);
  }
  if (!wire || !lifetime || members.empty()) return false;
  // Kernel attribution: a kernel-category span on the member's worker
  // thread that ends at or after the member instant (the batch that ran
  // this request).  Bound the forward window to keep an unrelated later
  // batch from vouching for a dropped one.
  constexpr double kWindowUs = 60e6;
  for (const ParsedTraceEvent* member : members) {
    for (const ParsedTraceEvent& ev : events) {
      if (ev.ph != 'X' || ev.cat != "kernel" || ev.tid != member->tid) continue;
      if (ev.ts_us + ev.dur_us + 1e-3 >= member->ts_us &&
          ev.ts_us <= member->ts_us + kWindowUs) {
        return true;
      }
    }
  }
  return false;
}

std::string bundle_summary(const Bundle& bundle) {
  std::string out;
  out += "bundle seq=" + std::to_string(bundle.manifest.seq) +
         " version=" + std::to_string(bundle.manifest.version) + "\n";
  out += "trigger: " + bundle.manifest.trigger + "\n";
  out += "reason:  " + bundle.manifest.reason + "\n";
  out += "sections:\n";
  for (const BundleSectionInfo& info : bundle.manifest.sections) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %10llu bytes  fnv1a=%016llx\n",
                  info.name.c_str(), static_cast<unsigned long long>(info.size),
                  static_cast<unsigned long long>(info.fnv1a));
    out += line;
  }
  auto events = parse_bundle_trace(bundle);
  if (events.is_ok()) {
    std::size_t n_complete = 0;
    std::size_t n_async = 0;
    std::size_t n_instant = 0;
    std::map<std::string, std::size_t> instants_by_cat;
    std::vector<std::uint64_t> rids;
    for (const ParsedTraceEvent& ev : events.value()) {
      if (ev.ph == 'X') ++n_complete;
      if (ev.ph == 'b' || ev.ph == 'e') ++n_async;
      if (ev.ph == 'i') {
        ++n_instant;
        ++instants_by_cat[ev.cat];
      }
      if (ev.rid != 0) rids.push_back(ev.rid);
    }
    std::sort(rids.begin(), rids.end());
    rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
    out += "trace: " + std::to_string(events.value().size()) + " events (" +
           std::to_string(n_complete) + " spans, " + std::to_string(n_async / 2) +
           " async pairs, " + std::to_string(n_instant) + " instants), " +
           std::to_string(rids.size()) + " distinct request ids\n";
    if (!instants_by_cat.empty()) {
      out += "instants:";
      for (const auto& [cat, n] : instants_by_cat) {
        out += " " + cat + "=" + std::to_string(n);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace bitflow::telemetry
