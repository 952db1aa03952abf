// c2dbench: runs one named workload against the idba library, checks the
// program's outputs, and prints one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run, writes its spans as Chrome trace_event JSON
// under .bench_traces/ and prints the per-layer table to stderr.
//
//   c2dbench --workload display_tcp|commit_durable|browse_tcp --seed N
//            --seconds S --trace 0|1 [--small] [--rate R]
//   c2dbench --selftest

#include <sys/stat.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checkers.h"
#include "workloads.h"

namespace c2d {
namespace {

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

RunResult Run(const RunOptions& opts) {
  if (opts.workload == "display_tcp") return RunDisplayTcp(opts);
  if (opts.workload == "commit_durable") return RunCommitDurable(opts);
  if (opts.workload == "browse_tcp") return RunBrowseTcp(opts);
  RunResult r;
  r.Error("unknown workload " + opts.workload);
  return r;
}

void PrintLayerTable(const RunOptions& opts, const RunResult& r) {
  std::fprintf(stderr, "\nper-layer table (%s, seed %llu, traced window)\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed));
  std::fprintf(stderr, "%-22s %9s %11s %11s %12s %12s\n", "span", "count",
               "p50_us", "p99_us", "total_ms", "self_ms");
  for (const LayerRow& row : LayerTable(r.spans)) {
    std::fprintf(stderr, "%-22s %9llu %11.1f %11.1f %12.1f %12.1f\n",
                 row.name.c_str(), static_cast<unsigned long long>(row.count),
                 row.p50_us, row.p99_us, row.total_ms, row.self_ms);
  }
  if (Spans().dropped() > 0) {
    std::fprintf(stderr, "(%llu spans beyond the in-memory cap not kept)\n",
                 static_cast<unsigned long long>(Spans().dropped()));
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-40s %14.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Emit(const RunOptions& opts, RunResult r) {
  if (opts.trace) {
    const double overhead =
        r.overhead_base > 0
            ? 100.0 * (r.overhead_traced - r.overhead_base) / r.overhead_base
            : 0;
    r.Add("trace.overhead_pct", overhead, "%");
    ::mkdir(".bench_traces", 0755);
    const std::string path = ".bench_traces/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!WriteChromeTrace(path, r.spans)) r.Error("cannot write " + path);
    PrintLayerTable(opts, r);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", r.spans.size(),
                 path.c_str());
  } else {
    for (const Metric& m : r.metrics) {
      std::fprintf(stderr, "  %-18s %14.4f %-4s %s\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.note.c_str());
    }
  }
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.Error("metric " + m.name + " not finite");
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + Escape(m.name) + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.attempted > 0 ? 0 : 1;
}

/// Checker unit cases, then every workload at small size: clean runs must
/// pass their checks and runs with one corrupted observation must fail.
int SelfTest(int64_t start_ns) {
  int broken = SelfTestCheckers();
  for (const char* w : {"display_tcp", "commit_durable", "browse_tcp"}) {
    for (bool corrupt : {false, true}) {
      RunOptions opts;
      opts.workload = w;
      opts.seed = 5;
      opts.seconds = 1;
      opts.small = true;
      opts.corrupt = corrupt;
      opts.start_ns = start_ns;
      RunResult r = Run(opts);
      const bool correct = r.errors.empty();
      const bool good = corrupt ? !correct : correct;
      std::fprintf(stderr, "selftest %-16s %-9s attempted=%llu -> %s%s%s\n",
                   w, corrupt ? "corrupted" : "clean",
                   static_cast<unsigned long long>(r.attempted),
                   good ? "ok" : "BROKEN", r.errors.empty() ? "" : ": ",
                   r.errors.empty() ? "" : r.errors.front().c_str());
      if (!good || r.attempted == 0) ++broken;
    }
  }
  std::fprintf(stderr, "selftest: %s\n", broken == 0 ? "PASS" : "FAIL");
  return broken == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: c2dbench --workload display_tcp|commit_durable|"
               "browse_tcp --seed N --seconds S --trace 0|1 [--small] "
               "[--rate R]\n       c2dbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace c2d

int main(int argc, char** argv) {
  c2d::RunOptions opts;
  opts.start_ns = c2d::NowNs();
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--small") {
      opts.small = true;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return c2d::Usage();
      opts.workload = v;
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace" ||
               arg == "--rate") {
      const char* v = value();
      if (v == nullptr) return c2d::Usage();
      char* end = nullptr;
      if (arg == "--seed") {
        opts.seed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0') return c2d::Usage();
        continue;
      }
      const double d = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(d >= 0 && d <= 1e6)) {
        return c2d::Usage();
      }
      if (arg == "--seconds") opts.seconds = static_cast<int>(d);
      if (arg == "--trace") opts.trace = d != 0;
      if (arg == "--rate") opts.rate = d;
    } else {
      return c2d::Usage();
    }
  }
  if (selftest) return c2d::SelfTest(opts.start_ns);
  if (opts.workload.empty() || opts.seconds < 1) return c2d::Usage();
  return c2d::Emit(opts, c2d::Run(opts));
}
