// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload sim-fig3|sim-wide|serve-mixed --seed N --seconds S
//             --trace 0|1 [--config serve_mixed.json] [--trace-dir DIR]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report every
// end-to-end metric, traced runs every per-layer metric; a metric a workload
// does not exercise (a layer it bypasses) reads 0. Exit status: 0 when every
// correctness check passed, 1 on a violation, 2 on a usage error.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py cross-checks names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"tx_per_s", "1/s"},
    {"seer_vs_rtm", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"bench.pool_busy_fraction", "fraction"},
    {"bench.slowest_cell_s", "s"},
    {"bench.trace_overhead.wall", "s"},
    {"bench.trace_overhead.p50", "us"},
    {"bench.layer_residual", "fraction"},
    {"sim.host_ns_per_commit", "ns"},
    {"sim.self_ns_per_commit", "ns"},
    {"sim.attempts_per_commit", "ratio"},
    {"sim.aborts_per_commit.conflict", "ratio"},
    {"sim.aborts_per_commit.capacity", "ratio"},
    {"sim.aborts_per_commit.explicit", "ratio"},
    {"sim.aborts_per_commit.other", "ratio"},
    {"sim.sgl_commit_fraction", "fraction"},
    {"sim.seer_cpm_geomean", "commits/Mcycle"},
    {"workload.next_ns", "ns"},
    {"workload.next_ns.genome", "ns"},
    {"workload.next_ns.intruder", "ns"},
    {"workload.next_ns.kmeans-high", "ns"},
    {"workload.next_ns.kmeans-low", "ns"},
    {"workload.next_ns.ssca2", "ns"},
    {"workload.next_ns.vacation-high", "ns"},
    {"workload.next_ns.vacation-low", "ns"},
    {"workload.next_ns.yada", "ns"},
    {"workload.next_ns.serve-mixed", "ns"},
    {"workload.next_share", "fraction"},
    {"workload.producer_lag_p99_us", "us"},
    {"util.queue.wait_p50_us", "us"},
    {"util.queue.wait_p99_us", "us"},
    {"util.queue.depth_peak", "count"},
    {"util.queue.shed", "count"},
    {"runtime.run_p50_us", "us"},
    {"runtime.run_p99_us", "us"},
    {"runtime.self_ns.lookup", "ns"},
    {"runtime.self_ns.reserve", "ns"},
    {"runtime.attempts_per_commit.lookup", "ratio"},
    {"runtime.attempts_per_commit.reserve", "ratio"},
    {"runtime.useful_attempt_ratio", "ratio"},
    {"runtime.aborts_per_commit.conflict", "ratio"},
    {"runtime.aborts_per_commit.capacity", "ratio"},
    {"runtime.aborts_per_commit.explicit", "ratio"},
    {"runtime.aborts_per_commit.other", "ratio"},
    {"runtime.mode.htm_no_locks", "fraction"},
    {"runtime.mode.tx_locks", "fraction"},
    {"runtime.mode.core_locks", "fraction"},
    {"runtime.mode.tx_and_core", "fraction"},
    {"runtime.mode.sgl", "fraction"},
    {"htm.body_ns.lookup", "ns"},
    {"htm.body_ns.reserve", "ns"},
    {"htm.wasted_body_share", "fraction"},
    {"core.rebuilds", "count"},
    {"core.rebuild_ns_p99", "ns"},
    {"core.sgl_fallbacks", "count"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sim-fig3|sim-wide|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--config FILE] [--trace-dir DIR]\n",
               msg);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--config") {
      a.config = v;
    } else if (arg == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return a;
}

// JSON number with all its digits (never rounded to a fixed precision).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: every block of 128 KiB or more is mapped when
  // allocated and unmapped when freed. glibc's default raises the threshold
  // after the first such free, so whether a later table reused freed heap
  // or faulted in fresh pages, and with it peak RSS and set-up time, varied
  // from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const RunArgs args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "sim-fig3") {
      out = run_sim_fig3(args);
    } else if (args.workload == "sim-wide") {
      out = run_sim_wide(args);
    } else if (args.workload == "serve-mixed") {
      if (args.config.empty()) usage("serve-mixed needs --config");
      out = run_serve_mixed(args);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  for (const std::string& line : out.info) std::printf("%s\n", line.c_str());
  for (const std::string& v : out.violations) std::printf("VIOLATION: %s\n", v.c_str());

  const auto& defs = args.trace ? std::span<const MetricDef>(kPerLayer)
                                : std::span<const MetricDef>(kEndToEnd);
  const auto& values = args.trace ? out.layers : out.e2e;
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n", name.c_str());
      return 1;
    }
  }
  std::string json = "{\"correct\": ";
  json += out.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-40s %.6g %s\n", d.name, v, d.unit);
    json.append(first ? "\"" : ", \"").append(d.name).append("\": {\"value\": ");
    json.append(number(v)).append(", \"unit\": \"").append(d.unit).append("\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.violations.empty() ? 0 : 1;
}
