// seer-inspect — offline analysis of the bench harness's introspection dumps.
//
// Input: a --snapshots file (bench/runner.cpp write_snapshots_json), which
// holds one flight-recorder dump + simulator ground truth per (cell, seed).
// Optionally the matching --metrics and --trace files from the same run.
//
// Per run it answers the three questions a scheduling investigation starts
// with (DESIGN.md §9):
//   1. WHERE do aborts come from — per-pair attribution from the final model
//      snapshot (the merged Alg. 3 matrices with derived probabilities);
//   2. IS the inferred lock scheme any good — scored against the simulator's
//      exact conflict ground truth: edges with no observed conflict behind
//      them (false serialization) and significant conflict pairs the scheme
//      leaves uncovered (missed conflicts);
//   3. DID the hill climber converge — move/direction-flip counts, box-edge
//      saturation, and the capture timestamp after which (Th1, Th2) stopped
//      changing.
// Plus the flight recorder's anomaly episodes (abort storms, SGL storms)
// and, with --trace, the sink's drop accounting (a truncated trace is a
// suffix of reality and deserves a loud warning).
//
// A second, unrelated mode rides along because this is the one always-built
// CLI that links the workload registry: --validate-workload FILE.json checks
// a generator config (DESIGN.md §11) without running anything — exit 0 with
// a one-line summary when it resolves, exit 2 with the registry's diagnostic
// (naming the offending key) when it does not. CI and the config negative
// tests call this instead of paying for a bench run.
//
// A third mode targets a LIVE process instead of a dump: --connect URL
// scrapes a running `seer-serve --listen` (DESIGN.md §13) — /status for the
// admission counters and rolling latency estimates, /healthz for the stall
// watchdog verdict, /snapshot for the latest model capture, rendered
// through the same abort-attribution report the offline path uses. One-shot
// by default; --watch S re-polls every S seconds until Ctrl-C.
//
// Exit codes: 0 analysis ran, 2 usage/parse error or (one-shot --connect)
// unreachable endpoint. Runs whose flight dump is empty (non-Seer policies)
// are reported as such, not treated as errors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/tcp_listener.hpp"
#include "workload/registry.hpp"

namespace {

using seer::util::json::Value;
using seer::util::json::parse_file;

struct CliOptions {
  std::string snapshots_path;
  std::string metrics_path;
  std::string trace_path;
  std::string connect_url;          // live mode: a seer-serve --listen URL
  double watch_s = 0.0;             // live mode: re-poll period (0 = one-shot)
  std::size_t top_pairs = 5;        // abort-attribution rows per run
  double gt_threshold = 0.01;       // conflicts per commit of the victim type
  double stable_eps = 1e-9;         // (Th1, Th2) change below this = stable
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s SNAPSHOTS.json [--metrics PATH] [--trace PATH]\n"
               "          [--pairs N] [--gt-threshold F] [--stable-eps F]\n"
               "       %s --validate-workload CONFIG.json\n"
               "       %s --connect URL [--watch S] [--pairs N]\n"
               "\n"
               "Analyzes the model-introspection dump a bench binary wrote with\n"
               "--snapshots: per-pair abort attribution, lock-scheme quality vs\n"
               "the simulator's conflict ground truth, and hill-climber\n"
               "convergence. --metrics/--trace add counter headlines and trace\n"
               "drop accounting from the same run.\n"
               "--validate-workload checks a generator config against the\n"
               "registry (exit 0 valid, exit 2 with the offending key named).\n"
               "--connect scrapes a live seer-serve --listen endpoint (e.g.\n"
               "http://127.0.0.1:9900): admission counters, health verdict and\n"
               "the latest model snapshot's abort attribution. --watch S\n"
               "re-polls every S seconds until Ctrl-C.\n",
               argv0, argv0, argv0);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--validate-workload") {
      // Terminal mode: resolve the config and report, nothing else runs.
      const std::string path = next();
      try {
        const seer::workload::Desc desc = seer::workload::from_config(path);
        const auto wl = desc.make(2);
        std::printf("OK: %s — generator \"%s\", %zu tx types, "
                    "%llu txs/thread at full scale\n",
                    path.c_str(), desc.name.c_str(), wl->n_types(),
                    static_cast<unsigned long long>(desc.bench_txs_per_thread));
        std::exit(0);
      } catch (const seer::workload::ConfigError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    } else if (arg == "--metrics") {
      o.metrics_path = next();
    } else if (arg == "--trace") {
      o.trace_path = next();
    } else if (arg == "--connect") {
      o.connect_url = next();
    } else if (arg == "--watch") {
      o.watch_s = std::atof(next());
      if (o.watch_s <= 0.0) {
        std::fprintf(stderr, "--watch needs a positive period in seconds\n");
        std::exit(2);
      }
    } else if (arg == "--pairs") {
      o.top_pairs = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--gt-threshold") {
      o.gt_threshold = std::atof(next());
    } else if (arg == "--stable-eps") {
      o.stable_eps = std::atof(next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      std::exit(2);
    } else if (o.snapshots_path.empty()) {
      o.snapshots_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (o.snapshots_path.empty() && o.connect_url.empty()) {
    usage(argv[0]);
    std::exit(2);
  }
  return o;
}

Value load_or_die(const std::string& path) {
  std::string err;
  auto v = parse_file(path, &err);
  if (!v.has_value()) {
    std::fprintf(stderr, "seer-inspect: %s: %s\n", path.c_str(), err.c_str());
    std::exit(2);
  }
  return std::move(*v);
}

// ---------------------------------------------------------------------------
// 1. Abort attribution: top pairs of the final snapshot's merged matrices.

struct PairRow {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::uint64_t aborts = 0;
  std::uint64_t commits = 0;
  double p_cond = 0.0;
  double p_conj = 0.0;
};

void report_attribution(const Value& snap, std::size_t top) {
  const Value* pairs = snap.find("pairs");
  if (pairs == nullptr || !pairs->is_array() || pairs->array.empty()) {
    std::printf("  abort attribution: no pair evidence recorded\n");
    return;
  }
  std::vector<PairRow> rows;
  rows.reserve(pairs->array.size());
  for (const Value& p : pairs->array) {
    PairRow r;
    r.x = p.u64("x");
    r.y = p.u64("y");
    r.aborts = p.u64("aborts");
    r.commits = p.u64("commits");
    r.p_cond = p.num("p_cond");
    r.p_conj = p.num("p_conj");
    rows.push_back(r);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const PairRow& a, const PairRow& b) {
    if (a.p_conj != b.p_conj) return a.p_conj > b.p_conj;
    return a.aborts > b.aborts;
  });
  std::printf("  abort attribution (top %zu of %zu pairs, by P(abort ∩ concurrent)):\n",
              std::min(top, rows.size()), rows.size());
  std::printf("    victim aggressor    aborts   commits    p_cond    p_conj\n");
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const PairRow& r = rows[i];
    std::printf("    %6llu %9llu %9llu %9llu  %8.6f  %8.6f\n",
                static_cast<unsigned long long>(r.x),
                static_cast<unsigned long long>(r.y),
                static_cast<unsigned long long>(r.aborts),
                static_cast<unsigned long long>(r.commits), r.p_cond, r.p_conj);
  }
}

// ---------------------------------------------------------------------------
// 2. Scheme quality vs simulator ground truth.

void report_scheme_quality(const Value& run, double gt_threshold) {
  const Value* scheme = run.find("final_scheme");
  const Value* gt = run.find("ground_truth");
  if (scheme == nullptr || !scheme->is_array() || gt == nullptr ||
      gt->find("n_types") == nullptr) {
    std::printf("  scheme quality: no ground truth in dump\n");
    return;
  }
  const std::size_t n = gt->u64("n_types");
  if (n == 0) {
    std::printf("  scheme quality: empty type universe\n");
    return;
  }
  std::vector<std::uint64_t> conflicts(n * n, 0);  // victim-major
  if (const Value* cs = gt->find("conflicts"); cs != nullptr && cs->is_array()) {
    for (const Value& c : cs->array) {
      const std::uint64_t x = c.u64("x");
      const std::uint64_t y = c.u64("y");
      if (x < n && y < n) conflicts[x * n + y] = c.u64("count");
    }
  }
  std::vector<std::uint64_t> commits_by_type(n, 0);
  if (const Value* ct = gt->find("commits_by_type");
      ct != nullptr && ct->is_array() && ct->array.size() == n) {
    for (std::size_t t = 0; t < n; ++t) commits_by_type[t] = ct->array[t].as_u64();
  }

  // Scheme edges as an undirected "serializes (x, y)" relation: x acquiring
  // y's lock (or vice versa) prevents their concurrent execution. A self
  // edge (x in its own row) serializes same-type transactions and counts
  // like any other.
  std::vector<char> covered(n * n, 0);
  std::size_t edges = 0;
  std::size_t false_serial = 0;
  for (std::size_t x = 0; x < scheme->array.size() && x < n; ++x) {
    const Value& row = scheme->array[x];
    if (!row.is_array()) continue;
    for (const Value& owner : row.array) {
      const std::uint64_t y = owner.as_u64();
      if (y >= n) continue;
      if (covered[x * n + y] != 0) continue;  // count each unordered pair once
      covered[x * n + y] = 1;
      covered[y * n + x] = 1;
      ++edges;
      // Ground truth saw NO conflict in either direction: this edge
      // serializes types that never actually clashed.
      if (conflicts[x * n + y] == 0 && conflicts[y * n + x] == 0) ++false_serial;
    }
  }

  // Significant ground-truth pairs the scheme leaves unserialized. A pair is
  // significant when the victim suffered at least gt_threshold conflicts per
  // commit of its type — rare clashes are noise the scheme SHOULD ignore.
  std::size_t significant = 0;
  std::size_t missed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < n; ++a) {
      const std::uint64_t c = conflicts[v * n + a];
      if (c == 0 || commits_by_type[v] == 0) continue;
      const double rate =
          static_cast<double>(c) / static_cast<double>(commits_by_type[v]);
      if (rate < gt_threshold) continue;
      ++significant;
      if (covered[v * n + a] == 0) ++missed;
    }
  }

  std::printf("  scheme quality vs ground truth (threshold %g conflicts/commit):\n",
              gt_threshold);
  std::printf("    edges %zu, false serializations %zu", edges, false_serial);
  if (edges > 0) {
    std::printf(" (%.1f%%)", 100.0 * static_cast<double>(false_serial) /
                                 static_cast<double>(edges));
  }
  std::printf("\n    significant conflict pairs %zu, missed by scheme %zu",
              significant, missed);
  if (significant > 0) {
    std::printf(" (%.1f%%)", 100.0 * static_cast<double>(missed) /
                                 static_cast<double>(significant));
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// 3. Hill-climber convergence across the retained snapshots.

void report_climber(const Value& flight, double stable_eps) {
  const Value* snaps = flight.find("snapshots");
  if (snaps == nullptr || !snaps->is_array() || snaps->array.size() < 2) {
    std::printf("  climber: too few snapshots for a trajectory\n");
    return;
  }
  double prev_x = 0.0;
  double prev_y = 0.0;
  double prev_dx = 0.0;
  double prev_dy = 0.0;
  bool have_prev = false;
  std::size_t moves = 0;
  std::size_t flips = 0;
  std::size_t edge_hits = 0;
  std::uint64_t stable_since = 0;  // `now` of the last observed change
  std::uint64_t last_epochs = 0;
  for (const Value& s : snaps->array) {
    const Value* climber = s.find("climber");
    const Value* cur = climber != nullptr ? climber->find("cur") : nullptr;
    if (cur == nullptr || !cur->is_array() || cur->array.size() != 2) continue;
    const double x = cur->array[0].number;
    const double y = cur->array[1].number;
    if (climber != nullptr) last_epochs = climber->u64("epochs");
    // The climber's box is [0, 1]^2 (HillClimberConfig defaults); sitting on
    // an edge means the step kept clamping — the optimum may lie outside.
    if (x <= 0.0 || x >= 1.0 || y <= 0.0 || y >= 1.0) ++edge_hits;
    if (have_prev) {
      const double dx = x - prev_x;
      const double dy = y - prev_y;
      if (std::fabs(dx) > stable_eps || std::fabs(dy) > stable_eps) {
        ++moves;
        stable_since = s.u64("now");
        if ((dx > 0 && prev_dx < 0) || (dx < 0 && prev_dx > 0) ||
            (dy > 0 && prev_dy < 0) || (dy < 0 && prev_dy > 0)) {
          ++flips;
        }
        prev_dx = dx;
        prev_dy = dy;
      }
    }
    prev_x = x;
    prev_y = y;
    have_prev = true;
  }
  const char* verdict = "stable";
  if (moves == 0) {
    verdict = "never moved";
  } else if (flips * 2 >= moves) {
    verdict = "oscillating";
  } else if (edge_hits * 2 >= snaps->array.size()) {
    verdict = "saturated at box edge";
  }
  std::printf("  climber: %zu moves, %zu direction flips, %zu/%zu captures on "
              "box edge, %llu epochs — %s",
              moves, flips, edge_hits, snaps->array.size(),
              static_cast<unsigned long long>(last_epochs), verdict);
  if (moves > 0) {
    std::printf(" (last move at t=%llu)",
                static_cast<unsigned long long>(stable_since));
  }
  std::printf("\n    final (Th1, Th2) = (%.6f, %.6f)\n", prev_x, prev_y);
}

void report_anomalies(const Value& flight) {
  const Value* anomalies = flight.find("anomalies");
  if (anomalies == nullptr || !anomalies->is_array() || anomalies->array.empty()) {
    std::printf("  anomalies: none\n");
    return;
  }
  std::printf("  anomalies: %zu episode(s)\n", anomalies->array.size());
  for (const Value& a : anomalies->array) {
    const Value* open = a.find("open");
    std::printf("    %s: rebuilds %llu..%llu, t %llu..%llu, peak rate %.3f%s\n",
                std::string(a.str("kind", "?")).c_str(),
                static_cast<unsigned long long>(a.u64("start_rebuild")),
                static_cast<unsigned long long>(a.u64("end_rebuild")),
                static_cast<unsigned long long>(a.u64("start_now")),
                static_cast<unsigned long long>(a.u64("end_now")),
                a.num("peak_rate"),
                open != nullptr && open->is_bool() && open->boolean
                    ? " (still open at end of run)"
                    : "");
  }
}

// ---------------------------------------------------------------------------
// Companion files.

void report_metrics(const Value& metrics_doc, const Value& run) {
  const Value* results = metrics_doc.find("results");
  if (results == nullptr || !results->is_array()) return;
  for (const Value& rec : results->array) {
    if (rec.str("workload") != run.str("workload") ||
        rec.str("policy") != run.str("policy") ||
        rec.u64("threads") != run.u64("threads") ||
        rec.u64("seed") != run.u64("seed")) {
      continue;
    }
    const Value* m = rec.find("metrics");
    const Value* counters = m != nullptr ? m->find("counters") : nullptr;
    if (counters == nullptr || !counters->is_object()) return;
    std::printf("  metrics:");
    bool any = false;
    for (const auto& [name, v] : counters->object) {
      // htm.* carries the adaptive read-tracking telemetry (DESIGN.md §10):
      // promotion counts plus the sig_only/exact split of capacity aborts,
      // which attributes a capacity regression to the tier that raised it.
      if (name.rfind("seer.", 0) != 0 && name.rfind("sim.", 0) != 0 &&
          name.rfind("htm.", 0) != 0) {
        continue;
      }
      std::printf(" %s=%llu", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
      any = true;
    }
    if (!any) std::printf(" (no seer.*/sim.*/htm.* counters)");
    std::printf("\n");
    // Histograms carry the rebuild-cost telemetry (seer.rebuild.ns pairs with
    // the seer.rebuild.shards_merged counter above): report count + mean and
    // the top occupied power-of-two bucket so a fold-budget regression shows
    // up as a mean shift without needing the raw bucket vector.
    const Value* hists = m != nullptr ? m->find("histograms") : nullptr;
    if (hists != nullptr && hists->is_object()) {
      for (const auto& [name, v] : hists->object) {
        if (name.rfind("seer.", 0) != 0 && name.rfind("sim.", 0) != 0 &&
            name.rfind("htm.", 0) != 0) {
          continue;
        }
        const std::uint64_t count = v.u64("count");
        if (count == 0) continue;
        const std::uint64_t sum = v.u64("sum");
        std::uint64_t top_bucket = 0;
        if (const Value* buckets = v.find("buckets");
            buckets != nullptr && buckets->is_array() &&
            !buckets->array.empty()) {
          const Value& last = buckets->array.back();
          if (last.is_array() && !last.array.empty()) {
            top_bucket = last.array[0].as_u64();
          }
        }
        std::printf("  %s: count=%llu mean=%.1f max<2^%llu\n", name.c_str(),
                    static_cast<unsigned long long>(count),
                    static_cast<double>(sum) / static_cast<double>(count),
                    static_cast<unsigned long long>(top_bucket));
      }
    }
    return;
  }
  std::printf("  metrics: no matching record in --metrics file\n");
}

void report_trace(const Value& trace_doc) {
  std::printf("trace:\n");
  if (const Value* meta = trace_doc.find("seerMeta");
      meta != nullptr && meta->is_object()) {
    const std::uint64_t dropped = meta->u64("dropped");
    std::printf("  emitted %llu, dropped %llu\n",
                static_cast<unsigned long long>(meta->u64("emitted")),
                static_cast<unsigned long long>(dropped));
    if (dropped > 0) {
      std::printf("  WARNING: trace ring overflowed — per-thread drops:");
      if (const Value* per = meta->find("droppedPerThread");
          per != nullptr && per->is_array()) {
        for (std::size_t t = 0; t < per->array.size(); ++t) {
          std::printf(" t%zu=%llu", t,
                      static_cast<unsigned long long>(per->array[t].as_u64()));
        }
      }
      std::printf("\n");
    }
  } else {
    std::printf("  no seerMeta block (older trace format?)\n");
  }
  if (const Value* events = trace_doc.find("traceEvents");
      events != nullptr && events->is_array()) {
    // Count retained events by name (the B/E pairing is irrelevant here).
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    for (const Value& e : events->array) {
      const std::string name(e.str("name"));
      bool found = false;
      for (auto& [n, c] : counts) {
        if (n == name) {
          ++c;
          found = true;
          break;
        }
      }
      if (!found) counts.emplace_back(name, 1);
    }
    std::printf("  retained events:");
    for (const auto& [n, c] : counts) {
      std::printf(" %s=%llu", n.c_str(), static_cast<unsigned long long>(c));
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// Live mode: scrape a running seer-serve --listen endpoint.

std::atomic<bool> g_watch_stop{false};

void on_watch_signal(int) { g_watch_stop.store(true, std::memory_order_relaxed); }

// GET path and parse the JSON body. Connection-level failures set *err and
// return nullopt; an HTTP error status still returns the parsed body (the
// endpoints answer 503 with a JSON explanation, e.g. /snapshot before the
// first capture).
std::optional<Value> fetch_json(const std::string& host, std::uint16_t port,
                                const char* path, int* status,
                                std::string* err) {
  const auto res = seer::util::http_get(host, port, path, err);
  if (!res.has_value()) return std::nullopt;
  *status = res->status;
  std::string parse_err;
  auto v = seer::util::json::parse(res->body, &parse_err);
  if (!v.has_value()) {
    *err = std::string(path) + ": " + parse_err;
    return std::nullopt;
  }
  return v;
}

// One poll: status line, health verdict, snapshot attribution. Returns false
// when the endpoint is unreachable (the --watch loop keeps trying — a linger
// gap or restart should not kill the watcher; one-shot mode exits 2).
bool live_poll(const std::string& host, std::uint16_t port,
               std::size_t top_pairs) {
  int status = 0;
  std::string err;
  const auto st = fetch_json(host, port, "/status", &status, &err);
  if (!st.has_value()) {
    std::printf("unreachable: %s\n", err.c_str());
    return false;
  }
  std::printf("status: state=%s step=%llu offered=%g/s\n",
              std::string(st->str("state", "?")).c_str(),
              static_cast<unsigned long long>(st->u64("step")),
              st->num("offered_rate"));
  std::printf("  arrivals %llu  accepted %llu  rejected %llu  completed %llu\n",
              static_cast<unsigned long long>(st->u64("arrivals")),
              static_cast<unsigned long long>(st->u64("accepted")),
              static_cast<unsigned long long>(st->u64("rejected")),
              static_cast<unsigned long long>(st->u64("completed")));
  std::printf("  queue depth %llu  active workers %llu/%llu  "
              "p50~%.1fus  p99~%.1fus (rolling estimates)\n",
              static_cast<unsigned long long>(st->u64("queue_depth")),
              static_cast<unsigned long long>(st->u64("active_workers")),
              static_cast<unsigned long long>(st->u64("workers")),
              st->num("p50_est_us"), st->num("p99_est_us"));

  if (const auto hz = fetch_json(host, port, "/healthz", &status, &err)) {
    std::printf("health: %s (verdict %s, producer age %llums, worker age "
                "%llums)\n",
                status == 200 ? "ok" : "FAILING",
                std::string(hz->str("verdict", "?")).c_str(),
                static_cast<unsigned long long>(hz->u64("producer_age_ms")),
                static_cast<unsigned long long>(hz->u64("worker_age_ms")));
  }

  const auto snap = fetch_json(host, port, "/snapshot", &status, &err);
  if (snap.has_value() && status == 200) {
    const Value* s = snap->find("snapshot");
    if (s != nullptr && s->is_object()) {
      std::printf("model snapshot: seq %llu, reason %s, %llu executions, "
                  "%llu commits\n",
                  static_cast<unsigned long long>(s->u64("seq")),
                  std::string(s->str("reason", "?")).c_str(),
                  static_cast<unsigned long long>(s->u64("executions")),
                  static_cast<unsigned long long>(s->u64("commits")));
      report_attribution(*s, top_pairs);
    }
  } else {
    std::printf("model snapshot: none yet%s\n",
                snap.has_value() ? " (server: waiting for a Seer rebuild)" : "");
  }
  return true;
}

int run_live(const CliOptions& opts) {
  std::string host;
  std::uint16_t port = 0;
  if (!seer::util::parse_http_url(opts.connect_url, host, port)) {
    std::fprintf(stderr,
                 "seer-inspect: cannot parse \"%s\" — expected "
                 "http://HOST:PORT\n",
                 opts.connect_url.c_str());
    return 2;
  }
  std::printf("seer-inspect: live endpoint %s:%u\n", host.c_str(), port);
  if (opts.watch_s <= 0.0) return live_poll(host, port, opts.top_pairs) ? 0 : 2;

  std::signal(SIGINT, on_watch_signal);
  std::signal(SIGTERM, on_watch_signal);
  while (!g_watch_stop.load(std::memory_order_relaxed)) {
    live_poll(host, port, opts.top_pairs);
    std::printf("---\n");
    std::fflush(stdout);
    // Chunked sleep so Ctrl-C ends the watch within ~100ms.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.watch_s));
    while (!g_watch_stop.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = parse_cli(argc, argv);
  if (!opts.connect_url.empty()) return run_live(opts);
  const Value doc = load_or_die(opts.snapshots_path);

  const std::uint64_t version = doc.u64("version");
  if (version != 1) {
    std::fprintf(stderr, "seer-inspect: unsupported snapshot version %llu\n",
                 static_cast<unsigned long long>(version));
    return 2;
  }
  const Value* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    std::fprintf(stderr, "seer-inspect: no \"results\" array in %s\n",
                 opts.snapshots_path.c_str());
    return 2;
  }

  std::printf("seer-inspect: %s — exhibit \"%s\", %zu run(s)\n",
              opts.snapshots_path.c_str(),
              std::string(doc.str("exhibit", "?")).c_str(),
              results->array.size());

  Value metrics_doc;
  bool have_metrics = false;
  if (!opts.metrics_path.empty()) {
    metrics_doc = load_or_die(opts.metrics_path);
    have_metrics = true;
  }

  for (const Value& run : results->array) {
    std::printf("\nrun: workload=%s policy=%s threads=%llu seed=%llu\n",
                std::string(run.str("workload", "?")).c_str(),
                std::string(run.str("policy", "?")).c_str(),
                static_cast<unsigned long long>(run.u64("threads")),
                static_cast<unsigned long long>(run.u64("seed")));
    const Value* flight = run.find("flight");
    if (flight == nullptr || !flight->is_object() || flight->object.empty()) {
      std::printf("  flight recorder: empty dump (non-Seer policy)\n");
    } else {
      std::printf("  flight recorder: %llu captured, %llu overwritten\n",
                  static_cast<unsigned long long>(flight->u64("captured")),
                  static_cast<unsigned long long>(flight->u64("dropped")));
      report_anomalies(*flight);
      const Value* snaps = flight->find("snapshots");
      if (snaps != nullptr && snaps->is_array() && !snaps->array.empty()) {
        report_attribution(snaps->array.back(), opts.top_pairs);
        report_climber(*flight, opts.stable_eps);
      } else {
        std::printf("  no snapshots retained\n");
      }
    }
    report_scheme_quality(run, opts.gt_threshold);
    if (have_metrics) report_metrics(metrics_doc, run);
  }

  if (!opts.trace_path.empty()) {
    std::printf("\n");
    report_trace(load_or_die(opts.trace_path));
  }
  return 0;
}
