// The two simulator workloads.
//
//   sim-fig3  the Figure 3 cell set exactly (8 STAMP stand-ins x 1-8 threads
//             x HLE/RTM/SCM/ATS/Seer, the exhibit's default runs and
//             txs-scale) through bench::run_cells — the paper's regime.
//   sim-wide  64 simulated threads on a 2-socket Topology{2, 16, 2}, RTM and
//             Seer over four stand-ins, built on sim::Machine directly
//             (bench::run_cell never sets a topology).
//
// A run repeats whole passes over the cell set until --seconds is used up and
// reports medians over passes. Every pass is checked: each simulator run must
// commit threads x txs_per_thread, and the digest of all simulated statistics
// must repeat across passes, with tracing on and off, with a metrics registry
// attached, and (sim-fig3) for a serial re-run of a sample of cells.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench/runner.hpp"
#include "perfbench.hpp"
#include "sim/machine.hpp"
#include "timed_generator.hpp"
#include "util/json.hpp"
#include "util/latency_histogram.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace perfbench {

namespace {

using namespace seer;

constexpr rt::PolicyKind kFig3Policies[] = {rt::PolicyKind::kHle, rt::PolicyKind::kRtm,
                                            rt::PolicyKind::kScm, rt::PolicyKind::kAts,
                                            rt::PolicyKind::kSeer};
constexpr std::size_t kFig3Threads[] = {1, 2, 3, 4, 5, 6, 7, 8};
// Every 32nd Figure 3 cell is re-run serially, without the wrapper, and must
// reproduce its digest.
constexpr std::size_t kJobsCheckStride = 32;
// Set-up is cheap next to a pass, so before every pass and after the last it
// is repeated at least kSetupReps times and for at least kSetupBudgetNs, and
// the median over all repetitions is reported.
constexpr int kSetupReps = 8;
constexpr std::uint64_t kSetupBudgetNs = 250'000'000;

// What a pass attaches to its simulator runs. Only kCallTiming passes are
// timed for the per-layer metrics; kCounters attaches a metrics registry to
// every run for the scheduler counters (sim-fig3), off the timed passes.
enum class Probe { kNone, kCallTiming, kCounters };

// Slowest stand-in first, so the pool starts the cells that bound the pass.
constexpr const char* kWideStandins[] = {"vacation-low", "intruder", "kmeans-high",
                                         "genome"};
constexpr rt::PolicyKind kWidePolicies[] = {rt::PolicyKind::kRtm, rt::PolicyKind::kSeer};
constexpr std::size_t kWideThreads = 64;
constexpr std::uint64_t kWideTxsPerThread = 1000;
constexpr std::uint64_t kWideRuns = 2;  // seeds per cell, as the exhibits' --runs
constexpr core::Topology kWideTopology{2, 16, 2};

// At most one simulator per core.
std::size_t sim_jobs() {
  return std::min<std::size_t>(4, util::ThreadPool::hardware_jobs());
}

std::vector<workload::Desc> resolve(const auto& names) {
  std::vector<workload::Desc> descs;
  for (const auto& name : names) descs.push_back(workload::find(name));
  return descs;
}

// One simulator run (one cell, one seed).
struct SimRun {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  std::uint64_t commits = 0;
  std::uint64_t expected_commits = 0;
  std::array<std::uint64_t, 4> aborts{};
  double sgl_commits = 0.0;
  double cpm = 0.0;             // commits per simulated Mcycle
  std::uint64_t run_ns = 0;     // sim.run span
  std::uint64_t gen_ns = 0;     // next() + think_time()
  std::uint64_t next_calls = 0;
  std::uint64_t next_ns = 0;
};

struct SimCell {
  std::string standin;
  rt::PolicyKind policy = rt::PolicyKind::kRtm;
  std::size_t threads = 0;
  std::uint64_t span_ns = 0;  // bench.cell span
  std::uint64_t rebuilds = 0;
  std::uint64_t sgl_fallbacks = 0;
  std::uint64_t digest = 0;
};

struct SimPass {
  double wall_s = 0.0;
  std::vector<SimCell> cells;
  std::vector<SimRun> runs;
  std::uint64_t digest = 0;
  bool sched_counts = false;  // cells carry rebuilds and sgl_fallbacks
};

// Host ns per commit of each simulator run.
util::LatencyHistogram run_latencies(const SimPass& p) {
  util::LatencyHistogram h;
  for (const SimRun& r : p.runs) h.record(r.commits == 0 ? 0 : r.run_ns / r.commits);
  return h;
}

std::uint64_t total_commits(const SimPass& p) {
  std::uint64_t n = 0;
  for (const SimRun& r : p.runs) n += r.commits;
  return n;
}

// Geometric mean over stand-ins of `policy`'s commits per Mcycle (averaged
// over its runs) at the widest thread count of the pass.
double cpm_geomean(const SimPass& p, rt::PolicyKind policy) {
  std::size_t widest = 0;
  for (const SimCell& c : p.cells) widest = std::max(widest, c.threads);
  std::map<std::string, std::pair<double, int>> by_standin;  // cpm sum, runs
  for (const SimRun& r : p.runs) {
    const SimCell& c = p.cells[r.cell];
    if (c.policy != policy || c.threads != widest) continue;
    by_standin[c.standin].first += r.cpm;
    ++by_standin[c.standin].second;
  }
  double log_sum = 0.0;
  for (const auto& [name, v] : by_standin) log_sum += std::log(v.first / v.second);
  return by_standin.empty() ? 0.0
                            : std::exp(log_sum / static_cast<double>(by_standin.size()));
}

void check_commits(const SimPass& p, Outcome& out) {
  for (const SimRun& r : p.runs) {
    ++out.attempted;
    if (r.commits != r.expected_commits) {
      ++out.failed;
      out.violations.push_back("cell " + p.cells[r.cell].standin + "/" +
                               rt::to_string(p.cells[r.cell].policy) + "/" +
                               std::to_string(p.cells[r.cell].threads) + " seed " +
                               std::to_string(r.seed) + " committed " +
                               std::to_string(r.commits) + " of " +
                               std::to_string(r.expected_commits));
    }
  }
}

void check_digest(const char* what, std::uint64_t want, std::uint64_t got,
                  std::uint64_t runs, Outcome& out) {
  if (want == got) return;
  out.failed += runs;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: digest %016" PRIx64 " != %016" PRIx64, what, got,
                want);
  out.violations.emplace_back(buf);
}

// Runs a batch of set-ups and a pass, alternately, until `seconds` is spent
// (at least once), then a last batch; set-up is reported as the median over
// its repetitions, spread over the run. The first pass's digest is the
// reference every later pass must reproduce.
template <typename SetupFn, typename PassFn>
std::vector<SimPass> timed_passes(double seconds, SetupFn&& setup, PassFn&& pass,
                                  Outcome& out) {
  std::vector<SimPass> passes;
  std::vector<double> setups;
  auto setup_batch = [&] {
    const std::uint64_t s0 = now_ns();
    for (int i = 0; i < kSetupReps || now_ns() - s0 < kSetupBudgetNs; ++i) {
      setups.push_back(setup());
    }
  };
  const std::uint64_t t0 = now_ns();
  double spent = 0.0;
  do {
    setup_batch();
    passes.push_back(pass());
    check_commits(passes.back(), out);
    check_digest("pass digest", passes.front().digest, passes.back().digest,
                 passes.back().runs.size(), out);
    spent = static_cast<double>(now_ns() - t0) / 1e9;
  } while (spent + spent / static_cast<double>(passes.size()) <= seconds);
  setup_batch();  // batches around every pass sample the host's drift
  out.e2e["setup_s"] = median(setups);
  char buf[160];
  std::snprintf(buf, sizeof buf, "set-up: %zu repetitions, min %.4f median %.4f max %.4f ms",
                setups.size(), 1e3 * *std::min_element(setups.begin(), setups.end()),
                1e3 * median(setups), 1e3 * *std::max_element(setups.begin(), setups.end()));
  out.info.emplace_back(buf);
  return passes;
}

// The end-to-end metrics of a simulator workload: medians over passes.
void sim_e2e(const std::vector<SimPass>& passes, const char* workload, Outcome& out) {
  std::vector<double> tps, walls;
  for (const SimPass& p : passes) {
    tps.push_back(static_cast<double>(total_commits(p)) / p.wall_s);
    walls.push_back(p.wall_s);
  }
  const double seer = cpm_geomean(passes.front(), rt::PolicyKind::kSeer);
  const double rtm = cpm_geomean(passes.front(), rt::PolicyKind::kRtm);
  out.e2e["tx_per_s"] = median(tps);
  out.e2e["seer_vs_rtm"] = seer / rtm;

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: %zu passes, %zu simulator runs/pass, digest %016" PRIx64, workload,
                passes.size(), passes.front().runs.size(), passes.front().digest);
  out.info.emplace_back(buf);
  std::string line = "  pass walls (s):";
  for (double w : walls) {
    std::snprintf(buf, sizeof buf, " %.3f", w);
    line += buf;
  }
  out.info.push_back(line);
  std::snprintf(buf, sizeof buf, "  sim.wall_s = %.4f s", median(walls));
  out.info.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "  sim.tx_per_host_s = %.1f simulated commits/host s",
                median(tps));
  out.info.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "  sim.seer_cpm_geomean = %.6f Seer commits/simulated Mcycle", seer);
  out.info.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "  sim.seer_vs_rtm = %.6f ratio", seer / rtm);
  out.info.emplace_back(buf);
}

// Per-layer metrics from a traced pass (`plain` is the untraced reference
// for the tracing overhead; `counted` carries the scheduler counters).
void sim_layers(const SimPass& traced, const SimPass& plain, const SimPass& counted,
                Outcome& out) {
  auto& L = out.layers;
  double cell_ns = 0.0;
  double slowest = 0.0;
  for (const SimCell& c : traced.cells) {
    cell_ns += static_cast<double>(c.span_ns);
    slowest = std::max(slowest, static_cast<double>(c.span_ns));
  }
  std::uint64_t rebuilds = 0;
  std::uint64_t fallbacks = 0;
  for (const SimCell& c : counted.cells) {
    rebuilds += c.rebuilds;
    fallbacks += c.sgl_fallbacks;
  }
  double run_ns = 0.0;
  double gen_ns = 0.0;
  double commits = 0.0;
  double attempts = 0.0;
  double sgl = 0.0;
  std::array<double, 4> aborts{};
  std::map<std::string, std::pair<double, double>> next_by_standin;  // ns, calls
  double next_ns = 0.0;
  double next_calls = 0.0;
  for (const SimRun& r : traced.runs) {
    run_ns += static_cast<double>(r.run_ns);
    gen_ns += static_cast<double>(r.gen_ns);
    commits += static_cast<double>(r.commits);
    attempts += static_cast<double>(r.commits);
    for (std::size_t c = 0; c < 4; ++c) {
      aborts[c] += static_cast<double>(r.aborts[c]);
      attempts += static_cast<double>(r.aborts[c]);
    }
    sgl += r.sgl_commits;
    auto& [ns, calls] = next_by_standin[traced.cells[r.cell].standin];
    ns += static_cast<double>(r.next_ns);
    calls += static_cast<double>(r.next_calls);
    next_ns += static_cast<double>(r.next_ns);
    next_calls += static_cast<double>(r.next_calls);
  }
  const double jobs = static_cast<double>(sim_jobs());
  L["bench.pool_busy_fraction"] = cell_ns / 1e9 / (jobs * traced.wall_s);
  L["bench.slowest_cell_s"] = slowest / 1e9;
  L["bench.trace_overhead.wall"] = traced.wall_s - plain.wall_s;
  L["bench.trace_overhead.p50"] =
      (static_cast<double>(run_latencies(traced).quantile(0.5)) -
       static_cast<double>(run_latencies(plain).quantile(0.5))) /
      1e3;
  // Cell time that no layer below claims: bench.cell - (generator + sim self),
  // that is Machine construction and the runner's bookkeeping.
  L["bench.layer_residual"] = (cell_ns - run_ns) / cell_ns;
  L["sim.host_ns_per_commit"] = run_ns / commits;
  L["sim.self_ns_per_commit"] = (run_ns - gen_ns) / commits;
  L["sim.attempts_per_commit"] = attempts / commits;
  static constexpr const char* kCause[] = {"conflict", "capacity", "explicit", "other"};
  for (std::size_t c = 0; c < 4; ++c) {
    L[std::string("sim.aborts_per_commit.") + kCause[c]] = aborts[c] / commits;
  }
  L["sim.sgl_commit_fraction"] = sgl / commits;
  L["sim.seer_cpm_geomean"] = cpm_geomean(traced, rt::PolicyKind::kSeer);
  L["workload.next_ns"] = next_ns / next_calls;
  for (const auto& [name, v] : next_by_standin) {
    L["workload.next_ns." + name] = v.first / v.second;
  }
  L["workload.next_share"] = gen_ns / run_ns;
  L["core.rebuilds"] = static_cast<double>(rebuilds);
  L["core.sgl_fallbacks"] = static_cast<double>(fallbacks);

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "layer sum: bench.cell %.3f s = sim.run %.3f s (generator %.3f s + "
                "machine self %.3f s) + residual %.3f s (%.2f%%)",
                cell_ns / 1e9, run_ns / 1e9, gen_ns / 1e9, (run_ns - gen_ns) / 1e9,
                (cell_ns - run_ns) / 1e9, 100.0 * (cell_ns - run_ns) / cell_ns);
  out.info.emplace_back(buf);
}

// Sampled spans of the traced pass, one JSON object per line.
void write_spans(const RunArgs& args, const SimPass& p,
                 const std::vector<std::vector<GenSpan>>& spans) {
  if (args.trace_dir.empty()) return;
  const std::string path =
      args.trace_dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
  std::ofstream f(path);
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const SimCell& c = p.cells[i];
    f << "{\"span\":\"bench.cell\",\"cell\":" << i << ",\"workload\":\"" << c.standin
      << "\",\"policy\":\"" << rt::to_string(c.policy) << "\",\"threads\":" << c.threads
      << ",\"dur_ns\":" << c.span_ns << "}\n";
    for (const GenSpan& s : spans[i]) {
      f << "{\"span\":\"sim.run\",\"parent\":" << i << ",\"start_ns\":" << s.made_ns
        << ",\"end_ns\":" << s.end_ns << ",\"workload.next\":{\"calls\":" << s.next_calls
        << ",\"ns\":" << s.next_ns << "},\"workload.think_ns\":" << s.think_ns << "}\n";
    }
  }
}

// --- sim-fig3 ----------------------------------------------------------------

bench::Options fig3_options(std::uint64_t seed, std::size_t jobs) {
  bench::Options o;  // the exhibit's defaults: runs 2, txs-scale 0.5
  o.base_seed = seed;
  o.jobs = static_cast<int>(jobs);
  return o;
}

std::uint64_t fig3_txs_per_thread(const workload::Desc& d, const bench::Options& o) {
  return std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(static_cast<double>(d.bench_txs_per_thread) *
                                      o.txs_scale));
}

std::vector<bench::Cell> fig3_cells(const std::vector<workload::Desc>& descs) {
  std::vector<bench::Cell> cells;
  for (const auto& d : descs) {
    for (std::size_t threads : kFig3Threads) {
      for (auto kind : kFig3Policies) cells.push_back({d, bench::policy_of(kind), threads, {}});
    }
  }
  return cells;
}

std::uint64_t cell_digest(const bench::CellResult& r) {
  Digest d;
  for (const bench::RunRecord& run : r.runs) {
    d.add(run.seed);
    d.add(run.speedup);
    d.add(run.commits);
    d.add(run.makespan);
    d.add(run.commits_per_mcycle);
    for (auto a : run.aborts_by_cause) d.add(a);
  }
  const bench::Summary& s = r.summary;
  for (double v : {s.speedup, s.sgl_fraction, s.aux_fraction, s.sched_fraction,
                   s.tx_fraction, s.core_fraction, s.tx_core_fraction, s.no_lock_fraction,
                   s.aborts_per_commit, s.capacity_aborts, s.txlock_median_fraction,
                   s.txlock_under_23pct}) {
    d.add(v);
  }
  return d.value();
}

// One pass over the Figure 3 cell set. Every generator goes through the
// wrapper (lifetime only, or with call timing under kCallTiming); kCounters
// attaches a metrics registry per run for the scheduler counters.
SimPass fig3_pass(const std::vector<workload::Desc>& descs, std::uint64_t seed,
                  Probe probe, std::vector<std::vector<GenSpan>>* spans_out) {
  const bool traced = probe == Probe::kCallTiming;
  bench::Options opts = fig3_options(seed, sim_jobs());
  if (probe == Probe::kCounters) {
    opts.metrics_path = "(in memory)";  // run_cell fills RunRecord::metrics
  }
  std::vector<bench::Cell> cells = fig3_cells(descs);
  std::vector<std::vector<GenSpan>> spans(cells.size(),
                                          std::vector<GenSpan>(static_cast<std::size_t>(opts.runs)));
  std::vector<std::size_t> used(cells.size(), 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // A cell's runs are made one after another on one pool worker.
    cells[i].info = timed_desc(
        cells[i].info, [&spans, &used, i] { return &spans[i].at(used[i]++); }, traced);
  }
  const std::uint64_t t0 = now_ns();
  const std::vector<bench::CellResult> results = bench::run_cells(cells, opts);
  const std::uint64_t t1 = now_ns();

  SimPass p;
  p.wall_s = static_cast<double>(t1 - t0) / 1e9;
  p.sched_counts = probe == Probe::kCounters;
  Digest all;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimCell c;
    c.standin = cells[i].info.name;
    c.policy = cells[i].policy.kind;
    c.threads = cells[i].threads;
    c.span_ns = spans[i].back().end_ns - spans[i].front().made_ns;
    c.digest = cell_digest(results[i]);
    all.add(c.digest);
    const std::uint64_t expected = c.threads * fig3_txs_per_thread(cells[i].info, opts);
    for (std::size_t r = 0; r < results[i].runs.size(); ++r) {
      const bench::RunRecord& rec = results[i].runs[r];
      const GenSpan& s = spans[i][r];
      SimRun run;
      run.cell = i;
      run.seed = rec.seed;
      run.commits = rec.commits;
      run.expected_commits = expected;
      run.aborts = rec.aborts_by_cause;
      run.sgl_commits = results[i].summary.sgl_fraction * static_cast<double>(rec.commits);
      run.cpm = rec.commits_per_mcycle;
      // From the first init() (Machine::run begins) to the Machine's end.
      run.run_ns = s.end_ns - s.start_ns;
      run.gen_ns = s.next_ns + s.think_ns;
      run.next_calls = s.next_calls;
      run.next_ns = s.next_ns;
      p.runs.push_back(run);
      if (!rec.metrics.empty() && c.policy == rt::PolicyKind::kSeer) {
        const auto doc = util::json::parse(rec.metrics);
        const util::json::Value* counters = doc ? doc->find("counters") : nullptr;
        if (counters != nullptr) {
          c.rebuilds += counters->u64("seer.rebuilds");
          c.sgl_fallbacks += counters->u64("sim.sgl_fallbacks");
        }
      }
    }
    p.cells.push_back(std::move(c));
  }
  p.digest = all.value();
  if (spans_out != nullptr) *spans_out = std::move(spans);
  return p;
}

// Re-runs every kJobsCheckStride-th cell serially and without the wrapper:
// each must reproduce its digest from the pooled, wrapped pass.
void fig3_jobs_check(const std::vector<workload::Desc>& descs, std::uint64_t seed,
                     const SimPass& ref, Outcome& out) {
  const std::vector<bench::Cell> all = fig3_cells(descs);
  std::vector<bench::Cell> sample;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < all.size(); i += kJobsCheckStride) {
    sample.push_back(all[i]);
    index.push_back(i);
  }
  const auto results = bench::run_cells(sample, fig3_options(seed, 1));
  for (std::size_t k = 0; k < sample.size(); ++k) {
    check_digest(("serial re-run of cell " + std::to_string(index[k])).c_str(),
                 ref.cells[index[k]].digest, cell_digest(results[k]),
                 results[k].runs.size(), out);
  }
}

// Set-up: resolve the stand-ins, build the cell set, and construct every
// cell's generator and Machine once — what a pass builds before it simulates.
double fig3_setup_s(std::uint64_t seed) {
  const std::uint64_t t0 = now_ns();
  const std::vector<workload::Desc> descs = resolve(workload::stamp_names());
  const bench::Options opts = fig3_options(seed, 1);
  for (const bench::Cell& cell : fig3_cells(descs)) {
    sim::MachineConfig cfg;
    cfg.n_threads = cell.threads;
    cfg.txs_per_thread = fig3_txs_per_thread(cell.info, opts);
    cfg.policy = cell.policy;
    cfg.seed = opts.base_seed;
    sim::Machine machine(cfg, cell.info.make(cell.threads));
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// --- sim-wide ----------------------------------------------------------------

// One simulator run each: stand-in x policy x seed, slowest stand-in first.
struct WideCell {
  std::size_t standin;  // index into kWideStandins
  rt::PolicyKind policy;
  std::uint64_t run;    // seed offset, as bench::run_cell numbers its runs
};

std::vector<WideCell> wide_cells() {
  std::vector<WideCell> cells;
  for (std::size_t s = 0; s < std::size(kWideStandins); ++s) {
    for (auto kind : kWidePolicies) {
      for (std::uint64_t r = 0; r < kWideRuns; ++r) cells.push_back({s, kind, r});
    }
  }
  return cells;
}

sim::MachineConfig wide_config(const WideCell& cell, std::uint64_t seed) {
  sim::MachineConfig cfg;
  cfg.n_threads = kWideThreads;
  cfg.topology = kWideTopology;
  cfg.txs_per_thread = kWideTxsPerThread;
  cfg.policy = bench::policy_of(cell.policy);
  cfg.seed = seed + cell.run * 7919;
  return cfg;
}

std::uint64_t machine_digest(const sim::MachineStats& s) {
  Digest d;
  d.add(s.makespan);
  d.add(s.serial_work);
  d.add(s.commits);
  d.add(s.hw_attempts);
  for (auto v : s.commits_by_mode) d.add(v);
  for (auto v : s.aborts_by_cause) d.add(v);
  for (auto v : s.commits_by_type) d.add(v);
  d.add(s.txlock_fraction.count());
  d.add(s.scheme_rebuilds);
  d.add(s.final_params.th1);
  d.add(s.final_params.th2);
  for (const auto& row : s.final_scheme) {
    d.add(static_cast<std::uint64_t>(row.size()));
    for (auto t : row) d.add(static_cast<std::uint64_t>(t));
  }
  for (auto v : s.gt_conflicts) d.add(v);
  return d.value();
}

struct WideOut {
  sim::MachineStats stats;
  GenSpan span;
  std::uint64_t run_ns = 0;
  std::uint64_t cell_ns = 0;
  std::uint64_t sgl_fallbacks = 0;
};

// The scheduler counters come from MachineStats and the scheduler itself, so
// every pass carries them without a registry.
SimPass wide_pass(const std::vector<workload::Desc>& descs, std::uint64_t seed,
                  Probe probe, std::vector<std::vector<GenSpan>>* spans_out) {
  const bool traced = probe == Probe::kCallTiming;
  const std::vector<WideCell> cells = wide_cells();
  const std::uint64_t t0 = now_ns();
  std::vector<WideOut> outs =
      util::parallel_for_indexed(sim_jobs(), cells.size(), [&](std::size_t i) {
        WideOut o;
        const std::uint64_t c0 = now_ns();
        const workload::Desc& desc = descs[cells[i].standin];
        o.span.made_ns = c0;
        {
          sim::Machine m(wide_config(cells[i], seed),
                         std::make_unique<TimedGenerator>(desc.make(kWideThreads),
                                                          &o.span, traced));
          const std::uint64_t r0 = now_ns();
          o.stats = m.run();
          o.run_ns = now_ns() - r0;
          if (core::SeerScheduler* s = m.policy_shared().seer()) {
            o.sgl_fallbacks = s->sgl_fallbacks();
          }
        }
        o.cell_ns = now_ns() - c0;
        return o;
      });
  const std::uint64_t t1 = now_ns();

  SimPass p;
  p.wall_s = static_cast<double>(t1 - t0) / 1e9;
  p.sched_counts = true;
  Digest all;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const WideOut& o = outs[i];
    SimCell c;
    c.standin = kWideStandins[cells[i].standin];
    c.policy = cells[i].policy;
    c.threads = kWideThreads;
    c.span_ns = o.cell_ns;
    c.rebuilds = o.stats.scheme_rebuilds;
    c.sgl_fallbacks = o.sgl_fallbacks;
    c.digest = machine_digest(o.stats);
    all.add(c.digest);
    p.cells.push_back(c);
    SimRun run;
    run.cell = i;
    run.seed = wide_config(cells[i], seed).seed;
    run.commits = o.stats.commits;
    run.expected_commits = kWideThreads * kWideTxsPerThread;
    run.aborts = o.stats.aborts_by_cause;
    run.sgl_commits = static_cast<double>(
        o.stats.commits_by_mode[static_cast<std::size_t>(rt::CommitMode::kSglFallback)]);
    run.cpm = o.stats.makespan == 0 ? 0.0
                                    : 1e6 * static_cast<double>(o.stats.commits) /
                                          static_cast<double>(o.stats.makespan);
    run.run_ns = o.run_ns;
    run.gen_ns = o.span.next_ns + o.span.think_ns;
    run.next_calls = o.span.next_calls;
    run.next_ns = o.span.next_ns;
    p.runs.push_back(run);
  }
  p.digest = all.value();
  if (spans_out != nullptr) {
    spans_out->clear();
    for (const WideOut& o : outs) spans_out->push_back({o.span});
  }
  return p;
}

// Set-up: resolve the stand-ins and construct every cell's generator and
// 64-thread Machine once.
double wide_setup_s(std::uint64_t seed) {
  const std::uint64_t t0 = now_ns();
  const std::vector<workload::Desc> descs = resolve(kWideStandins);
  const std::vector<WideCell> cells = wide_cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    sim::Machine machine(wide_config(cells[i], seed),
                         descs[cells[i].standin].make(kWideThreads));
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// The shared driver of both simulator workloads. `pass(probe, spans)` runs
// one pass; `check(pass, out)` adds a workload's own correctness checks.
// Untraced: timed passes, end-to-end metrics. Traced: one untraced and one
// traced pass, plus an untimed counters pass where the scheduler counters
// need one, whose digests must all agree, and the per-layer metrics.
template <typename SetupFn, typename PassFn, typename CheckFn>
Outcome run_sim(const RunArgs& args, SetupFn&& setup, PassFn&& pass, CheckFn&& check) {
  Outcome out;
  if (!args.trace) {
    const auto passes = timed_passes(
        args.seconds, setup, [&] { return pass(Probe::kNone, nullptr); }, out);
    sim_e2e(passes, args.workload.c_str(), out);
    check(passes.front(), out);
    return out;
  }
  const SimPass plain = pass(Probe::kNone, nullptr);
  std::vector<std::vector<GenSpan>> spans;
  const SimPass traced = pass(Probe::kCallTiming, &spans);
  const SimPass counted = plain.sched_counts ? plain : pass(Probe::kCounters, nullptr);
  for (const SimPass* p : {&plain, &traced, &counted}) check_commits(*p, out);
  check_digest("traced vs untraced", plain.digest, traced.digest, traced.runs.size(), out);
  check_digest("metrics registry vs none", plain.digest, counted.digest,
               counted.runs.size(), out);
  check(plain, out);
  sim_e2e({plain}, args.workload.c_str(), out);
  sim_layers(traced, plain, counted, out);
  write_spans(args, traced, spans);
  return out;
}

}  // namespace

Outcome run_sim_fig3(const RunArgs& args) {
  const std::vector<workload::Desc> descs = resolve(workload::stamp_names());
  return run_sim(
      args, [&] { return fig3_setup_s(args.seed); },
      [&](Probe probe, std::vector<std::vector<GenSpan>>* spans) {
        return fig3_pass(descs, args.seed, probe, spans);
      },
      [&](const SimPass& ref, Outcome& out) { fig3_jobs_check(descs, args.seed, ref, out); });
}

Outcome run_sim_wide(const RunArgs& args) {
  const std::vector<workload::Desc> descs = resolve(kWideStandins);
  return run_sim(
      args, [&] { return wide_setup_s(args.seed); },
      [&](Probe probe, std::vector<std::vector<GenSpan>>* spans) {
        return wide_pass(descs, args.seed, probe, spans);
      },
      [](const SimPass&, Outcome&) {});
}

}  // namespace perfbench
