#include "bench/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "htm/abort_code.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace seer::bench {

namespace {

using util::append_u64;

// Sparse victim-major dump of the simulator's exact conflict attribution —
// the reference tools/seer_inspect scores the inferred scheme against.
std::string ground_truth_json(const sim::MachineStats& s) {
  const std::size_t n = s.commits_by_type.size();
  std::string out = "{\"n_types\": ";
  append_u64(out, n);
  out += ", \"commits_by_type\": [";
  for (std::size_t t = 0; t < n; ++t) {
    if (t > 0) out += ", ";
    append_u64(out, s.commits_by_type[t]);
  }
  out += "], \"conflicts\": [";
  bool first = true;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < n; ++a) {
      const std::uint64_t c = s.gt_conflicts[v * n + a];
      if (c == 0) continue;
      out += first ? "{\"x\": " : ", {\"x\": ";
      append_u64(out, v);
      out += ", \"y\": ";
      append_u64(out, a);
      out += ", \"count\": ";
      append_u64(out, c);
      out += "}";
      first = false;
    }
  }
  out += "]}";
  return out;
}

std::string scheme_json(const std::vector<std::vector<core::TxTypeId>>& rows) {
  std::string out = "[";
  for (std::size_t x = 0; x < rows.size(); ++x) {
    if (x > 0) out += ", ";
    out += "[";
    for (std::size_t j = 0; j < rows[x].size(); ++j) {
      if (j > 0) out += ", ";
      append_u64(out, rows[x][j]);
    }
    out += "]";
  }
  out += "]";
  return out;
}

std::string params_json(const core::InferenceParams& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"th1\": %.9g, \"th2\": %.9g}", p.th1, p.th2);
  return buf;
}

}  // namespace

CellResult run_cell(const Cell& cell, const Options& opts, obs::TraceSink* trace,
                    workload::InstanceTrace* record) {
  CellResult out;
  Summary& sum = out.summary;
  util::RunningStats speedup;
  double census_lt = 0.0;
  double census_median = 0.0;
  int census_runs = 0;
  const bool want_metrics = !opts.metrics_path.empty();
  const bool want_snapshots = !opts.snapshots_path.empty();
  out.runs.reserve(static_cast<std::size_t>(opts.runs));
  for (int r = 0; r < opts.runs; ++r) {
    sim::MachineConfig cfg;
    cfg.n_threads = cell.threads;
    cfg.txs_per_thread = std::max<std::uint64_t>(
        200, static_cast<std::uint64_t>(
                 static_cast<double>(cell.info.bench_txs_per_thread) *
                 opts.txs_scale));
    cfg.policy = cell.policy;
    cfg.seed = opts.base_seed + static_cast<std::uint64_t>(r) * 7919;
    // One registry per run: snapshots are per-(cell, seed), so concurrent
    // cells never share mutable observability state (the --jobs-invariance
    // argument above extends to the --metrics output).
    obs::MetricsRegistry reg(cell.threads);
    if (want_metrics) cfg.metrics = &reg;
    if (trace != nullptr && r == 0) cfg.trace = trace;
    // Same isolation story as the registry: one recorder per (cell, seed),
    // fed only by this run's single-threaded simulator.
    obs::FlightRecorder recorder;
    if (want_snapshots) cfg.recorder = &recorder;
    // The cell's generator comes from the registry (or an implicit STAMP
    // adapter); --record wraps the first seed's instance stream in a
    // pass-through recorder, leaving the draws untouched.
    std::unique_ptr<sim::Workload> wl = cell.info.make(cell.threads);
    if (record != nullptr && r == 0) {
      wl = std::make_unique<workload::InstanceTraceRecorder>(
          std::move(wl), cell.threads, record);
    }
    sim::Machine machine(cfg, std::move(wl));
    reg.freeze();  // every component has registered by now
    const sim::MachineStats s = machine.run();

    RunRecord rec;
    if (want_metrics) rec.metrics = reg.snapshot().to_json();
    if (want_snapshots) {
      rec.flight = recorder.to_json();
      rec.ground_truth = ground_truth_json(s);
      rec.final_scheme = scheme_json(s.final_scheme);
      rec.final_params = params_json(s.final_params);
    }
    rec.seed = cfg.seed;
    rec.speedup = s.speedup();
    rec.commits = s.commits;
    rec.makespan = s.makespan;
    rec.commits_per_mcycle =
        s.makespan == 0 ? 0.0
                        : 1e6 * static_cast<double>(s.commits) /
                              static_cast<double>(s.makespan);
    rec.aborts_by_cause = s.aborts_by_cause;
    out.runs.push_back(rec);

    speedup.add(s.speedup());
    sum.sgl_fraction += s.mode_fraction(rt::CommitMode::kSglFallback);
    sum.aux_fraction += s.mode_fraction(rt::CommitMode::kHtmAuxLock);
    sum.sched_fraction += s.mode_fraction(rt::CommitMode::kHtmSchedLock);
    sum.tx_fraction += s.mode_fraction(rt::CommitMode::kHtmTxLocks);
    sum.core_fraction += s.mode_fraction(rt::CommitMode::kHtmCoreLock);
    sum.tx_core_fraction += s.mode_fraction(rt::CommitMode::kHtmTxAndCore);
    sum.no_lock_fraction += s.mode_fraction(rt::CommitMode::kHtmNoLocks);
    sum.aborts_per_commit +=
        s.commits > 0 ? static_cast<double>(s.aborts()) / static_cast<double>(s.commits)
                      : 0.0;
    sum.capacity_aborts += static_cast<double>(
        s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)]);
    if (s.txlock_fraction.count() > 0) {
      census_median += s.txlock_fraction.percentile(0.5);
      // Estimate P(fraction < 0.23) by bisecting the percentile function
      // (§5.2's "under 23% of the locks" share).
      double lo = 0.0;
      double hi = 1.0;
      for (int it = 0; it < 20; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (s.txlock_fraction.percentile(mid) < 0.23) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      census_lt += 0.5 * (lo + hi);
      ++census_runs;
    }
  }
  const double n = static_cast<double>(opts.runs);
  sum.speedup = speedup.mean();
  sum.sgl_fraction /= n;
  sum.aux_fraction /= n;
  sum.sched_fraction /= n;
  sum.tx_fraction /= n;
  sum.core_fraction /= n;
  sum.tx_core_fraction /= n;
  sum.no_lock_fraction /= n;
  sum.aborts_per_commit /= n;
  sum.capacity_aborts /= n;
  if (census_runs > 0) {
    sum.txlock_median_fraction = census_median / census_runs;
    sum.txlock_under_23pct = census_lt / census_runs;
  }
  return out;
}

std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                  const Options& opts) {
  // With --trace, cell 0's first seed records into a sink that outlives the
  // sweep; it is drained (race-free: the producing worker has returned)
  // after the pool finishes.
  std::unique_ptr<obs::TraceSink> trace;
  if (!opts.trace_path.empty() && !cells.empty()) {
    trace = std::make_unique<obs::TraceSink>(cells[0].threads);
  }
  // --record follows the same cell-0/first-seed convention as --trace.
  std::unique_ptr<workload::InstanceTrace> record;
  if (!opts.record_path.empty() && !cells.empty()) {
    record = std::make_unique<workload::InstanceTrace>();
  }
  auto results = util::parallel_for_indexed(
      opts.effective_jobs(), cells.size(), [&](std::size_t i) {
        return run_cell(cells[i], opts, i == 0 ? trace.get() : nullptr,
                        i == 0 ? record.get() : nullptr);
      });
  if (record != nullptr) {
    if (!workload::write_trace_json(*record, opts.record_path)) {
      std::fprintf(stderr, "cannot open --record path: %s\n",
                   opts.record_path.c_str());
      std::exit(2);
    }
  }
  if (trace != nullptr) {
    if (!trace->write_chrome_json(opts.trace_path)) {
      std::fprintf(stderr, "cannot open --trace path: %s\n", opts.trace_path.c_str());
      std::exit(2);
    }
    if (trace->dropped() > 0) {
      // The Chrome JSON is a suffix of reality; say so where the user will
      // see it, naming the lanes that wrapped.
      const std::vector<std::uint64_t> lane_drops = trace->dropped_per_lane();
      std::fprintf(stderr,
                   "WARNING: --trace ring overflowed, %llu events lost "
                   "(per thread:",
                   static_cast<unsigned long long>(trace->dropped()));
      for (std::size_t t = 0; t < lane_drops.size(); ++t) {
        std::fprintf(stderr, " %llu",
                     static_cast<unsigned long long>(lane_drops[t]));
      }
      std::fprintf(stderr, "); raise the sink capacity or trace fewer cells\n");
    }
  }
  return results;
}

Summary run_config(const workload::Desc& info, const Options& opts,
                   rt::PolicyConfig policy, std::size_t threads) {
  Cell cell;
  cell.info = info;
  cell.policy = policy;
  cell.threads = threads;
  return run_cell(cell, opts).summary;
}

void write_json(const std::string& exhibit, const std::vector<Cell>& cells,
                const std::vector<CellResult>& results, const Options& opts) {
  if (opts.json_path.empty()) return;
  if (cells.size() != results.size()) {
    throw std::logic_error("write_json: cells/results size mismatch");
  }
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    // A CLI usage error, not a programming error: report and exit cleanly
    // instead of letting the exception terminate() the bench binary.
    std::fprintf(stderr, "cannot open --json path: %s\n", opts.json_path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n"
               "  \"exhibit\": \"%s\",\n"
               "  \"runs\": %d,\n"
               "  \"txs_scale\": %g,\n"
               "  \"base_seed\": %llu,\n"
               "  \"results\": [\n",
               exhibit.c_str(), opts.runs, opts.txs_scale,
               static_cast<unsigned long long>(opts.base_seed));
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const char* policy = cell.policy_label.empty()
                             ? rt::to_string(cell.policy.kind)
                             : cell.policy_label.c_str();
    for (const RunRecord& r : results[i].runs) {
      std::fprintf(
          f,
          "%s    {\"workload\": \"%s\", \"policy\": \"%s\", \"threads\": %zu, "
          "\"seed\": %llu, \"speedup\": %.6f, \"commits\": %llu, "
          "\"makespan_cycles\": %llu, \"commits_per_mcycle\": %.6f, "
          "\"aborts\": {\"conflict\": %llu, \"capacity\": %llu, "
          "\"explicit\": %llu, \"other\": %llu}}",
          first ? "" : ",\n", cell.info.name.c_str(), policy, cell.threads,
          static_cast<unsigned long long>(r.seed), r.speedup,
          static_cast<unsigned long long>(r.commits),
          static_cast<unsigned long long>(r.makespan), r.commits_per_mcycle,
          static_cast<unsigned long long>(
              r.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kConflict)]),
          static_cast<unsigned long long>(
              r.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)]),
          static_cast<unsigned long long>(
              r.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kExplicit)]),
          static_cast<unsigned long long>(
              r.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kOther)]));
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void write_metrics_json(const std::string& exhibit, const std::vector<Cell>& cells,
                        const std::vector<CellResult>& results, const Options& opts) {
  if (opts.metrics_path.empty()) return;
  if (cells.size() != results.size()) {
    throw std::logic_error("write_metrics_json: cells/results size mismatch");
  }
  std::FILE* f = std::fopen(opts.metrics_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --metrics path: %s\n", opts.metrics_path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n"
               "  \"exhibit\": \"%s\",\n"
               "  \"runs\": %d,\n"
               "  \"txs_scale\": %g,\n"
               "  \"base_seed\": %llu,\n"
               "  \"results\": [\n",
               exhibit.c_str(), opts.runs, opts.txs_scale,
               static_cast<unsigned long long>(opts.base_seed));
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const char* policy = cell.policy_label.empty()
                             ? rt::to_string(cell.policy.kind)
                             : cell.policy_label.c_str();
    for (const RunRecord& r : results[i].runs) {
      // r.metrics is already a JSON object (MetricsSnapshot::to_json).
      std::fprintf(f,
                   "%s    {\"workload\": \"%s\", \"policy\": \"%s\", "
                   "\"threads\": %zu, \"seed\": %llu, \"metrics\": %s}",
                   first ? "" : ",\n", cell.info.name.c_str(), policy,
                   cell.threads, static_cast<unsigned long long>(r.seed),
                   r.metrics.empty() ? "{}" : r.metrics.c_str());
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void write_snapshots_json(const std::string& exhibit, const std::vector<Cell>& cells,
                          const std::vector<CellResult>& results, const Options& opts) {
  if (opts.snapshots_path.empty()) return;
  if (cells.size() != results.size()) {
    throw std::logic_error("write_snapshots_json: cells/results size mismatch");
  }
  std::FILE* f = std::fopen(opts.snapshots_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --snapshots path: %s\n",
                 opts.snapshots_path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n"
               "  \"version\": 1,\n"
               "  \"exhibit\": \"%s\",\n"
               "  \"runs\": %d,\n"
               "  \"txs_scale\": %g,\n"
               "  \"base_seed\": %llu,\n"
               "  \"results\": [\n",
               exhibit.c_str(), opts.runs, opts.txs_scale,
               static_cast<unsigned long long>(opts.base_seed));
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const char* policy = cell.policy_label.empty()
                             ? rt::to_string(cell.policy.kind)
                             : cell.policy_label.c_str();
    for (const RunRecord& r : results[i].runs) {
      std::fprintf(f,
                   "%s    {\"workload\": \"%s\", \"policy\": \"%s\", "
                   "\"threads\": %zu, \"seed\": %llu, \"flight\": %s, "
                   "\"ground_truth\": %s, \"final_scheme\": %s, "
                   "\"final_params\": %s}",
                   first ? "" : ",\n", cell.info.name.c_str(), policy,
                   cell.threads, static_cast<unsigned long long>(r.seed),
                   r.flight.empty() ? "{}" : r.flight.c_str(),
                   r.ground_truth.empty() ? "{}" : r.ground_truth.c_str(),
                   r.final_scheme.empty() ? "[]" : r.final_scheme.c_str(),
                   r.final_params.empty() ? "{}" : r.final_params.c_str());
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void write_outputs(const std::string& exhibit, const std::vector<Cell>& cells,
                   const std::vector<CellResult>& results, const Options& opts) {
  write_json(exhibit, cells, results, opts);
  write_metrics_json(exhibit, cells, results, opts);
  write_snapshots_json(exhibit, cells, results, opts);
}

}  // namespace seer::bench
