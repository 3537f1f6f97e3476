// Tests for the parallel bench harness: the sweep's results must be
// invariant under --jobs (the whole determinism argument of the parallel
// evaluation layer), and --json must emit one well-formed record per
// (cell, seed).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/runner.hpp"
#include "util/json.hpp"

namespace seer::bench {
namespace {

Options tiny_options() {
  Options opts;
  opts.runs = 2;
  opts.txs_scale = 0.02;  // floors at 200 txs/thread — seconds, not minutes
  opts.base_seed = 4242;
  return opts;
}

// A small Figure-3 slice: one workload, two policies, two thread counts.
std::vector<Cell> fig3_slice() {
  stamp::WorkloadInfo genome;
  for (const auto& info : stamp::all_workloads()) {
    if (info.name == "genome") genome = info;
  }
  std::vector<Cell> cells;
  for (std::size_t threads : {2u, 4u}) {
    for (auto kind : {rt::PolicyKind::kRtm, rt::PolicyKind::kSeer}) {
      cells.push_back({genome, policy_of(kind), threads, {}});
    }
  }
  return cells;
}

void expect_identical(const CellResult& a, const CellResult& b, std::size_t i) {
  EXPECT_EQ(a.summary.speedup, b.summary.speedup) << "cell " << i;
  EXPECT_EQ(a.summary.sgl_fraction, b.summary.sgl_fraction) << "cell " << i;
  EXPECT_EQ(a.summary.no_lock_fraction, b.summary.no_lock_fraction) << "cell " << i;
  EXPECT_EQ(a.summary.tx_fraction, b.summary.tx_fraction) << "cell " << i;
  EXPECT_EQ(a.summary.aborts_per_commit, b.summary.aborts_per_commit) << "cell " << i;
  EXPECT_EQ(a.summary.capacity_aborts, b.summary.capacity_aborts) << "cell " << i;
  ASSERT_EQ(a.runs.size(), b.runs.size()) << "cell " << i;
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].seed, b.runs[r].seed);
    EXPECT_EQ(a.runs[r].speedup, b.runs[r].speedup);
    EXPECT_EQ(a.runs[r].commits, b.runs[r].commits);
    EXPECT_EQ(a.runs[r].makespan, b.runs[r].makespan);
    EXPECT_EQ(a.runs[r].aborts_by_cause, b.runs[r].aborts_by_cause);
  }
}

TEST(BenchRunner, JobsCountDoesNotChangeResults) {
  const std::vector<Cell> cells = fig3_slice();

  Options serial = tiny_options();
  serial.jobs = 1;
  const auto base = run_cells(cells, serial);
  ASSERT_EQ(base.size(), cells.size());

  Options pooled = tiny_options();
  pooled.jobs = 8;
  const auto par = run_cells(cells, pooled);
  ASSERT_EQ(par.size(), cells.size());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_identical(base[i], par[i], i);
  }
}

TEST(BenchRunner, JobsInvarianceHoldsWithSampledStats) {
  // Statistical sampling (stats_sample_period > 1) adds another seeded RNG
  // stream to the Seer hot path; the byte-identical --jobs invariance must
  // survive it — sampling decisions may depend on the run's own seed, never
  // on worker scheduling.
  stamp::WorkloadInfo genome;
  for (const auto& info : stamp::all_workloads()) {
    if (info.name == "genome") genome = info;
  }
  std::vector<Cell> cells;
  for (std::size_t threads : {2u, 4u}) {
    rt::PolicyConfig pol = policy_of(rt::PolicyKind::kSeer);
    pol.seer.stats_sample_period = 4;
    cells.push_back({genome, pol, threads, {}});
  }

  Options serial = tiny_options();
  serial.jobs = 1;
  const auto base = run_cells(cells, serial);
  ASSERT_EQ(base.size(), cells.size());

  Options pooled = tiny_options();
  pooled.jobs = 8;
  const auto par = run_cells(cells, pooled);
  ASSERT_EQ(par.size(), cells.size());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_identical(base[i], par[i], i);
  }
}

TEST(BenchRunner, RunRecordsCarryThroughput) {
  Options opts = tiny_options();
  opts.jobs = 2;
  const auto results = run_cells(fig3_slice(), opts);
  for (const auto& cell : results) {
    ASSERT_EQ(cell.runs.size(), 2u);
    for (const auto& r : cell.runs) {
      EXPECT_GT(r.commits, 0u);
      EXPECT_GT(r.makespan, 0u);
      EXPECT_GT(r.commits_per_mcycle, 0.0);
      EXPECT_GT(r.speedup, 0.0);
    }
  }
}

TEST(BenchRunner, WriteJsonEmitsOneRecordPerCellAndSeed) {
  const std::vector<Cell> cells = fig3_slice();
  Options opts = tiny_options();
  opts.jobs = 4;
  opts.json_path = ::testing::TempDir() + "bench_runner_test.json";
  const auto results = run_cells(cells, opts);
  write_json("fig3_slice", cells, results, opts);

  std::ifstream in(opts.json_path);
  ASSERT_TRUE(in.good()) << opts.json_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  EXPECT_NE(json.find("\"exhibit\": \"fig3_slice\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"genome\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"RTM\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"Seer\""), std::string::npos);
  EXPECT_NE(json.find("\"commits_per_mcycle\""), std::string::npos);
  EXPECT_NE(json.find("\"capacity\""), std::string::npos);

  std::size_t records = 0;
  for (std::size_t pos = json.find("\"seed\""); pos != std::string::npos;
       pos = json.find("\"seed\"", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, cells.size() * static_cast<std::size_t>(opts.runs));
  std::remove(opts.json_path.c_str());
}

TEST(BenchRunner, MetricsOutputIsByteIdenticalForAnyJobsCount) {
  // The --metrics contract: each run owns its registry, registration order
  // is fixed, the simulator is single-threaded per run — so the serialized
  // snapshots depend only on (cell, seed), never on worker scheduling.
  const std::vector<Cell> cells = fig3_slice();

  auto metrics_file = [&](int jobs, const std::string& path) {
    Options opts = tiny_options();
    opts.jobs = jobs;
    opts.metrics_path = path;
    const auto results = run_cells(cells, opts);
    write_metrics_json("fig3_slice", cells, results, opts);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };

  const std::string serial =
      metrics_file(1, ::testing::TempDir() + "bench_metrics_j1.json");
  const std::string pooled =
      metrics_file(8, ::testing::TempDir() + "bench_metrics_j8.json");
  EXPECT_EQ(serial, pooled) << "--metrics must be --jobs invariant, byte for byte";
  EXPECT_NE(serial.find("\"sim.commits\""), std::string::npos);
  EXPECT_NE(serial.find("\"seer.announces\""), std::string::npos);
  EXPECT_NE(serial.find("\"sim.queue_depth\""), std::string::npos);
}

TEST(BenchRunner, MetricsSkippedWhenPathEmpty) {
  Options opts = tiny_options();
  opts.jobs = 2;
  const auto results = run_cells(fig3_slice(), opts);
  for (const auto& cell : results) {
    for (const auto& r : cell.runs) {
      EXPECT_TRUE(r.metrics.empty()) << "no --metrics, no snapshot cost";
    }
  }
}

TEST(BenchRunner, EmptyJsonPathIsNoOp) {
  const std::vector<Cell> cells;
  const std::vector<CellResult> results;
  Options opts = tiny_options();
  EXPECT_NO_THROW(write_json("noop", cells, results, opts));
}

namespace {

std::string snapshots_file(const std::vector<Cell>& cells, int jobs,
                           const std::string& path,
                           std::uint32_t sample_period = 1) {
  std::vector<Cell> patched = cells;
  for (Cell& c : patched) c.policy.seer.stats_sample_period = sample_period;
  Options opts = tiny_options();
  opts.jobs = jobs;
  opts.snapshots_path = path;
  const auto results = run_cells(patched, opts);
  write_snapshots_json("fig3_slice", patched, results, opts);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

}  // namespace

TEST(BenchRunner, SnapshotsOutputIsByteIdenticalForAnyJobsCount) {
  // The --snapshots contract mirrors --metrics: each run owns its
  // FlightRecorder, fed only by that run's single-threaded simulator, and
  // serialization happens after the sweep in cell order — so the dump
  // depends only on (cell, seed), never on worker scheduling.
  const std::vector<Cell> cells = fig3_slice();
  const std::string serial =
      snapshots_file(cells, 1, ::testing::TempDir() + "bench_snap_j1.json");
  const std::string two =
      snapshots_file(cells, 2, ::testing::TempDir() + "bench_snap_j2.json");
  const std::string pooled =
      snapshots_file(cells, 8, ::testing::TempDir() + "bench_snap_j8.json");
  EXPECT_EQ(serial, two) << "--snapshots must be --jobs invariant, byte for byte";
  EXPECT_EQ(serial, pooled) << "--snapshots must be --jobs invariant, byte for byte";
}

TEST(BenchRunner, SnapshotsInvarianceHoldsWithSampledStats) {
  // Deterministic stats sampling changes WHAT the model snapshots contain
  // (scaled counters) but must not break the invariance: sampling decisions
  // live inside the per-run slabs, keyed by the run's own seed.
  const std::vector<Cell> cells = fig3_slice();
  const std::string serial = snapshots_file(
      cells, 1, ::testing::TempDir() + "bench_snap_sp_j1.json", 4);
  const std::string pooled = snapshots_file(
      cells, 8, ::testing::TempDir() + "bench_snap_sp_j8.json", 4);
  EXPECT_EQ(serial, pooled);
}

TEST(BenchRunner, SnapshotsDumpIsValidVersionedJson) {
  // The dump must parse as JSON: a versioned envelope of per-run records,
  // each with its flight object (empty for non-Seer policies) and ground
  // truth.
  const std::vector<Cell> cells = fig3_slice();
  const std::string text =
      snapshots_file(cells, 2, ::testing::TempDir() + "bench_snap_valid.json");

  std::string err;
  const auto doc = util::json::parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->u64("version"), 1u);
  const util::json::Value* results = doc->find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());
  const Options opts = tiny_options();
  ASSERT_EQ(results->array.size(),
            cells.size() * static_cast<std::size_t>(opts.runs));
  bool saw_seer_flight = false;
  for (const auto& run : results->array) {
    const util::json::Value* flight = run.find("flight");
    ASSERT_NE(flight, nullptr);
    ASSERT_TRUE(flight->is_object());
    const util::json::Value* gt = run.find("ground_truth");
    ASSERT_NE(gt, nullptr);
    EXPECT_GT(gt->u64("n_types"), 0u);
    if (run.str("policy") == "Seer" && !flight->object.empty()) {
      saw_seer_flight = true;
      EXPECT_EQ(flight->u64("version"), 1u);
      // End-of-run capture is unconditional: at least the final snapshot.
      EXPECT_GE(flight->u64("captured"), 1u);
      const util::json::Value* snaps = flight->find("snapshots");
      ASSERT_NE(snaps, nullptr);
      ASSERT_TRUE(snaps->is_array());
      ASSERT_FALSE(snaps->array.empty());
      EXPECT_EQ(snaps->array.back().str("reason"), "final");
      // seq strictly increases across retained snapshots.
      std::uint64_t prev_seq = 0;
      bool first = true;
      for (const auto& s : snaps->array) {
        const std::uint64_t seq = s.u64("seq");
        if (!first) {
          EXPECT_GT(seq, prev_seq);
        }
        prev_seq = seq;
        first = false;
      }
    }
  }
  EXPECT_TRUE(saw_seer_flight) << "Seer runs must carry flight dumps";
}

TEST(BenchRunner, SnapshotsSkippedWhenPathEmpty) {
  Options opts = tiny_options();
  opts.jobs = 2;
  const auto results = run_cells(fig3_slice(), opts);
  for (const auto& cell : results) {
    for (const auto& r : cell.runs) {
      EXPECT_TRUE(r.flight.empty()) << "no --snapshots, no recorder cost";
      EXPECT_TRUE(r.ground_truth.empty());
    }
  }
}

}  // namespace
}  // namespace seer::bench
