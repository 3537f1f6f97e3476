// Microbenchmarks of the machine simulator: raw event throughput and
// whole-machine simulation rates (events and transactions per second).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "stamp/workloads.hpp"
#include "workload/registry.hpp"

namespace {

using namespace seer;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  util::Xoshiro256 rng(3);
  // Keep a standing population, push one / pop one per iteration.
  for (int i = 0; i < 256; ++i) {
    sim::Event e;
    e.time = rng.below(100000);
    q.push(e);
  }
  for (auto _ : state) {
    sim::Event e;
    e.time = q.top().time + rng.below(1000);
    q.push(e);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

// Whole-machine simulation rate under Seer on vacation-low, whose ~300-line
// read sets made conflict detection the simulator's hot spot at width. Up to
// 8 threads the legacy flat 4-core machine; from 32 threads a 2-socket,
// 2-way SMT shape (64 threads is the perfbench sim-wide machine). CI gates
// the 64-thread point (bench/baseline_htm.json): rescanning every in-HW
// thread's footprint on each attempt ran it at about a third of the rate
// of the live-instance conflict graph.
void BM_MachineRun(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t total_commits = 0;
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.n_threads = threads;
    if (threads > 8) cfg.topology = core::Topology{2, threads / 4, 2};
    cfg.txs_per_thread = 500;
    cfg.policy.kind = rt::PolicyKind::kSeer;
    cfg.seed = 7;
    const auto stats =
        sim::run_machine(cfg, stamp::make_workload("vacation-low", threads));
    total_commits += stats.commits;
    benchmark::DoNotOptimize(stats.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_commits));
  state.SetLabel("items = simulated transactions");
}
BENCHMARK(BM_MachineRun)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// One generator next() per iteration: the simulator's hot call in the
// paper regime (perfbench's workload.next_ns.*). The stand-ins span the
// canonicalization paths: yada's 524288-line mesh radix-sorts hundreds of
// samples, vacation-high and genome fill bitmaps over Zipf draws, ssca2
// insertion-sorts a handful, and serve-mixed is the real-thread producer's
// spec (perfbench/serve_mixed.json).
void BM_WorkloadSampling(benchmark::State& state, const std::string& name) {
  const workload::Desc desc = name == "serve-mixed"
                                  ? workload::from_config(SEER_SOURCE_DIR
                                                          "/perfbench/serve_mixed.json")
                                  : workload::find(name);
  const auto wl = desc.make(8);
  util::Xoshiro256 rng(3);
  sim::TxInstance inst;
  for (auto _ : state) {
    wl->next(0, 0.5, rng, inst);
    benchmark::DoNotOptimize(inst.footprint_lines());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WorkloadSampling, yada, "yada");
BENCHMARK_CAPTURE(BM_WorkloadSampling, vacation_high, "vacation-high");
BENCHMARK_CAPTURE(BM_WorkloadSampling, genome, "genome");
BENCHMARK_CAPTURE(BM_WorkloadSampling, ssca2, "ssca2");
BENCHMARK_CAPTURE(BM_WorkloadSampling, serve_mixed, "serve-mixed");

// One Desc::make(8): what building a run's generator costs once the Desc
// holds the compiled sampling tables (sim-fig3 makes 640 per pass).
void BM_DescMake(benchmark::State& state) {
  const workload::Desc desc = workload::find("genome");
  for (auto _ : state) benchmark::DoNotOptimize(desc.make(8));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DescMake);

// An instance with `reads` read and `writes` written lines, all of one
// parity, spread over the same range whatever the parity: instances of
// different parity never conflict, so every check runs to completion.
sim::TxInstance parity_instance(std::size_t reads, std::size_t writes,
                                std::uint32_t parity, std::uint64_t seed) {
  constexpr std::uint32_t kSpan = 4096;
  util::Xoshiro256 rng(seed);
  const auto lines = [&](std::size_t n) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = 2 * static_cast<std::uint32_t>(rng.below(kSpan)) + parity;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  sim::TxInstance inst;
  inst.reads = lines(reads);
  inst.writes = lines(writes);
  return inst;
}

// A conflict-free pair: `small_*` lines on one side against a 300-read,
// 24-write footprint. Small-vs-large is the galloping regime (a short
// transaction beside a long one); large-vs-large the merge regime.
void BM_ConflictCheck(benchmark::State& state, std::size_t small_reads,
                      std::size_t small_writes) {
  const sim::TxInstance a = parity_instance(small_reads, small_writes, 0, 3);
  const sim::TxInstance b = parity_instance(300, 24, 1, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::instances_conflict(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ConflictCheck, small_vs_large, 4, 8);
BENCHMARK_CAPTURE(BM_ConflictCheck, large_vs_large, 300, 24);

}  // namespace

BENCHMARK_MAIN();
