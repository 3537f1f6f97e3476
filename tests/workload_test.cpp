// Tests for the pluggable workload-generator API (src/workload/):
//
//   * golden equivalence — every STAMP name resolved through the registry
//     produces the byte-identical instance/think stream (and machine run)
//     as the legacy stamp::make_workload path;
//   * bench equivalence — cells built from `--workload genome` match cells
//     built from the legacy stamp::WorkloadInfo table, byte for byte in the
//     --json output, for any --jobs value;
//   * trace record/replay — a recorded run replays decision-for-decision
//     (PR 2 differential checker) and cycle-for-cycle; malformed and
//     truncated trace files fail with errors naming the bad key;
//   * the phased and bst generators' own invariants;
//   * config-parse negatives — unknown generators, missing/mistyped fields,
//     and out-of-range phase boundaries all throw ConfigError naming the
//     offending key (the subprocess exit-code side lives in
//     scripts/test_workload_config.py).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/runner.hpp"
#include "check/differential.hpp"
#include "sim/machine.hpp"
#include "stamp/workloads.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workload/bst.hpp"
#include "workload/phased.hpp"
#include "workload/registry.hpp"
#include "workload/trace.hpp"

namespace seer::workload {
namespace {

using util::json::Value;

Value parse_or_die(const std::string& text) {
  std::string err;
  auto doc = util::json::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err << "\nin: " << text;
  return doc.has_value() ? *doc : Value{};
}

// Expects `fn` to throw ConfigError whose message mentions `needle`.
template <typename Fn>
void expect_config_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ConfigError mentioning \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic does not name the bad key: " << e.what();
  }
}

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

// ------------------------------------------------- golden equivalence ----

void expect_same_instance(const sim::TxInstance& a, const sim::TxInstance& b,
                          const std::string& where) {
  EXPECT_EQ(a.type, b.type) << where;
  EXPECT_EQ(a.duration, b.duration) << where;
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
}

TEST(GoldenEquivalence, RegistryMatchesLegacyStampStreams) {
  for (const std::string& name : stamp_names()) {
    for (const std::uint64_t seed : {1ull, 0xBEEFull}) {
      for (const std::size_t n_threads : {1u, 4u}) {
        const Desc desc = find(name);
        EXPECT_EQ(desc.name, name);
        const auto via_registry = desc.make(n_threads);
        const auto legacy = stamp::make_workload(name, n_threads);
        ASSERT_EQ(via_registry->n_types(), legacy->n_types()) << name;
        for (std::size_t t = 0; t < legacy->n_types(); ++t) {
          EXPECT_EQ(via_registry->type_name(static_cast<core::TxTypeId>(t)),
                    legacy->type_name(static_cast<core::TxTypeId>(t)));
        }
        // Identical seeds in, identical streams out — interleaved think/next
        // like the executors drive it.
        for (std::size_t th = 0; th < n_threads; ++th) {
          const auto id = static_cast<core::ThreadId>(th);
          util::Xoshiro256 rng_a(seed ^ th);
          util::Xoshiro256 rng_b(seed ^ th);
          via_registry->init(id);
          legacy->init(id);
          sim::TxInstance ia;
          sim::TxInstance ib;
          for (int i = 0; i < 40; ++i) {
            const std::string where = name + " seed=" + std::to_string(seed) +
                                      " thread=" + std::to_string(th) +
                                      " i=" + std::to_string(i);
            EXPECT_EQ(via_registry->think_time(id, rng_a),
                      legacy->think_time(id, rng_b))
                << where;
            const double progress = i / 40.0;
            via_registry->next(id, progress, rng_a, ia);
            legacy->next(id, progress, rng_b, ib);
            expect_same_instance(ia, ib, where);
          }
          EXPECT_EQ(rng_a.state(), rng_b.state())
              << name << ": the paths consumed different draw counts";
        }
      }
    }
  }
}

TEST(GoldenEquivalence, DescMetadataMatchesLegacyTable) {
  const auto& legacy = stamp::all_workloads();
  ASSERT_EQ(stamp_names().size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(stamp_names()[i], legacy[i].name) << "presentation order changed";
    const Desc d = find(legacy[i].name);
    EXPECT_EQ(d.bench_txs_per_thread, legacy[i].bench_txs_per_thread);
  }
}

TEST(GoldenEquivalence, MachineRunsMatchLegacyConstruction) {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 250;
  cfg.seed = 99;
  cfg.policy.kind = rt::PolicyKind::kSeer;

  sim::Machine a(cfg, find("genome").make(cfg.n_threads));
  const sim::MachineStats sa = a.run();
  sim::Machine b(cfg, stamp::make_workload("genome", cfg.n_threads));
  const sim::MachineStats sb = b.run();

  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  EXPECT_EQ(sa.commits_by_mode, sb.commits_by_mode);
  EXPECT_EQ(sa.gt_conflicts, sb.gt_conflicts);
}

TEST(GoldenEquivalence, BenchWorkloadFlagMatchesLegacyPathForAnyJobs) {
  bench::Options opts;
  opts.runs = 1;
  opts.txs_scale = 0.02;
  opts.base_seed = 777;
  opts.workloads = {"genome"};

  auto cells_for = [](const Desc& d) {
    std::vector<bench::Cell> cells;
    for (std::size_t threads : {2u, 4u}) {
      cells.push_back({d, bench::policy_of(rt::PolicyKind::kSeer), threads, {}});
    }
    return cells;
  };
  // The registry path (--workload genome) vs the legacy table entry,
  // through the implicit WorkloadInfo → Desc adapter.
  const auto selected = opts.selected();
  ASSERT_EQ(selected.size(), 1u);
  stamp::WorkloadInfo legacy_info;
  for (const auto& info : stamp::all_workloads()) {
    if (info.name == "genome") legacy_info = info;
  }

  auto json_of = [&](const std::vector<bench::Cell>& cells, int jobs) {
    bench::Options o = opts;
    o.jobs = jobs;
    o.json_path = temp_path("workload_equiv.json");
    const auto results = bench::run_cells(cells, o);
    bench::write_json("equiv", cells, results, o);
    std::ifstream in(o.json_path);
    EXPECT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(o.json_path.c_str());
    return ss.str();
  };

  const std::string registry_j1 = json_of(cells_for(selected[0]), 1);
  const std::string registry_j4 = json_of(cells_for(selected[0]), 4);
  const std::string legacy_j1 = json_of(cells_for(Desc{legacy_info}), 1);
  const std::string legacy_j4 = json_of(cells_for(Desc{legacy_info}), 4);
  EXPECT_EQ(registry_j1, legacy_j1) << "registry path diverges from legacy";
  EXPECT_EQ(registry_j1, registry_j4) << "--jobs changed the output";
  EXPECT_EQ(legacy_j1, legacy_j4) << "--jobs changed the output";
}

// ------------------------------------------------ trace record/replay ----

sim::MachineConfig replay_config() {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 300;
  cfg.seed = 4242;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.policy.seer.update_period = 64;  // frequent rebuilds → many decisions
  return cfg;
}

TEST(TraceRoundTrip, ReplayReproducesSchedulerDecisionsAndStats) {
  InstanceTrace trace;
  check::SchedTraceRecorder cap_a;
  sim::MachineConfig cfg = replay_config();
  cfg.events = &cap_a;
  sim::MachineStats sa;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    ASSERT_NE(a.policy_shared().seer(), nullptr);
    sa = a.run();
  }
  ASSERT_EQ(trace.lanes.size(), cfg.n_threads);
  for (const TraceLane& lane : trace.lanes) {
    EXPECT_EQ(lane.instances.size(), cfg.txs_per_thread);
    EXPECT_EQ(lane.thinks.size(), cfg.txs_per_thread);
  }

  check::SchedTraceRecorder cap_b;
  cfg.events = &cap_b;
  sim::MachineStats sb;
  {
    sim::Machine b(cfg, std::make_unique<TraceReplay>(trace));
    ASSERT_NE(b.policy_shared().seer(), nullptr);
    sb = b.run();
  }

  // The differential checker must see the identical decision stream: the
  // replayed run is the recorded run, not merely a similar one.
  ASSERT_FALSE(cap_a.decisions().empty()) << "run produced no rebuild decisions";
  EXPECT_EQ(check::diff_decisions(cap_a.decisions(), cap_b.decisions()), "");
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  EXPECT_EQ(sa.commits_by_mode, sb.commits_by_mode);
}

TEST(TraceRoundTrip, SerializationIsByteStableAndFileRoundTrips) {
  const sim::MachineConfig cfg = replay_config();
  InstanceTrace trace;
  sim::MachineStats sa;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    sa = a.run();
  }

  // to_json → parse → to_json is a fixed point.
  const std::string text = trace.to_json();
  const InstanceTrace reparsed = InstanceTrace::parse(parse_or_die(text), "<mem>");
  EXPECT_EQ(reparsed.to_json(), text);

  // File round trip through the registry (--workload TRACE.json semantics:
  // a raw trace auto-wraps as a replay generator).
  const std::string path = temp_path("roundtrip.trace.json");
  ASSERT_TRUE(write_trace_json(trace, path));
  const Desc d = resolve(path);
  EXPECT_EQ(d.name, "replay:genome");
  EXPECT_EQ(d.bench_txs_per_thread, cfg.txs_per_thread);
  sim::Machine b(cfg, d.make(cfg.n_threads));
  const sim::MachineStats sb = b.run();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.aborts_by_cause, sb.aborts_by_cause);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, ReplayUnderDifferentPolicyIsDeterministic) {
  sim::MachineConfig cfg = replay_config();
  InstanceTrace trace;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    (void)a.run();
  }
  // Same instance stream, different scheduling policy: not the recorded
  // run any more, but still a deterministic one.
  cfg.policy = {};
  cfg.policy.kind = rt::PolicyKind::kRtm;
  sim::Machine b1(cfg, std::make_unique<TraceReplay>(trace));
  const sim::MachineStats s1 = b1.run();
  sim::Machine b2(cfg, std::make_unique<TraceReplay>(trace));
  const sim::MachineStats s2 = b2.run();
  EXPECT_GT(s1.commits, 0u);
  EXPECT_EQ(s1.commits, s2.commits);
  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.aborts_by_cause, s2.aborts_by_cause);
}

TEST(TraceErrors, MalformedDocumentsNameTheBadKey) {
  const std::string rng = R"("rng": ["1", "2", "3", "4"])";
  const auto trace_doc = [&](const std::string& threads) {
    return R"({"version": 1, "workload": "w", "type_names": ["a"], "threads": [)" +
           threads + "]}";
  };

  expect_config_error(
      [] {
        (void)InstanceTrace::parse(
            parse_or_die(R"({"workload": "w", "type_names": ["a"], "threads": []})"),
            "<t>");
      },
      "version");
  expect_config_error(
      [] {
        (void)InstanceTrace::parse(
            parse_or_die(
                R"({"version": 7, "workload": "w", "type_names": ["a"], "threads": []})"),
            "<t>");
      },
      "unsupported trace version");
  // Lanes out of thread order.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(R"({"thread": 1, "thinks": [], "instances": []})")),
            "<t>");
      },
      "thread order");
  // RNG checkpoint with the wrong arity.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [{"t": 5, "rng": ["1", "2"]}], "instances": []})")),
            "<t>");
      },
      "4 hex words");
  // Instance type out of the declared vocabulary.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [], "instances": [{"type": 3, "duration": 10, "reads": [], "writes": [], )" +
                rng + "}]}")),
            "<t>");
      },
      "out of range");
  // Unsorted line ids.
  expect_config_error(
      [&] {
        (void)InstanceTrace::parse(
            parse_or_die(trace_doc(
                R"({"thread": 0, "thinks": [], "instances": [{"type": 0, "duration": 10, "reads": [9, 3], "writes": [], )" +
                rng + "}]}")),
            "<t>");
      },
      "sorted and unique");
}

TEST(TraceErrors, TruncatedAndMissingFilesFailCleanly) {
  // Record a real trace, then cut the file in half: the parse error must
  // carry the file path.
  sim::MachineConfig cfg = replay_config();
  cfg.txs_per_thread = 40;
  InstanceTrace trace;
  {
    sim::Machine a(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    (void)a.run();
  }
  const std::string full = trace.to_json();
  const std::string path = temp_path("truncated.trace.json");
  {
    std::ofstream out(path);
    out << full.substr(0, full.size() / 2);
  }
  expect_config_error([&] { (void)InstanceTrace::load(path); }, path);
  std::remove(path.c_str());

  expect_config_error(
      [&] { (void)InstanceTrace::load(temp_path("does_not_exist.trace.json")); },
      "does_not_exist");
}

// ------------------------------------------------------------- phased ----

std::string two_regime_params(const std::string& until_a = "0.5") {
  return R"({
    "think_mean": 100,
    "phases": [
      {"until": )" +
         until_a + R"(, "spec": {
        "regions": [{"name": "r", "lines": 256}],
        "types": [{"name": "t", "duration_mean": 100, "duration_jitter": 0,
                   "accesses": [{"region": "r", "reads": 2, "writes": 1}]}]}},
      {"until": 1.0, "spec": {
        "regions": [{"name": "r", "lines": 256}],
        "types": [{"name": "t", "duration_mean": 900, "duration_jitter": 0,
                   "accesses": [{"region": "r", "reads": 2, "writes": 1}]}]}}
    ]})";
}

TEST(Phased, RegimeSelectionFollowsProgress) {
  const Value params = parse_or_die(two_regime_params());
  const auto wl = PhasedWorkload::from_json(params, "<p>", "shift", 2);
  EXPECT_EQ(wl->n_types(), 1u);
  // Zero jitter makes the regime's duration_mean show through verbatim.
  util::Xoshiro256 rng(7);
  sim::TxInstance inst;
  for (const double progress : {0.0, 0.25, 0.499}) {
    wl->next(0, progress, rng, inst);
    EXPECT_EQ(inst.duration, 100u) << "progress " << progress;
  }
  for (const double progress : {0.5, 0.75, 1.0}) {
    wl->next(0, progress, rng, inst);
    EXPECT_EQ(inst.duration, 900u) << "progress " << progress;
  }
}

TEST(Phased, ConfigErrorsNameTheBadKey) {
  const auto phased = [](const std::string& params) {
    return [params] {
      (void)PhasedWorkload::from_json(parse_or_die(params), "<p>", "x", 2);
    };
  };
  expect_config_error(phased(two_regime_params("1.5")), "until");
  expect_config_error(phased(two_regime_params("0.0")), "until");
  expect_config_error(phased(R"({"phases": []})"), "phases");
  expect_config_error(phased(R"({"bogus": 1, "phases": []})"), "bogus");
  // Regimes must not smuggle their own think_mean.
  expect_config_error(
      phased(R"({"phases": [{"until": 1.0, "spec": {"think_mean": 5,
        "regions": [{"name": "r", "lines": 8}],
        "types": [{"name": "t", "duration_mean": 10, "accesses": []}]}}]})"),
      "think_mean");
  // Last regime must reach progress 1.0.
  expect_config_error(
      phased(R"({"phases": [{"until": 0.5, "spec": {
        "regions": [{"name": "r", "lines": 8}],
        "types": [{"name": "t", "duration_mean": 10, "accesses": []}]}}]})"),
      "1.0");
  // Type vocabulary must agree across regimes.
  expect_config_error(
      phased(R"({"phases": [
        {"until": 0.5, "spec": {
          "regions": [{"name": "r", "lines": 8}],
          "types": [{"name": "a", "duration_mean": 10, "accesses": []}]}},
        {"until": 1.0, "spec": {
          "regions": [{"name": "r", "lines": 8}],
          "types": [{"name": "b", "duration_mean": 10, "accesses": []}]}}]})"),
      "phase 0");
}

// ---------------------------------------------------------------- bst ----

TEST(Bst, InstancesRespectTreeGeometry) {
  BstWorkload::Config cfg;
  cfg.keys = 512;
  cfg.base_cost = 150;
  cfg.node_cost = 60;
  BstWorkload wl(cfg, "bst-test");
  EXPECT_EQ(wl.n_types(), 3u);

  util::Xoshiro256 rng(11);
  sim::TxInstance inst;
  bool saw_mutation = false;
  bool saw_contains = false;
  for (int i = 0; i < 300; ++i) {
    wl.next(0, 0.0, rng, inst);
    // Reads are the root→key search path: sorted, unique, non-empty.
    ASSERT_FALSE(inst.reads.empty());
    for (std::size_t j = 1; j < inst.reads.size(); ++j) {
      ASSERT_LT(inst.reads[j - 1], inst.reads[j]);
    }
    // Duration prices the traversal: base + node_cost per path node.
    EXPECT_EQ(inst.duration,
              cfg.base_cost + cfg.node_cost * inst.reads.size());
    if (inst.type == BstWorkload::kContains) {
      saw_contains = true;
      EXPECT_TRUE(inst.writes.empty());
    } else {
      saw_mutation = true;
      // Mutations write the node and its parent link — both on the path.
      ASSERT_FALSE(inst.writes.empty());
      ASSERT_LE(inst.writes.size(), 2u);
      for (const std::uint32_t w : inst.writes) {
        EXPECT_TRUE(std::find(inst.reads.begin(), inst.reads.end(), w) !=
                    inst.reads.end())
            << "write target " << w << " not on the search path";
      }
    }
  }
  EXPECT_TRUE(saw_mutation);
  EXPECT_TRUE(saw_contains);
}

TEST(Bst, TreeShapeIsDeterministicPerSeed) {
  BstWorkload::Config cfg;
  cfg.keys = 256;
  const BstWorkload a(cfg, "a");
  const BstWorkload b(cfg, "b");
  cfg.shape_seed = 2;
  const BstWorkload c(cfg, "c");
  bool differs = false;
  for (std::uint32_t k = 0; k < cfg.keys; ++k) {
    EXPECT_EQ(a.depth(k), b.depth(k));
    EXPECT_EQ(a.parent(k), b.parent(k));
    if (a.depth(k) != c.depth(k)) differs = true;
  }
  EXPECT_TRUE(differs) << "shape_seed had no effect on the tree";
}

TEST(Bst, ConfigErrorsNameTheBadKey) {
  const auto bst = [](const std::string& params) {
    return [params] {
      (void)BstWorkload::from_json(parse_or_die(params), "<b>", "x");
    };
  };
  expect_config_error(bst(R"({"keys": 1})"), "keys");
  expect_config_error(bst(R"({"mix": {"add": 0, "remove": 0, "contains": 0}})"),
                      "mix");
  expect_config_error(bst(R"({"mix": {"lookup": 1}})"), "lookup");
  expect_config_error(bst(R"({"base_cost": 0})"), "base_cost");
  expect_config_error(bst(R"({"keys": "many"})"), "keys");
}

// ----------------------------------------------------- config front-end ----

TEST(Config, NegativeCasesNameTheBadKey) {
  const auto cfg = [](const std::string& text) {
    return [text] { (void)from_config_json(parse_or_die(text), "<c>"); };
  };
  expect_config_error(cfg(R"({"generator": "nope"})"), "unknown generator");
  expect_config_error(cfg(R"({"generator": "nope"})"), "genome");  // lists known
  expect_config_error(cfg(R"({})"), "generator");
  expect_config_error(cfg(R"({"generator": "bst", "workload": "x"})"), "workload");
  expect_config_error(cfg(R"({"generator": "genome", "params": {"keys": 4}})"),
                      "takes no params");
  expect_config_error(cfg(R"({"generator": "bst", "txs_per_thread": 0})"),
                      "txs_per_thread");
  expect_config_error(cfg(R"({"generator": "bst", "params": 7})"), "params");
  expect_config_error(cfg(R"({"generator": "spec", "params": {}})"), "regions");
  expect_config_error(
      cfg(R"({"generator": "phased", "params": {"phases": [{"until": 2.0,
          "spec": {"regions": [{"name": "r", "lines": 8}],
                   "types": [{"name": "t", "duration_mean": 10,
                              "accesses": []}]}}]}})"),
      "until");
  expect_config_error([] { (void)find("hashmap"); }, "unknown generator");
  expect_config_error(
      [] { (void)from_config(temp_path("missing_config.json")); },
      "missing_config");
}

TEST(Config, SpecGeneratorBuildsARunnableWorkload) {
  const Value doc = parse_or_die(R"({
    "generator": "spec",
    "name": "mini",
    "txs_per_thread": 123,
    "params": {
      "regions": [{"name": "tab", "lines": 128, "zipf_skew": 0.7}],
      "types": [
        {"name": "get", "duration_mean": 200,
         "accesses": [{"region": "tab", "reads": 3}]},
        {"name": "put", "duration_mean": 300,
         "accesses": [{"region": "tab", "reads": 1, "writes": 2}]}
      ],
      "mix": [3, 1]
    }})");
  const Desc d = from_config_json(doc, "<c>");
  EXPECT_EQ(d.name, "mini");
  EXPECT_EQ(d.bench_txs_per_thread, 123u);
  const auto wl = d.make(2);
  ASSERT_EQ(wl->n_types(), 2u);
  EXPECT_EQ(wl->type_name(0), "get");
  EXPECT_EQ(wl->type_name(1), "put");

  sim::MachineConfig mcfg;
  mcfg.n_threads = 2;
  mcfg.txs_per_thread = 200;
  sim::Machine m(mcfg, d.make(mcfg.n_threads));
  const sim::MachineStats s = m.run();
  EXPECT_EQ(s.commits, 400u);
}

TEST(Config, TopologySectionParsesAndDerivesPhysicalCores) {
  const Value doc = parse_or_die(R"({
    "generator": "bst",
    "topology": {"sockets": 2, "cores_per_socket": 16, "smt_per_core": 2}
  })");
  const Desc d = from_config_json(doc, "<c>");
  ASSERT_TRUE(d.topology != nullptr);
  EXPECT_EQ(d.topology->sockets, 2u);
  EXPECT_EQ(d.topology->cores_per_socket, 16u);
  EXPECT_EQ(d.topology->smt_per_core, 2u);
  EXPECT_EQ(d.topology->physical_cores(), 32u);
  EXPECT_EQ(d.topology->hw_threads(), 64u);
  // A redundant-but-consistent physical_cores cross-check is accepted.
  const Value ok = parse_or_die(R"({
    "generator": "bst",
    "topology": {"sockets": 2, "cores_per_socket": 16, "physical_cores": 32}
  })");
  EXPECT_TRUE(from_config_json(ok, "<c>").topology != nullptr);
  // No topology section leaves the optional empty (the flat legacy path).
  EXPECT_TRUE(from_config_json(parse_or_die(R"({"generator": "bst"})"), "<c>")
                  .topology == nullptr);
}

TEST(Config, TopologyNegativesNameTheBadKey) {
  const auto cfg = [](const std::string& topo) {
    return [topo] {
      (void)from_config_json(
          parse_or_die(R"({"generator": "bst", "topology": )" + topo + "}"),
          "<c>");
    };
  };
  // The silent-default regression: a physical_cores that disagrees with
  // sockets x cores_per_socket must be a named error, not a shrug.
  expect_config_error(cfg(R"({"sockets": 2, "cores_per_socket": 16,
                              "physical_cores": 8})"),
                      "physical_cores");
  expect_config_error(cfg(R"({"sockets": 0})"), "sockets");
  expect_config_error(cfg(R"({"cores_per_socket": 0})"), "cores_per_socket");
  expect_config_error(cfg(R"({"smt_per_core": 0})"), "smt_per_core");
  expect_config_error(cfg(R"({"numa_nodes": 2})"), "numa_nodes");  // unknown
  expect_config_error(cfg(R"({"sockets": 1024, "cores_per_socket": 1024})"),
                      "exceeds the supported maximum");
}

TEST(Config, ResolveDispatchesOnJsonSuffix) {
  // A registered name resolves directly...
  EXPECT_EQ(resolve("yada").name, "yada");
  // ...and a .json path goes through from_config (here: a bad one, to prove
  // the dispatch happened).
  expect_config_error([] { (void)resolve("no_such_file.json"); },
                      "no_such_file.json");
}


// ------------------------------------------------ generator contract -----

bool strictly_increasing(const std::vector<std::uint32_t>& lines) {
  return std::adjacent_find(lines.begin(), lines.end(),
                            [](std::uint32_t a, std::uint32_t b) { return a >= b; }) ==
         lines.end();
}

// sim::sorted_intersects gallops through line sets with binary searches, which
// is only exact on sorted, unique input — the TxInstance contract. Every
// registered generator must keep it, on every thread and across progress.
TEST(GeneratorContract, EveryRegisteredGeneratorEmitsSortedUniqueLines) {
  const std::string trace_path = temp_path("contract.trace.json");
  {
    sim::MachineConfig cfg = replay_config();
    cfg.txs_per_thread = 50;
    InstanceTrace trace;
    sim::Machine m(cfg, std::make_unique<InstanceTraceRecorder>(
                            find("genome").make(cfg.n_threads), cfg.n_threads,
                            &trace));
    (void)m.run();
    ASSERT_TRUE(write_trace_json(trace, trace_path));
  }
  // Params for the generators that need some; the STAMP names take none.
  const std::vector<std::pair<std::string, std::string>> params = {
      {"spec", R"({"regions": [{"name": "hot", "lines": 64, "zipf_skew": 0.9},
                               {"name": "cold", "lines": 4096}],
                   "types": [{"name": "r", "duration_mean": 300,
                              "accesses": [{"region": "hot", "reads": 6},
                                           {"region": "cold", "reads": 20}]},
                             {"name": "w", "duration_mean": 400,
                              "accesses": [{"region": "hot", "reads": 3,
                                            "writes": 5}]}],
                   "mix": [1, 1]})"},
      {"phased", R"({"phases": [
          {"until": 0.5, "spec": {"regions": [{"name": "a", "lines": 32}],
           "types": [{"name": "u", "duration_mean": 200,
                      "accesses": [{"region": "a", "reads": 8, "writes": 8}]}]}},
          {"until": 1.0, "spec": {"regions": [{"name": "a", "lines": 32,
                                                 "zipf_skew": 0.9}],
           "types": [{"name": "u", "duration_mean": 200,
                      "accesses": [{"region": "a", "reads": 20, "writes": 4}]}]}}]})"},
      {"bst", R"({"keys": 1024, "key_skew": 0.8})"},
      {"trace-replay", R"({"path": ")" + trace_path + R"("})"},
  };
  constexpr std::size_t kThreads = 4;
  constexpr int kInstances = 200;
  for (const std::string& name : Registry::global().names()) {
    const auto it = std::find_if(params.begin(), params.end(),
                                 [&](const auto& p) { return p.first == name; });
    const Desc d = it == params.end()
                       ? find(name)
                       : from_config_json(parse_or_die(R"({"generator": ")" + name +
                                                       R"(", "params": )" +
                                                       it->second + "}"),
                                          "<contract>");
    const auto gen = d.make(kThreads);
    util::Xoshiro256 rng(17);
    sim::TxInstance inst;
    std::size_t sampled = 0;
    for (core::ThreadId t = 0; t < kThreads; ++t) {
      gen->init(t);
      for (int i = 0; i < kInstances && !gen->exhausted(t); ++i) {
        (void)gen->think_time(t, rng);
        gen->next(t, static_cast<double>(i) / kInstances, rng, inst);
        ++sampled;
        ASSERT_TRUE(strictly_increasing(inst.reads))
            << name << " thread " << t << " instance " << i << ": reads";
        ASSERT_TRUE(strictly_increasing(inst.writes))
            << name << " thread " << t << " instance " << i << ": writes";
      }
    }
    EXPECT_GT(sampled, 0u) << name;
  }
  std::remove(trace_path.c_str());
}

// ------------------------------------------------- sampling exactness ----
//
// SpecWorkload::next draws Zipf ranks through a guide table and
// canonicalizes each region's lines on its own (DESIGN.md §11, "Generator
// cost"). Both must reproduce what a binary search over the CDF and one
// sort + unique of each whole side give, draw for draw.

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string replay_hint(std::uint64_t seed) {
  return "replay with: SEER_PROPERTY_SEED=" + std::to_string(seed) +
         " ./build/tests/workload_test";
}

// The first rank whose CDF entry is >= u, or the last rank.
std::uint64_t binary_search_rank(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0;
  std::size_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(ZipfGuide, LookupMatchesBinarySearchAtAndBetweenEveryCdfEntry) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t seed = master != 0 ? master : 0x21FFu;
  util::Xoshiro256 rng(seed);
  struct Case {
    std::uint64_t n;
    double skew;
  };
  std::vector<Case> cases;
  for (const std::uint64_t n : {1u, 2u, 16u, 2048u}) {
    for (const double skew : {0.3, 0.6, 0.8, 0.99, 1.2}) cases.push_back({n, skew});
  }
  // Steep enough that the tail's increments vanish below double precision:
  // runs of equal CDF entries (plateaus).
  cases.push_back({65536, 4.0});
  bool saw_plateau = false;
  for (const Case& c : cases) {
    const util::Zipf z(c.n, c.skew);
    const std::vector<double>& cdf = z.cdf();
    const std::string where = "n=" + std::to_string(c.n) +
                              " skew=" + std::to_string(c.skew) + " " +
                              replay_hint(seed);
    const auto check = [&](double u) {
      if (!(u >= 0.0 && u < 1.0)) return;
      ASSERT_EQ(z.rank_of(u), binary_search_rank(cdf, u)) << "u=" << u << " " << where;
    };
    for (std::size_t k = 0; k < cdf.size(); ++k) {
      check(cdf[k]);
      check(std::nextafter(cdf[k], 0.0));
      check(std::nextafter(cdf[k], 2.0));
      if (k > 0 && cdf[k] == cdf[k - 1]) saw_plateau = true;
    }
    // The guide's own bucket edges j/n and their neighbours.
    for (std::uint64_t j = 0; j < c.n; ++j) {
      const double edge = static_cast<double>(j) / static_cast<double>(c.n);
      check(edge);
      check(std::nextafter(edge, 0.0));
      check(std::nextafter(edge, 2.0));
    }
    check(0.0);
    check(std::nextafter(1.0, 0.0));
    for (int i = 0; i < 20000; ++i) check(rng.uniform01());
    // sample() is rank_of(uniform01()): one draw, the same rank.
    util::Xoshiro256 a(seed ^ c.n);
    util::Xoshiro256 b(seed ^ c.n);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(z.sample(a), binary_search_rank(cdf, b.uniform01())) << where;
    }
    EXPECT_EQ(a.state(), b.state()) << where;
  }
  EXPECT_TRUE(saw_plateau) << "no case exercised equal CDF entries";
}

// The sampler as it was before the guide table and per-region
// canonicalization: binary-searched Zipf ranks, every line drawn in access
// order, one sort + unique per side.
class ReferenceSampler {
 public:
  ReferenceSampler(const stamp::WorkloadSpec& spec, std::size_t n_threads)
      : spec_(spec) {
    std::uint64_t base = 0;
    for (const stamp::Region& r : spec_.regions) {
      base_.push_back(base);
      base += static_cast<std::uint64_t>(r.lines) * (r.per_thread ? n_threads : 1);
      cdf_.push_back(r.zipf_skew > 0.0 && r.lines > 1
                         ? util::Zipf(r.lines, r.zipf_skew).cdf()
                         : std::vector<double>{});
    }
  }

  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            sim::TxInstance& out) const {
    const stamp::Phase* phase = &spec_.phases.back();
    double acc = 0.0;
    for (const stamp::Phase& p : spec_.phases) {
      acc += p.fraction;
      if (progress < acc) {
        phase = &p;
        break;
      }
    }
    double total = 0.0;
    for (double w : phase->mix) total += w;
    double pick = rng.uniform01() * total;
    std::size_t type = 0;
    for (; type + 1 < phase->mix.size(); ++type) {
      pick -= phase->mix[type];
      if (pick < 0.0) break;
    }
    const stamp::TxTypeSpec& ts = spec_.types[type];
    out.type = static_cast<core::TxTypeId>(type);
    out.duration = static_cast<std::uint64_t>(
        static_cast<double>(ts.duration_mean) *
        (1.0 - ts.duration_jitter + 2.0 * ts.duration_jitter * rng.uniform01()));
    if (out.duration == 0) out.duration = 1;
    out.reads.clear();
    out.writes.clear();
    for (const stamp::RegionAccess& a : ts.accesses) {
      for (int i = 0; i < a.reads; ++i) {
        out.reads.push_back(line(a.region, thread, rng));
      }
      for (int i = 0; i < a.writes; ++i) {
        out.writes.push_back(line(a.region, thread, rng));
      }
    }
    for (auto* v : {&out.reads, &out.writes}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
  }

 private:
  std::uint32_t line(std::uint16_t region, core::ThreadId thread,
                     util::Xoshiro256& rng) const {
    const stamp::Region& r = spec_.regions[region];
    const std::uint64_t within = cdf_[region].empty()
                                     ? rng.below(r.lines)
                                     : binary_search_rank(cdf_[region], rng.uniform01());
    const std::uint64_t slice = r.per_thread ? std::uint64_t{thread} * r.lines : 0;
    return static_cast<std::uint32_t>(base_[region] + slice + within);
  }

  stamp::WorkloadSpec spec_;
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<double>> cdf_;
};

// Drives `gen` and `ref(progress)` on every thread from equal seeds and
// requires equal instances and equal RNG states after every call.
template <typename RefFor>
void expect_matches_reference(Generator& gen, RefFor&& ref, std::size_t n_threads,
                              int instances, const std::string& where) {
  for (std::size_t th = 0; th < n_threads; ++th) {
    const auto id = static_cast<core::ThreadId>(th);
    util::Xoshiro256 rng_a(0x5EED + th);
    util::Xoshiro256 rng_b(0x5EED + th);
    sim::TxInstance got;
    sim::TxInstance want;
    for (int i = 0; i < instances; ++i) {
      const double progress = static_cast<double>(i) / instances;
      gen.next(id, progress, rng_a, got);
      ref(progress).next(id, progress, rng_b, want);
      const std::string at = where + " thread=" + std::to_string(th) +
                             " i=" + std::to_string(i);
      ASSERT_EQ(got.type, want.type) << at;
      ASSERT_EQ(got.duration, want.duration) << at;
      ASSERT_EQ(got.reads, want.reads) << at;
      ASSERT_EQ(got.writes, want.writes) << at;
      ASSERT_EQ(rng_a.state(), rng_b.state()) << at << ": draw counts differ";
    }
  }
}

TEST(SamplingExactness, EveryStandInMatchesTheReference) {
  for (const std::string& name : stamp_names()) {
    for (const std::size_t n_threads : {1u, 3u, 8u}) {
      const auto gen = find(name).make(n_threads);
      const auto* spec_wl = dynamic_cast<const stamp::SpecWorkload*>(gen.get());
      ASSERT_NE(spec_wl, nullptr) << name;
      const ReferenceSampler ref(spec_wl->spec(), n_threads);
      expect_matches_reference(
          *gen, [&](double) -> const ReferenceSampler& { return ref; }, n_threads, 300,
          name + " n_threads=" + std::to_string(n_threads));
    }
  }
}

TEST(SamplingExactness, PhasedRegimesMatchTheReference) {
  const Value params = parse_or_die(R"({"phases": [
      {"until": 0.4, "spec": {
       "regions": [{"name": "a", "lines": 300, "zipf_skew": 0.9},
                   {"name": "b", "lines": 70000, "per_thread": true}],
       "types": [{"name": "u", "duration_mean": 200,
                  "accesses": [{"region": "b", "reads": 40, "writes": 3},
                               {"region": "a", "reads": 8, "writes": 8}]}]}},
      {"until": 1.0, "spec": {
       "regions": [{"name": "a", "lines": 300},
                   {"name": "b", "lines": 70000, "per_thread": true}],
       "types": [{"name": "u", "duration_mean": 200,
                  "accesses": [{"region": "a", "reads": 20, "writes": 4},
                               {"region": "b", "reads": 2}]}]}}]})");
  const auto plan = PhasedWorkload::parse(params, "<p>", "phased");
  constexpr std::size_t kThreads = 3;
  PhasedWorkload gen(plan, kThreads);
  std::vector<ReferenceSampler> refs;
  for (const auto& regime : plan->regimes) refs.emplace_back(regime.spec->spec, kThreads);
  expect_matches_reference(
      gen,
      [&](double progress) -> const ReferenceSampler& {
        return refs[gen.regime_index(progress)];
      },
      kThreads, 300, "phased");
}

// A random "spec" config. Region sizes and per-group sample counts straddle
// the bitmap (4096 lines) and insertion-sort (32 samples) cut-offs; types
// touch regions repeatedly and out of index order, and some regions are
// per-thread. Skewed regions stay small so their Zipf tables do.
std::string random_spec_config(util::Xoshiro256& rng) {
  static constexpr std::uint64_t kLines[] = {1,    2,     63,    64,      65,
                                             4095, 4096,  4097,  8192,    65536,
                                             65537, 1u << 20, (1u << 24) + 3};
  static constexpr std::uint64_t kCounts[] = {0, 1, 2, 5, 16, 31, 32, 33, 40, 64, 100};
  static constexpr double kSkews[] = {0.3, 0.6, 0.99, 1.2};
  const auto pick = [&rng](const auto& table) {
    return table[rng.below(std::size(table))];
  };
  const std::size_t n_regions = 1 + rng.below(6);
  std::string regions;
  for (std::size_t r = 0; r < n_regions; ++r) {
    const std::uint64_t lines = pick(kLines);
    const bool skewed = lines <= 8192 && rng.below(2) == 0;
    regions += std::string(r == 0 ? "" : ", ") + R"({"name": "r)" + std::to_string(r) +
               R"(", "lines": )" + std::to_string(lines) +
               (skewed ? R"(, "zipf_skew": )" + std::to_string(pick(kSkews)) : "") +
               (rng.below(3) == 0 ? R"(, "per_thread": true)" : "") + "}";
  }
  const std::size_t n_types = 1 + rng.below(4);
  std::string types;
  std::string mix;
  for (std::size_t t = 0; t < n_types; ++t) {
    std::string accesses;
    const std::size_t n_acc = 1 + rng.below(6);
    for (std::size_t a = 0; a < n_acc; ++a) {
      accesses += std::string(a == 0 ? "" : ", ") + R"({"region": "r)" +
                  std::to_string(rng.below(n_regions)) + R"(", "reads": )" +
                  std::to_string(pick(kCounts)) + R"(, "writes": )" +
                  std::to_string(pick(kCounts)) + "}";
    }
    types += std::string(t == 0 ? "" : ", ") + R"({"name": "t)" + std::to_string(t) +
             R"(", "duration_mean": )" + std::to_string(100 + rng.below(2000)) +
             R"(, "accesses": [)" + accesses + "]}";
    mix += std::string(t == 0 ? "" : ", ") + std::to_string(1 + rng.below(5));
  }
  return R"({"generator": "spec", "params": {"regions": [)" + regions +
         R"(], "types": [)" + types + R"(], "mix": [)" + mix + "]}}";
}

TEST(SamplingExactness, RandomSpecsMatchTheReference) {
  const std::uint64_t master = env_u64("SEER_PROPERTY_SEED", 0);
  const std::uint64_t iters = master != 0 ? 1 : env_u64("SEER_PROPERTY_ITERS", 25);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0xC0DE000u + i;
    util::Xoshiro256 rng(seed);
    const std::string config = random_spec_config(rng);
    const std::size_t n_threads = 1 + rng.below(4);
    const auto gen = from_config_json(parse_or_die(config), "<random>").make(n_threads);
    const auto* spec_wl = dynamic_cast<const stamp::SpecWorkload*>(gen.get());
    ASSERT_NE(spec_wl, nullptr);
    const ReferenceSampler ref(spec_wl->spec(), n_threads);
    expect_matches_reference(
        *gen, [&](double) -> const ReferenceSampler& { return ref; }, n_threads, 60,
        "seed " + std::to_string(seed) + " (" + replay_hint(seed) + ")\n" + config);
    if (HasFatalFailure()) return;
  }
}

// The fixed shapes the random sweep may miss: the same region twice in one
// type (vacation's delete_customer pattern is region 6 then region 0), a
// radix region whose group crosses the insertion-sort cut-off only when its
// two accesses add up, and a per-thread radix region.
TEST(SamplingExactness, RepeatedAndOutOfOrderRegionsMatchTheReference) {
  const Value doc = parse_or_die(R"({"generator": "spec", "params": {
    "regions": [{"name": "small", "lines": 100, "zipf_skew": 0.7},
                {"name": "big", "lines": 100000},
                {"name": "mine", "lines": 5000, "per_thread": true}],
    "types": [{"name": "x", "duration_mean": 100,
               "accesses": [{"region": "big", "reads": 20, "writes": 20},
                            {"region": "small", "reads": 5, "writes": 1},
                            {"region": "big", "reads": 20, "writes": 1},
                            {"region": "mine", "reads": 33}]},
              {"name": "y", "duration_mean": 100,
               "accesses": [{"region": "mine", "writes": 3},
                            {"region": "small", "reads": 40}]}]}})");
  constexpr std::size_t kThreads = 4;
  const auto gen = from_config_json(doc, "<fixed>").make(kThreads);
  const ReferenceSampler ref(dynamic_cast<const stamp::SpecWorkload&>(*gen).spec(),
                             kThreads);
  expect_matches_reference(
      *gen, [&](double) -> const ReferenceSampler& { return ref; }, kThreads, 400,
      "fixed");
}

// ------------------------------------------------------- line-id space ----

TEST(LineSpace, LayoutPastTwoToThe32IsANamedError) {
  stamp::WorkloadSpec spec;
  spec.name = "wide";
  spec.regions = {{.name = "slice", .lines = (1u << 31) + 1, .per_thread = true},
                  {.name = "tail", .lines = 8}};
  spec.types = {{.name = "t", .accesses = {{.region = 0, .reads = 1}}}};
  const auto compiled = std::make_shared<const stamp::CompiledSpec>(spec);
  EXPECT_NO_THROW((void)stamp::SpecWorkload(compiled, 1));
  // Two slices of 2^31 + 1 lines plus the tail: 4294967306 lines.
  expect_config_error([&] { (void)stamp::SpecWorkload(compiled, 2); }, "\"slice\"");
  expect_config_error([&] { (void)stamp::SpecWorkload(compiled, 2); }, "4294967306");
}

TEST(LineSpace, ExactlyTwoToThe32LinesFitWithoutWrapping) {
  stamp::WorkloadSpec spec;
  spec.name = "full";
  spec.regions = {{.name = "bulk", .lines = 0xFFFFFFFFu - 4095},
                  {.name = "top", .lines = 4096}};
  spec.types = {{.name = "t",
                 .accesses = {{.region = 1, .reads = 2, .writes = 64},
                              {.region = 0, .reads = 40}}}};
  stamp::SpecWorkload wl(std::move(spec), 1);
  util::Xoshiro256 rng(9);
  sim::TxInstance inst;
  for (int i = 0; i < 50; ++i) {
    wl.next(0, 0.0, rng, inst);
    ASSERT_FALSE(inst.writes.empty());
    EXPECT_GE(inst.writes.front(), 0xFFFFFFFFu - 4095) << "a top-region id wrapped";
    EXPECT_GE(inst.reads.back(), 0xFFFFFFFFu - 4095) << "reads end in the top region";
    EXPECT_LT(inst.reads.front(), 0xFFFFFFFFu - 4095);
  }
}

TEST(LineSpace, ConfigFrontEndRejectsWrappingSpecs) {
  // Shared regions past 2^32 lines fail at config-parse time...
  expect_config_error(
      [] {
        (void)from_config_json(parse_or_die(R"({"generator": "spec", "params": {
          "regions": [{"name": "a", "lines": 4294967295}, {"name": "b", "lines": 2}],
          "types": [{"name": "t", "duration_mean": 10,
                     "accesses": [{"region": "b", "reads": 1}]}]}})"),
                               "<c>");
      },
      "region \"b\"");
  // ...per-thread ones when a thread count takes them there.
  const Desc d = from_config_json(parse_or_die(R"({"generator": "spec", "params": {
    "regions": [{"name": "private", "lines": 2147483649, "per_thread": true}],
    "types": [{"name": "t", "duration_mean": 10,
               "accesses": [{"region": "private", "reads": 1}]}]}})"),
                                  "<c>");
  EXPECT_NO_THROW((void)d.make(1));
  expect_config_error([&] { (void)d.make(2); }, "region \"private\"");
}

TEST(Config, TooManyAccessesPerTypeIsNamed) {
  std::string accesses;
  for (int i = 0; i < 7; ++i) {
    accesses += std::string(i == 0 ? "" : ", ") + R"({"region": "r", "reads": 1})";
  }
  expect_config_error(
      [&] {
        (void)from_config_json(
            parse_or_die(R"({"generator": "spec", "params": {
              "regions": [{"name": "r", "lines": 8}],
              "types": [{"name": "t", "duration_mean": 10, "accesses": [)" +
                         accesses + "]}]}}"),
            "<c>");
      },
      "accesses");
}

// ---------------------------------------------------------- concurrency ----

// Order-sensitive digest of a thread's instance stream.
std::uint64_t stream_digest(Generator& gen, core::ThreadId thread, std::uint64_t seed,
                            int instances) {
  util::Xoshiro256 rng(seed);
  sim::TxInstance inst;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (int i = 0; i < instances; ++i) {
    gen.next(thread, static_cast<double>(i) / instances, rng, inst);
    mix(inst.type);
    mix(inst.duration);
    for (auto l : inst.reads) mix(l);
    mix(0xFFFF'FFFF'FFFFull);
    for (auto l : inst.writes) mix(l);
  }
  return h;
}

// Compiled sampling tables are shared by every make() of a Desc, and one
// generator serves several ThreadIds at once on the real-thread path: four
// threads making generators from one Desc, and four threads driving one
// generator's four ThreadIds, must reproduce a serial run exactly.
TEST(GeneratorConcurrency, SharedDescAndSharedGeneratorMatchASerialRun) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kInstances = 150;
  for (const std::string& name : {std::string("yada"), std::string("vacation-high"),
                                  std::string("kmeans-low")}) {
    const Desc desc = find(name);
    const auto own_generator = [&](std::size_t w) {
      const auto gen = desc.make(kWorkers);
      return stream_digest(*gen, static_cast<core::ThreadId>(w), 100 + w, kInstances);
    };
    std::vector<std::uint64_t> serial(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) serial[w] = own_generator(w);

    std::vector<std::uint64_t> made(kWorkers);
    std::vector<std::uint64_t> shared(kWorkers);
    const auto one = desc.make(kWorkers);
    {
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&, w] { made[w] = own_generator(w); });
      }
      for (auto& t : pool) t.join();
    }
    {
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&, w] {
          shared[w] = stream_digest(*one, static_cast<core::ThreadId>(w), 100 + w,
                                    kInstances);
        });
      }
      for (auto& t : pool) t.join();
    }
    EXPECT_EQ(made, serial) << name << ": generators made concurrently from one Desc";
    EXPECT_EQ(shared, serial) << name << ": one generator driven from four threads";
  }
}

}  // namespace
}  // namespace seer::workload
