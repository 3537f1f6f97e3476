// Tests for the machine simulator: event queue, simulated locks, conflict
// predicates, and end-to-end Machine behaviour on synthetic workloads with
// controlled conflict/capacity structure (including failure injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/sim_lock.hpp"
#include "sim/workload.hpp"
#include "stamp/workloads.hpp"

namespace seer::sim {
namespace {

// --------------------------------------------------------- EventQueue ------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  Event a;
  a.time = 30;
  Event b;
  b.time = 10;
  Event c;
  c.time = 20;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 20u);
  EXPECT_EQ(q.pop().time, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    Event e;
    e.time = 5;
    e.thread = i;
    q.push(e);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().thread, i) << "FIFO among same-time events";
  }
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(Event{});
  q.push(Event{});
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

// ------------------------------------------------------------ SimLock ------

TEST(SimLock, TryAcquireAndRelease) {
  SimLock l;
  EXPECT_FALSE(l.is_locked());
  EXPECT_TRUE(l.try_acquire(3));
  EXPECT_TRUE(l.is_locked());
  EXPECT_EQ(l.owner(), 3u);
  EXPECT_FALSE(l.try_acquire(4));
  const auto out = l.release(3);
  EXPECT_FALSE(out.granted.has_value());
  EXPECT_FALSE(l.is_locked());
}

TEST(SimLock, FifoHandover) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.enqueue(1);
  l.enqueue(2);
  auto out = l.release(0);
  ASSERT_TRUE(out.granted.has_value());
  EXPECT_EQ(*out.granted, 1u);
  EXPECT_TRUE(l.is_locked()) << "handover keeps the lock held";
  EXPECT_TRUE(out.notified.empty()) << "no free notification on handover";
  out = l.release(1);
  EXPECT_EQ(*out.granted, 2u);
  out = l.release(2);
  EXPECT_FALSE(out.granted.has_value());
}

TEST(SimLock, SubscribersNotifiedOnlyWhenFree) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.subscribe_free(5, 42);
  l.subscribe_free(6, 43);
  l.enqueue(1);
  auto out = l.release(0);  // handover to 1 — no notifications
  EXPECT_TRUE(out.notified.empty());
  out = l.release(1);  // now actually free
  ASSERT_EQ(out.notified.size(), 2u);
  EXPECT_EQ(out.notified[0].thread, 5u);
  EXPECT_EQ(out.notified[0].gen, 42u);
  EXPECT_EQ(out.notified[1].thread, 6u);
}

TEST(SimLock, SubscriptionsAreOneShot) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.subscribe_free(5, 1);
  (void)l.release(0);
  ASSERT_TRUE(l.try_acquire(0));
  const auto out = l.release(0);
  EXPECT_TRUE(out.notified.empty());
}

TEST(SimLock, CancelWaitRemovesFromQueue) {
  SimLock l;
  ASSERT_TRUE(l.try_acquire(0));
  l.enqueue(1);
  l.enqueue(2);
  l.cancel_wait(1);
  const auto out = l.release(0);
  EXPECT_EQ(*out.granted, 2u);
}

// --------------------------------------------------------- TxInstance ------

TxInstance make_inst(std::vector<std::uint32_t> reads,
                     std::vector<std::uint32_t> writes) {
  TxInstance i;
  i.reads = std::move(reads);
  i.writes = std::move(writes);
  i.duration = 100;
  return i;
}

TEST(TxInstance, FootprintCountsUnion) {
  EXPECT_EQ(make_inst({1, 2, 3}, {3, 4}).footprint_lines(), 4u);
  EXPECT_EQ(make_inst({}, {}).footprint_lines(), 0u);
  EXPECT_EQ(make_inst({1, 2}, {}).footprint_lines(), 2u);
  EXPECT_EQ(make_inst({}, {7}).footprint_lines(), 1u);
  EXPECT_EQ(make_inst({1, 2, 3}, {1, 2, 3}).footprint_lines(), 3u);
}

TEST(TxInstance, WriteConflictSemantics) {
  const auto w_hits_r = make_inst({}, {5});
  const auto reader = make_inst({5}, {});
  EXPECT_TRUE(write_conflicts(w_hits_r, reader));
  EXPECT_FALSE(write_conflicts(reader, w_hits_r)) << "readers do not invalidate";
  EXPECT_TRUE(instances_conflict(w_hits_r, reader));
  EXPECT_TRUE(instances_conflict(reader, w_hits_r)) << "symmetric";
}

TEST(TxInstance, DisjointFootprintsNeverConflict) {
  const auto a = make_inst({1, 2}, {3});
  const auto b = make_inst({4, 5}, {6});
  EXPECT_FALSE(instances_conflict(a, b));
}

TEST(TxInstance, WriteWriteConflicts) {
  const auto a = make_inst({}, {10, 20});
  const auto b = make_inst({}, {20, 30});
  EXPECT_TRUE(instances_conflict(a, b));
}

// -------------------------------------------------- sorted_intersects -----

bool reference_intersects(const std::vector<std::uint32_t>& a,
                          const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return !common.empty();
}

// Up to `n` distinct line ids from [lo, lo + span), sorted.
std::vector<std::uint32_t> random_lines(util::Xoshiro256& rng, std::size_t n,
                                        std::uint32_t lo, std::uint32_t span) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = lo + static_cast<std::uint32_t>(rng.below(span));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// Random sorted-unique pairs whose size ratio runs from 1 to 64, so both the
// merge and the galloping branch run, over universes from dense (most pairs
// intersect) to sparse (few do), with offset ranges that partly overlap.
// SEER_PROPERTY_SEED=N replays one pair.
TEST(SortedIntersects, MatchesSetIntersectionReference) {
  const char* env = std::getenv("SEER_PROPERTY_SEED");
  const std::uint64_t master = env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
  const std::uint64_t iters = master != 0 ? 1 : 4000;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = master != 0 ? master : 0x5E70000u + i;
    util::Xoshiro256 rng(seed);
    const std::size_t n_small = rng.below(33);
    const std::size_t n_large = n_small * (1 + rng.below(64)) + rng.below(4);
    const auto universe =
        static_cast<std::uint32_t>((n_large + 1) * (1 + rng.below(16)));
    const auto shift = static_cast<std::uint32_t>(rng.below(universe));
    const auto small = random_lines(rng, n_small, shift, universe);
    const auto large = random_lines(rng, n_large, 0, universe);
    const bool want = reference_intersects(small, large);
    hits += want ? 1 : 0;
    ASSERT_EQ(sorted_intersects(small, large), want)
        << "small " << small.size() << " large " << large.size()
        << "; replay with SEER_PROPERTY_SEED=" << seed;
    ASSERT_EQ(sorted_intersects(large, small), want)
        << "argument order; replay with SEER_PROPERTY_SEED=" << seed;
  }
  if (master == 0) {
    EXPECT_GT(hits, iters / 10) << "sweep never exercises intersecting pairs";
    EXPECT_LT(hits, iters - iters / 10) << "sweep never exercises disjoint pairs";
  }
}

TEST(SortedIntersects, Edges) {
  using V = std::vector<std::uint32_t>;
  V big(100);
  for (std::uint32_t i = 0; i < 100; ++i) big[i] = 2 * i;  // 0, 2, ..., 198
  const std::vector<std::pair<V, V>> yes = {
      {{5}, {5}},
      {{1, 2, 3, 4, 5}, {5, 6, 7, 8, 9}},  // touching endpoints
      {{0}, big},                          // gallop: first element
      {{198}, big},                        // gallop: last element
      {{1, 3, 100}, big},                  // gallop: hit after misses
      {{7, 199, 250}, {199}},
  };
  const std::vector<std::pair<V, V>> no = {
      {{}, {}},
      {{}, {1, 2}},
      {{4}, {5}},
      {{1, 2, 3, 4}, {5, 6, 7, 8, 9}},  // disjoint ranges
      {{1, 3, 5, 197}, big},            // gallop: interleaved misses
      {{199}, big},                     // gallop: past the end
      {{3, 5}, {0, 2, 4, 6}},
  };
  for (const auto& [a, b] : yes) {
    EXPECT_TRUE(sorted_intersects(a, b)) << a.size() << " vs " << b.size();
    EXPECT_TRUE(sorted_intersects(b, a)) << b.size() << " vs " << a.size();
  }
  for (const auto& [a, b] : no) {
    EXPECT_FALSE(sorted_intersects(a, b)) << a.size() << " vs " << b.size();
    EXPECT_FALSE(sorted_intersects(b, a)) << b.size() << " vs " << a.size();
  }
}

// ------------------------------------------------- synthetic workloads -----

// A fully controllable workload for machine tests.
class SyntheticWorkload final : public Workload {
 public:
  struct Params {
    std::string name = "synthetic";
    std::uint64_t duration = 1000;
    std::uint64_t think = 200;
    std::size_t n_types = 2;
    // Line sets per type; every instance of a type uses exactly these.
    std::vector<std::vector<std::uint32_t>> reads;
    std::vector<std::vector<std::uint32_t>> writes;
    // Offset every line by thread id so instances on different threads are
    // disjoint (used to build genuinely conflict-free workloads).
    bool per_thread_lines = false;
  };

  explicit SyntheticWorkload(Params p) : p_(std::move(p)) {
    type_names_.reserve(p_.n_types);
    for (std::size_t i = 0; i < p_.n_types; ++i) {
      type_names_.push_back("t" + std::to_string(i));
    }
  }

  const std::string& name() const override { return p_.name; }
  std::size_t n_types() const override { return p_.n_types; }
  const std::string& type_name(core::TxTypeId t) const override {
    return type_names_[static_cast<std::size_t>(t)];
  }

  void next(core::ThreadId thread, double, util::Xoshiro256& rng,
            TxInstance& out) override {
    const auto type = static_cast<std::size_t>(rng.below(p_.n_types));
    out.type = static_cast<core::TxTypeId>(type);
    out.duration = p_.duration;
    out.reads = type < p_.reads.size() ? p_.reads[type] : std::vector<std::uint32_t>{};
    out.writes =
        type < p_.writes.size() ? p_.writes[type] : std::vector<std::uint32_t>{};
    if (p_.per_thread_lines) {
      const std::uint32_t offset = 100000u * (thread + 1);
      for (auto& l : out.reads) l += offset;
      for (auto& l : out.writes) l += offset;
    }
  }

  std::uint64_t think_time(core::ThreadId, util::Xoshiro256&) override {
    return p_.think;
  }

 private:
  Params p_;
  std::vector<std::string> type_names_;
};

SyntheticWorkload::Params no_conflict_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  // Per-thread disjoint footprints: no pair of concurrent instances can
  // ever conflict (same-thread instances never coexist).
  p.reads = {{1}, {2}};
  p.writes = {{10}, {20}};
  p.per_thread_lines = true;
  return p;
}

// Type 0 self-conflicts on one hot line; type 1 is read-only and clean —
// gives the inference a learnable contrast even at 8 threads.
SyntheticWorkload::Params hot_type_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  p.reads = {{1}, {2, 3}};
  p.writes = {{99}, {}};
  return p;
}

SyntheticWorkload::Params all_conflict_params() {
  SyntheticWorkload::Params p;
  p.n_types = 2;
  // Everyone writes the same line: every coexistence is a conflict candidate.
  p.reads = {{1}, {2}};
  p.writes = {{99}, {99}};
  return p;
}

MachineConfig base_config(rt::PolicyKind kind, std::size_t threads,
                          std::uint64_t txs = 400, std::uint64_t seed = 3) {
  MachineConfig cfg;
  cfg.n_threads = threads;
  cfg.txs_per_thread = txs;
  cfg.policy.kind = kind;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ Machine ------

TEST(Machine, AllTransactionsAccounted) {
  const auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.commits, 4u * 400u);
  std::uint64_t by_mode = 0;
  for (auto c : s.commits_by_mode) by_mode += c;
  EXPECT_EQ(by_mode, s.commits);
  std::uint64_t by_type = 0;
  for (auto c : s.commits_by_type) by_type += c;
  EXPECT_EQ(by_type, s.commits);
  EXPECT_GT(s.makespan, 0u);
  EXPECT_GT(s.serial_work, 0u);
}

TEST(Machine, DeterministicForSameSeed) {
  const auto cfg = base_config(rt::PolicyKind::kSeer, 6);
  const MachineStats a =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  const MachineStats b =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts(), b.aborts());
  EXPECT_EQ(a.commits_by_mode, b.commits_by_mode);
}

TEST(Machine, DifferentSeedsDiverge) {
  const auto wl = [] {
    return std::make_unique<SyntheticWorkload>(all_conflict_params());
  };
  auto cfg = base_config(rt::PolicyKind::kRtm, 6);
  const MachineStats a = run_machine(cfg, wl());
  cfg.seed = 999;
  const MachineStats b = run_machine(cfg, wl());
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Machine, NoConflictWorkloadScalesAndNeverAborts) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.aborts(), 0u);
  EXPECT_GT(s.speedup(), 3.0);
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kHtmNoLocks), 1.0);
}

TEST(Machine, SingleThreadSpeedupNearOne) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 1);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_LE(s.speedup(), 1.0) << "TM overheads cannot beat sequential";
  EXPECT_GT(s.speedup(), 0.85);
}

TEST(Machine, ConflictsProduceAbortsAndFallbacks) {
  auto cfg = base_config(rt::PolicyKind::kRtm, 8, 600);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kConflict)], 0u);
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kSglFallback), 0.0);
  EXPECT_EQ(s.commits, 8u * 600u) << "every transaction still completes";
}

TEST(Machine, SglPolicyIsFullySerialized) {
  const auto cfg = base_config(rt::PolicyKind::kSgl, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
  EXPECT_EQ(s.hw_attempts, 0u);
  EXPECT_LT(s.speedup(), 1.0);
}

TEST(Machine, OtherAbortInjectionAlwaysAborting) {
  // Failure injection: every attempt suffers a background abort, so every
  // transaction must reach the SGL and the run must still terminate.
  auto cfg = base_config(rt::PolicyKind::kRtm, 2, 50);
  cfg.p_other_abort = 1.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.commits, 100u);
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kOther)], 0u);
}

TEST(Machine, TinyWaitBudgetStillTerminates) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 300);
  cfg.wait_budget = 1;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, 8u * 300u);
}

// Capacity behaviour -------------------------------------------------------

SyntheticWorkload::Params big_footprint_params(std::uint32_t lines) {
  SyntheticWorkload::Params p;
  p.n_types = 1;
  p.duration = 2000;
  // Read-only bulk footprint: capacity pressure without any conflicts, so
  // the tests isolate the capacity/core-lock axis.
  std::vector<std::uint32_t> reads;
  for (std::uint32_t i = 0; i < lines; ++i) reads.push_back(1000 + i);
  p.reads = {reads};
  p.writes = {{}};
  return p;
}

TEST(Machine, NoCapacityAbortsWithoutSmtSharing) {
  // 4 threads on 4 physical cores: nobody shares, and the footprint (300)
  // fits the full per-core budget (448).
  auto cfg = base_config(rt::PolicyKind::kRtm, 4, 200);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_EQ(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)], 0u);
}

TEST(Machine, SmtSharingTriggersCapacityAborts) {
  // 8 threads on 4 cores: siblings halve the budget; 300 > 224.
  auto cfg = base_config(rt::PolicyKind::kRtm, 8, 200);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_GT(s.aborts_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)], 0u);
}

TEST(Machine, SeerCoreLocksAbsorbCapacityPressure) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 400);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  const double core_modes =
      s.mode_fraction(rt::CommitMode::kHtmCoreLock) +
      s.mode_fraction(rt::CommitMode::kHtmTxAndCore);
  EXPECT_GT(core_modes, 0.05) << "core locks should carry real traffic";
  EXPECT_LT(s.mode_fraction(rt::CommitMode::kSglFallback), 0.05);
}

TEST(Machine, SeerBeatsRtmUnderSmtCapacityPressure) {
  auto seer_cfg = base_config(rt::PolicyKind::kSeer, 8, 400);
  seer_cfg.p_other_abort = 0.0;
  auto rtm_cfg = base_config(rt::PolicyKind::kRtm, 8, 400);
  rtm_cfg.p_other_abort = 0.0;
  const MachineStats seer = run_machine(
      seer_cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  const MachineStats rtm = run_machine(
      rtm_cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(300)));
  EXPECT_GT(seer.speedup(), rtm.speedup());
}

TEST(Machine, OversizedTransactionsAlwaysFallBack) {
  // Footprint beyond even the full per-core budget: deterministic capacity
  // failure, every instance ends up on the SGL.
  auto cfg = base_config(rt::PolicyKind::kRtm, 2, 60);
  cfg.p_other_abort = 0.0;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(big_footprint_params(600)));
  EXPECT_DOUBLE_EQ(s.mode_fraction(rt::CommitMode::kSglFallback), 1.0);
}

// Seer-specific end-to-end -------------------------------------------------

TEST(Machine, SeerLearnsSelfConflictAndSerializes) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 1500, 17);
  cfg.policy.seer.update_period = 256;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(hot_type_params()));
  EXPECT_GT(s.scheme_rebuilds, 0u);
  ASSERT_EQ(s.final_scheme.size(), 2u);
  // Type 0 writes line 99; the scheme must connect at least one hot pair.
  std::size_t edges = 0;
  for (const auto& row : s.final_scheme) edges += row.size();
  EXPECT_GT(edges, 0u) << "inference failed to find the planted conflict";
  EXPECT_GT(s.mode_fraction(rt::CommitMode::kHtmTxLocks) +
                s.mode_fraction(rt::CommitMode::kHtmTxAndCore),
            0.0);
}

TEST(Machine, SeerTxLockCensusPopulated) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 1500, 17);
  cfg.policy.seer.update_period = 256;
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(hot_type_params()));
  EXPECT_GT(s.txlock_fraction.count(), 0u);
  EXPECT_LE(s.txlock_fraction.percentile(1.0), 1.0);
}

TEST(Machine, RtmHasNoSeerArtifacts) {
  const auto cfg = base_config(rt::PolicyKind::kRtm, 4);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
  EXPECT_EQ(s.scheme_rebuilds, 0u);
  EXPECT_TRUE(s.final_scheme.empty());
  EXPECT_EQ(s.txlock_fraction.count(), 0u);
}

// Every policy terminates with exact commit counts on a contended workload.
class MachinePolicyParam : public ::testing::TestWithParam<rt::PolicyKind> {};

TEST_P(MachinePolicyParam, ContendedRunCompletes) {
  const auto cfg = base_config(GetParam(), 8, 300);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, 8u * 300u);
  for (std::size_t m = 0; m < s.commits_by_mode.size(); ++m) {
    EXPECT_LE(s.commits_by_mode[m], s.commits);
  }
  EXPECT_GT(s.speedup(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MachinePolicyParam,
                         ::testing::Values(rt::PolicyKind::kHle, rt::PolicyKind::kRtm,
                                           rt::PolicyKind::kScm, rt::PolicyKind::kAts,
                                           rt::PolicyKind::kSgl, rt::PolicyKind::kSeer));

// Thread-count sweep: commits always exact, makespan monotone in work.
class MachineThreadParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MachineThreadParam, ExactCommitsAtEveryWidth) {
  const std::size_t threads = GetParam();
  const auto cfg = base_config(rt::PolicyKind::kSeer, threads, 200);
  const MachineStats s =
      run_machine(cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(s.commits, threads * 200u);
}

INSTANTIATE_TEST_SUITE_P(Widths, MachineThreadParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Physical bound: no scheduler can make N threads run more than N times the
// serial work rate (the simulator must conserve time).
class SpeedupBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpeedupBound, NeverExceedsThreadCount) {
  const std::size_t threads = GetParam();
  for (auto kind : {rt::PolicyKind::kRtm, rt::PolicyKind::kScm,
                    rt::PolicyKind::kSeer, rt::PolicyKind::kOracle}) {
    const auto cfg = base_config(kind, threads, 300);
    const MachineStats s =
        run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
    EXPECT_LE(s.speedup(), static_cast<double>(threads) + 1e-9)
        << rt::to_string(kind) << " at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SpeedupBound, ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------------------------ topology -----

// The legacy-compatibility contract from machine.hpp: an explicit flat
// topology (1 socket, SMT pairs) is the SAME machine as the default flat
// view — every statistic must agree exactly, or old configs change meaning
// the moment they spell out their shape.
TEST(Machine, ExplicitFlatTopologyMatchesLegacyDefaultExactly) {
  for (const auto kind : {rt::PolicyKind::kRtm, rt::PolicyKind::kSeer}) {
    auto legacy_cfg = base_config(kind, 8, 300, 21);
    legacy_cfg.physical_cores = 4;
    auto explicit_cfg = legacy_cfg;
    explicit_cfg.topology = core::Topology::flat(4);

    const MachineStats a = run_machine(
        legacy_cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
    const MachineStats b = run_machine(
        explicit_cfg,
        std::make_unique<SyntheticWorkload>(all_conflict_params()));
    EXPECT_EQ(a.commits, b.commits) << rt::to_string(kind);
    EXPECT_EQ(a.makespan, b.makespan) << rt::to_string(kind);
    EXPECT_EQ(a.aborts_by_cause, b.aborts_by_cause) << rt::to_string(kind);
    EXPECT_EQ(a.commits_by_mode, b.commits_by_mode) << rt::to_string(kind);
    EXPECT_EQ(a.scheme_rebuilds, b.scheme_rebuilds) << rt::to_string(kind);
    EXPECT_EQ(a.gt_conflicts, b.gt_conflicts) << rt::to_string(kind);
    EXPECT_EQ(a.final_scheme, b.final_scheme) << rt::to_string(kind);
  }
}

// The width precondition holds in every build: the machine's thread sets are
// fixed-width and indexed by thread id, so a thread count past the shape's
// hardware threads must be refused up front, naming both numbers.
TEST(Machine, RejectsThreadCountsTheTopologyCannotHost) {
  const auto expect_rejected = [](const MachineConfig& cfg, const std::string& got,
                                  const std::string& limit) {
    try {
      Machine m(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()));
      FAIL() << "accepted n_threads " << cfg.n_threads;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(got), std::string::npos) << what;
      EXPECT_NE(what.find(limit), std::string::npos) << what;
    }
  };
  auto cfg = base_config(rt::PolicyKind::kRtm, 9);  // flat(4): 8 hw threads
  expect_rejected(cfg, "n_threads 9", "[1, 8]");
  cfg.n_threads = 0;
  expect_rejected(cfg, "n_threads 0", "[1, 8]");
  cfg.topology = core::Topology{2, 16, 2};
  cfg.n_threads = 65;
  expect_rejected(cfg, "n_threads 65", "[1, 64]");
  cfg.topology = core::Topology{4, 64, 2};  // 512 > core::kMaxThreads
  cfg.n_threads = 8;
  expect_rejected(cfg, "256", "512");

  cfg.topology = core::Topology{2, 16, 2};
  cfg.n_threads = 64;
  cfg.txs_per_thread = 5;
  EXPECT_EQ(run_machine(cfg, std::make_unique<SyntheticWorkload>(no_conflict_params()))
                .commits,
            64u * 5u);
}

// NUMA asymmetry must actually cost something: the same 2x2x2 shape with a
// cross-socket handoff surcharge cannot finish faster than the symmetric
// machine, and charging the surcharge moves the makespan.
TEST(Machine, NumaHandoffSurchargeStretchesTheMakespan) {
  auto cfg = base_config(rt::PolicyKind::kSeer, 8, 300, 5);
  cfg.topology = core::Topology{2, 2, 2};
  const MachineStats sym = run_machine(
      cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  cfg.costs.numa_handoff = 500;
  cfg.costs.numa_abort_penalty = 300;
  const MachineStats asym = run_machine(
      cfg, std::make_unique<SyntheticWorkload>(all_conflict_params()));
  EXPECT_EQ(sym.commits, asym.commits) << "costs must not change the work";
  EXPECT_GT(asym.makespan, sym.makespan)
      << "cross-socket surcharges never applied on an all-conflict run";
}


// ------------------------------------------------------------ width --------

// Full MachineStats of 64- and 128-thread 2-socket runs over two STAMP
// stand-ins, pinned to the values the all-threads conflict scan produced
// before the live-instance conflict graph replaced it. The graph must visit
// conflicting in-HW threads in the same ascending-id order so every RNG draw
// lands where it did; any reordering moves these numbers.
struct WideGolden {
  const char* workload;
  rt::PolicyKind kind;
  std::size_t threads;
  core::Topology topology;
  std::uint64_t txs_per_thread;
  Time makespan;
  std::uint64_t serial_work;
  std::uint64_t commits;
  std::uint64_t hw_attempts;
  std::array<std::uint64_t, 4> aborts_by_cause;
  std::array<std::uint64_t, static_cast<std::size_t>(rt::CommitMode::kModeCount)>
      commits_by_mode;
  std::vector<std::uint64_t> gt_conflicts;
  std::uint64_t scheme_rebuilds;
  std::vector<std::vector<core::TxTypeId>> final_scheme;
};

const std::vector<WideGolden>& wide_goldens() {
  using rt::PolicyKind;
  static const std::vector<WideGolden> g = {
      {"intruder", PolicyKind::kRtm, 64, {2, 16, 2}, 100,
       9681881, 7195128, 6400, 31963, {21135, 0, 10811, 5},
       {12, 0, 0, 0, 0, 0, 6388},
       {10884, 0, 0, 0, 3643, 0, 0, 0, 6608},
       0, {}},
      {"intruder", PolicyKind::kSeer, 64, {2, 16, 2}, 100,
       3952163, 7216145, 6400, 19094, {12245, 0, 1193, 27},
       {3540, 0, 0, 2089, 0, 0, 771},
       {4424, 0, 0, 0, 4870, 0, 0, 0, 2951},
       28, {{0}, {1}, {2}}},
      {"vacation-low", PolicyKind::kRtm, 64, {2, 16, 2}, 100,
       15849955, 12197032, 6400, 31818, {6352, 0, 25396, 9},
       {61, 0, 0, 0, 0, 0, 6339},
       {4918, 0, 573, 0, 70, 0, 631, 0, 160},
       0, {}},
      {"vacation-low", PolicyKind::kSeer, 64, {2, 16, 2}, 100,
       6915010, 12264224, 6400, 20639, {10759, 0, 3738, 17},
       {3480, 0, 0, 2645, 0, 0, 275},
       {10532, 0, 85, 0, 16, 0, 71, 0, 55},
       31, {{0}, {}, {2}}},
      {"intruder", PolicyKind::kRtm, 128, {2, 32, 2}, 50,
       9756001, 7181352, 6400, 31999, {26715, 0, 5277, 3},
       {4, 0, 0, 0, 0, 0, 6396},
       {11938, 0, 0, 0, 5628, 0, 0, 0, 9149},
       0, {}},
      {"intruder", PolicyKind::kSeer, 128, {2, 32, 2}, 50,
       3923643, 7165521, 6400, 22460, {15654, 0, 1182, 16},
       {2690, 0, 0, 2918, 0, 0, 792},
       {8082, 0, 0, 0, 5265, 0, 0, 0, 2307},
       25, {{0}, {1}, {2}}},
      {"vacation-low", PolicyKind::kRtm, 128, {2, 32, 2}, 50,
       15951441, 12192652, 6400, 31908, {8731, 0, 23141, 8},
       {28, 0, 0, 0, 0, 0, 6372},
       {6931, 0, 701, 0, 88, 0, 843, 0, 168},
       0, {}},
      {"vacation-low", PolicyKind::kSeer, 128, {2, 32, 2}, 50,
       7162134, 12169635, 6400, 20792, {11726, 0, 3108, 25},
       {3328, 0, 0, 2605, 0, 0, 467},
       {11430, 0, 131, 0, 5, 0, 125, 0, 35},
       25, {{0}, {1, 2}, {1}}},
  };
  return g;
}

TEST(Machine, WideTwoSocketRunsMatchPinnedStats) {
  for (const WideGolden& g : wide_goldens()) {
    MachineConfig cfg;
    cfg.n_threads = g.threads;
    cfg.topology = g.topology;
    cfg.txs_per_thread = g.txs_per_thread;
    cfg.policy.kind = g.kind;
    cfg.seed = 11;
    const MachineStats s =
        run_machine(cfg, stamp::make_workload(g.workload, g.threads));
    const std::string cell = std::string(g.workload) + " " +
                             rt::to_string(g.kind) + " " +
                             std::to_string(g.threads) + "t";
    EXPECT_EQ(s.makespan, g.makespan) << cell;
    EXPECT_EQ(s.serial_work, g.serial_work) << cell;
    EXPECT_EQ(s.commits, g.commits) << cell;
    EXPECT_EQ(s.hw_attempts, g.hw_attempts) << cell;
    EXPECT_EQ(s.aborts_by_cause, g.aborts_by_cause) << cell;
    EXPECT_EQ(s.commits_by_mode, g.commits_by_mode) << cell;
    EXPECT_EQ(s.gt_conflicts, g.gt_conflicts) << cell;
    EXPECT_EQ(s.scheme_rebuilds, g.scheme_rebuilds) << cell;
    EXPECT_EQ(s.final_scheme, g.final_scheme) << cell;
  }
}

}  // namespace
}  // namespace seer::sim
