// Machine — a deterministic discrete-event simulator of a best-effort HTM
// multiprocessor, standing in for the paper's TSX-enabled Haswell testbed
// (DESIGN.md §1 explains the substitution).
//
// Modelled hardware:
//   * `n_threads` hardware threads on `physical_cores` cores, SMT siblings
//     mapped as thread t <-> t + physical_cores (Linux-style enumeration,
//     which is what Alg. 4's `core % PHYSICAL_CORES` adapts to);
//   * per-core transactional capacity (cache lines), HALVED for a thread
//     whose SMT sibling is simultaneously transactional — the capacity
//     amplification that motivates Seer's core locks;
//   * eager requester-wins conflict detection over genuinely sampled
//     read/write line sets: a transaction beginning with a footprint that
//     overlaps a running one kills it at some point in their coexistence
//     window (coarse CONFLICT statuses, never the culprit); retried victims
//     carry the same footprint and strike back — the mutual-kill thrash
//     real best-effort HTMs exhibit;
//   * fallback-lock subscription: acquiring the SGL aborts every running
//     hardware transaction, and transactions beginning while it is held
//     abort explicitly (Alg. 1 lines 11-12);
//   * background OTHER aborts (interrupts etc.) with small probability.
//
// The scheduling policies under test (HLE/RTM/SCM/ATS/SGL/Seer) run as real
// code — the identical Policy objects the threaded driver uses — against
// simulated FIFO locks and a logical-cycle cost model that charges CAS,
// begin/commit, abort penalties, and Seer's instrumentation (announcement,
// active-table scans, scheme rebuilds — this is what Figure 4 measures).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/topology.hpp"
#include "obs/observer.hpp"
#include "runtime/policies.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_lock.hpp"
#include "sim/workload.hpp"
#include "util/stats.hpp"

namespace seer::sim {

struct CostModel {
  std::uint64_t xbegin = 40;         // enter speculative mode
  std::uint64_t xcommit = 40;        // successful commit
  std::uint64_t abort_penalty = 180; // rollback + restart latency
  std::uint64_t cas = 50;            // lock acquire/release round-trip
  // Extra latency when a contended lock is handed to a queued waiter: the
  // lock line migrates between cores and the waiter must notice. Charged on
  // every queued handoff — this is what makes funneling work through one
  // lock (SCM's aux, ATS's sched lock, the SGL queue) expensive in practice.
  std::uint64_t lock_handoff = 450;
  // Seer instrumentation (charged only for PolicyKind::kSeer):
  std::uint64_t announce = 6;            // active-table store (Alg. 1 l.5)
  std::uint64_t scan_per_slot = 2;       // Alg. 3 scan, per table slot
  std::uint64_t scheme_rebuild = 1200;   // Alg. 5 merge + inference
  // NUMA asymmetry (multi-socket topologies; both default 0 = symmetric):
  // extra cycles when a queued lock handoff crosses sockets (the lock line
  // migrates over the interconnect, not the shared L3)...
  std::uint64_t numa_handoff = 0;
  // ...and extra rollback latency when a conflict abort's aggressor ran on
  // another socket (the victim's dirty lines were invalidated remotely).
  std::uint64_t numa_abort_penalty = 0;
};

struct MachineConfig {
  std::size_t n_threads = 8;
  // Flat core count; superseded (derived) when `topology` is set.
  std::size_t physical_cores = 4;
  // Explicit sockets x cores x SMT shape (core/topology.hpp). Unset = the
  // legacy 1-socket view: flat(physical_cores) with SMT pairs, which keeps
  // every existing config byte-identical. When set it is authoritative —
  // `physical_cores` is derived from it, and the embedded Seer scheduler
  // inherits the same topology so placement decisions agree.
  std::optional<core::Topology> topology;
  std::uint32_t cache_lines_per_core = 448;
  // Per-socket L3 transactional-capacity domain, in cache lines. 0 (default)
  // leaves the socket cache unmodeled; when set, concurrent transactions on
  // one socket split its L3 budget the way SMT siblings split the L1d.
  std::uint32_t l3_lines_per_socket = 0;
  // Fraction of the (remaining) duration after which an over-capacity
  // transaction overflows and aborts.
  double capacity_abort_point = 0.6;
  double p_other_abort = 0.002;
  // When a starting transaction's footprint overlaps a running one, one of
  // the two aborts during their coexistence window. Requester-wins HTMs
  // favour whichever side issues the conflicting access *last*, and over a
  // whole overlap of interleaved accesses either side can be that. A fresh
  // transaction issues accesses at full speed while the resident is partway
  // done, so the resident loses more often; this is the probability that
  // the newly-started transaction is the victim instead.
  double p_newcomer_aborts = 0.5;
  // Bounded cooperative waits (cycles). The paper's waits are unbounded;
  // the bound exists only to rule out pathological waiting cycles, so it is
  // set far above any realistic lock tenure.
  std::uint64_t wait_budget = 100000;
  // Pessimistic (SGL) execution runs the body this much slower than a
  // hardware attempt: serialized execution re-warms caches after every
  // lock handoff and forgoes the HTM's speculative locality.
  double sgl_duration_factor = 1.25;
  std::uint64_t txs_per_thread = 20000;
  std::uint64_t seed = 1;
  rt::PolicyConfig policy{};
  CostModel costs{};

  // --- observability (src/obs/, DESIGN.md §8) ----------------------------
  // Optional sinks. The machine builds one obs::Observer over them and hands
  // it to the Seer scheduler, so one registry collects the whole stack. The
  // embedder freezes the registry after constructing the machine and before
  // run(). All machine-side recording is single-threaded and timestamps are
  // simulated cycles, so metrics and traces are deterministic per (seed,
  // config) — the property the --metrics jobs-invariance test pins down.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  // Model flight recorder: fed SGL grants, periodic/anomaly snapshots at
  // Seer rebuilds and a final end-of-run capture. Null disables.
  obs::FlightRecorder* recorder = nullptr;
  // Check-harness capture of the Seer scheduler's event stream and rebuild
  // decisions (src/check/differential.hpp). Null disables.
  obs::SchedTraceRecorder* events = nullptr;
};

struct MachineStats {
  Time makespan = 0;
  std::uint64_t serial_work = 0;  // estimated sequential execution time
  std::uint64_t commits = 0;
  std::uint64_t hw_attempts = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(rt::CommitMode::kModeCount)>
      commits_by_mode{};
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  std::vector<std::uint64_t> commits_by_type;
  // §5.2 census: each time a directive acquires tx locks, the fraction of
  // all tx locks it takes.
  util::PercentileSketch txlock_fraction;
  // Seer introspection (zero/empty for other policies).
  std::uint64_t scheme_rebuilds = 0;
  core::InferenceParams final_params{};
  // Final locksToAcquire rows: final_scheme[x] lists the lock owners
  // (transaction types) x acquires.
  std::vector<std::vector<core::TxTypeId>> final_scheme;
  // Ground-truth conflict matrix (victim-major, n_types^2): materialized
  // conflict aborts by (victim type, aggressor type). The simulator knows
  // the aggressor precisely — information a commodity HTM never reveals —
  // which is what lets tools/seer_inspect score Seer's *inferred* scheme
  // for false serializations and missed conflicts against reality.
  std::vector<std::uint64_t> gt_conflicts;

  [[nodiscard]] std::uint64_t gt_conflict(core::TxTypeId victim,
                                          core::TxTypeId aggressor,
                                          std::size_t n_types) const noexcept {
    return gt_conflicts[static_cast<std::size_t>(victim) * n_types +
                        static_cast<std::size_t>(aggressor)];
  }

  [[nodiscard]] double speedup() const noexcept {
    return makespan == 0 ? 0.0
                         : static_cast<double>(serial_work) /
                               static_cast<double>(makespan);
  }
  [[nodiscard]] std::uint64_t aborts() const noexcept {
    std::uint64_t n = 0;
    for (auto a : aborts_by_cause) n += a;
    return n;
  }
  [[nodiscard]] double mode_fraction(rt::CommitMode m) const noexcept {
    return commits == 0
               ? 0.0
               : static_cast<double>(
                     commits_by_mode[static_cast<std::size_t>(m)]) /
                     static_cast<double>(commits);
  }
};

class Machine {
 public:
  Machine(MachineConfig cfg, std::unique_ptr<Workload> workload);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  // Runs the whole experiment to completion and returns the statistics.
  MachineStats run();

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Workload& workload() const noexcept { return *workload_; }
  [[nodiscard]] rt::PolicyShared& policy_shared() noexcept { return shared_; }

 private:
  struct ThreadCtx;

  void on_event(const Event& e);
  void start_tx(ThreadCtx& t);
  void dispatch(ThreadCtx& t);
  void continue_acquire(ThreadCtx& t);
  void after_acquires(ThreadCtx& t);
  void continue_waits(ThreadCtx& t);
  void start_hw(ThreadCtx& t);
  void hw_commit(ThreadCtx& t);
  void abort_hw(ThreadCtx& t, htm::AbortStatus status);
  void sgl_granted(ThreadCtx& t);
  void sgl_done(ThreadCtx& t);
  void finish_tx(ThreadCtx& t, bool hardware);
  void release_one(ThreadCtx& t, rt::LockId id);
  void run_maintenance(ThreadCtx& t);
  // The one instrumentation point: one null test per event.
  template <obs::Event E>
  void emit(core::ThreadId thread, std::uint64_t arg) noexcept {
    if (observer_) observer_->emit<obs::Layer::kSim, E>(thread, arg, now_);
  }

  [[nodiscard]] SimLock& lock_of(rt::LockId id) noexcept;
  [[nodiscard]] std::uint32_t effective_capacity(const ThreadCtx& t) const noexcept;
  // Queued-handoff latency from `from` to `to`: the base cost plus the NUMA
  // surcharge when the two run on different sockets.
  [[nodiscard]] Time handoff_cost(core::ThreadId from,
                                  core::ThreadId to) const noexcept {
    return cfg_.costs.lock_handoff +
           (topo_.same_socket(from, to) ? 0 : cfg_.costs.numa_handoff);
  }
  void schedule_capacity_check(ThreadCtx& t);
  [[nodiscard]] bool is_seer() const noexcept {
    return cfg_.policy.kind == rt::PolicyKind::kSeer;
  }
  [[nodiscard]] std::uint64_t scan_cost() const noexcept {
    return is_seer() ? cfg_.costs.scan_per_slot * cfg_.n_threads : 0;
  }

  void push(Time at, core::ThreadId th, EventKind kind, std::uint64_t gen,
            rt::LockId lock = {});

  // Resolves the machine shape into the embedded Seer scheduler's config
  // before PolicyShared is constructed from the patched config.
  [[nodiscard]] static MachineConfig with_shape(MachineConfig cfg) {
    // An explicit topology is authoritative for the core count and is
    // forwarded to the embedded Seer scheduler so both agree on placement.
    if (cfg.topology) {
      cfg.physical_cores = cfg.topology->physical_cores();
      if (!cfg.policy.seer.topology) cfg.policy.seer.topology = cfg.topology;
    }
    // core_locks_ is sized from cfg.physical_cores, and SeerPolicy indexes it
    // with my_core_ = thread % seer.physical_cores; the two must agree or the
    // policy hands out lock ids past the end of the array.
    cfg.policy.seer.physical_cores = cfg.physical_cores;
    return cfg;
  }

  MachineConfig cfg_;
  // Resolved shape: cfg_.topology, or the legacy flat view (1 socket, SMT
  // pairs) when none was given — all placement queries go through this.
  core::Topology topo_;
  std::unique_ptr<Workload> workload_;
  // Null unless a sink is attached; built before shared_ (the scheduler's
  // metrics register first, the order every --metrics golden records).
  std::unique_ptr<obs::Observer> observer_;
  rt::PolicyShared shared_;
  EventQueue queue_;
  Time now_ = 0;

  SimLock sgl_;
  SimLock aux_;
  SimLock sched_;
  std::vector<SimLock> tx_locks_;
  std::vector<SimLock> core_locks_;

  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  std::size_t done_count_ = 0;
  MachineStats stats_;
};

// Convenience: build, run, return.
[[nodiscard]] MachineStats run_machine(const MachineConfig& cfg,
                                       std::unique_ptr<Workload> workload);

}  // namespace seer::sim
