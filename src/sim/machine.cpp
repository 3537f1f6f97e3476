#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace seer::sim {

struct Machine::ThreadCtx {
  core::ThreadId id = 0;
  std::unique_ptr<rt::Policy> policy;
  util::Xoshiro256 rng{0};
  std::uint64_t txs_done = 0;
  std::uint64_t gen = 0;
  // Cycle costs accumulated since the last scheduled event; folded into the
  // delay of the next one.
  std::uint64_t pending_cost = 0;

  TxInstance inst;
  // inst.footprint_lines(), computed once when the instance is sampled.
  std::size_t footprint = 0;
  // Live threads whose instance conflicts with this one (instances_conflict),
  // maintained by link_instance / unlink_instance.
  ThreadSet conflicts;
  rt::Directive d;
  std::size_t acquire_idx = 0;
  std::size_t wait_idx = 0;
  rt::LockList held;
  Time hw_end = 0;
  bool capacity_scheduled = false;
  // Aggressor type behind a scheduled conflict abort — precise information
  // the simulator has but a commodity HTM would not reveal. Forwarded via
  // Policy::on_conflict_attribution (used by the Oracle baseline only).
  core::TxTypeId pending_culprit = core::kNoTx;
  // Aggressor *thread* behind the same abort (-1 = none): the NUMA cost
  // model charges extra rollback latency when it ran on another socket.
  std::int32_t pending_culprit_thread = -1;

  enum class St : std::uint8_t {
    kIdle,        // between transactions
    kAcquiring,   // queued on a lock in d.acquires
    kWaitSglFree, // subscribed to the SGL becoming free
    kCoopWait,    // bounded cooperative wait on a tx/core lock
    kRunningHw,   // speculative execution in flight
    kQueuedSgl,   // fallback: queued on the SGL
    kRunningSgl,  // pessimistic execution in flight
    kParked,      // open loop: no admitted request, waiting for an arrival
    kDone,        // finished its share of transactions
  } st = St::kIdle;
};

MachineConfig Machine::with_shape(MachineConfig cfg) {
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
  // Checked in every build: the fixed-width ThreadSets index by thread id,
  // so a thread count past the shape (or past core::kMaxThreads) would write
  // out of bounds.
  const core::Topology topo =
      cfg.topology ? *cfg.topology : core::Topology::flat(cfg.physical_cores);
  if (!topo.valid()) {
    throw std::invalid_argument(
        "sim::Machine: topology must be non-empty with at most " +
        std::to_string(core::kMaxThreads) + " hardware threads, got " +
        std::to_string(topo.hw_threads()));
  }
  if (cfg.n_threads == 0 || cfg.n_threads > topo.hw_threads()) {
    throw std::invalid_argument(
        "sim::Machine: n_threads " + std::to_string(cfg.n_threads) +
        " must be in [1, " + std::to_string(topo.hw_threads()) +
        "], the topology's hardware threads");
  }
  return cfg;
}

Machine::Machine(MachineConfig cfg, std::unique_ptr<Workload> workload)
    : cfg_(with_shape(std::move(cfg))),
      topo_(cfg_.topology ? *cfg_.topology
                          : core::Topology::flat(cfg_.physical_cores)),
      workload_(std::move(workload)),
      observer_(obs::Observer::make(
          obs::Layer::kSim, cfg_.policy.kind == rt::PolicyKind::kSeer,
          {cfg_.metrics, cfg_.trace, cfg_.recorder, cfg_.events})),
      shared_(cfg_.policy, cfg_.n_threads, workload_->n_types(), observer_.get()),
      tx_locks_(workload_->n_types()),
      core_locks_(cfg_.physical_cores) {
  stats_.commits_by_type.assign(workload_->n_types(), 0);
  stats_.gt_conflicts.assign(workload_->n_types() * workload_->n_types(), 0);

  util::Xoshiro256 master(cfg_.seed);
  threads_.reserve(cfg_.n_threads);
  for (core::ThreadId id = 0; id < cfg_.n_threads; ++id) {
    auto t = std::make_unique<ThreadCtx>();
    t->id = id;
    t->policy = shared_.make_thread_policy(id);
    t->rng = master.split();
    threads_.push_back(std::move(t));
  }
}

Machine::~Machine() = default;

SimLock& Machine::lock_of(rt::LockId id) noexcept {
  switch (id.kind) {
    case rt::LockKind::kSgl: return sgl_;
    case rt::LockKind::kAux: return aux_;
    case rt::LockKind::kSched: return sched_;
    case rt::LockKind::kTx: return tx_locks_[id.index];
    case rt::LockKind::kCore: return core_locks_[id.index];
  }
  __builtin_unreachable();
}

std::uint32_t Machine::effective_capacity(const ThreadCtx& t) const noexcept {
  // Core-mates (Linux-style enumeration: threads {c, c+P, c+2P, ...} share
  // physical core c) simultaneously in transactions split the core's
  // transactional budget — the pathology core locks exist to suppress. With
  // the legacy 2-way SMT shape this is exactly the old halving rule.
  const std::size_t p = topo_.physical_cores();
  const std::size_t core = topo_.core_of(t.id);
  std::uint32_t sharers = 1;
  for (std::size_t m = core; m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && in_hw_.test(m)) ++sharers;
  }
  return cfg_.cache_lines_per_core / sharers;
}

void Machine::push(Time at, core::ThreadId th, EventKind kind, std::uint64_t gen,
                   rt::LockId lockid) {
  Event e;
  e.time = at;
  e.thread = th;
  e.kind = kind;
  e.gen = gen;
  e.lock = lockid;
  queue_.push(e);
}

MachineStats Machine::run() {
  // Stagger thread starts by one think time each (and count those think
  // times toward the sequential-execution estimate). A generator with an
  // empty stream for a thread (e.g. replaying a shorter trace) retires that
  // thread before it ever starts.
  for (auto& t : threads_) {
    workload_->init(t->id);
    if (workload_->exhausted(t->id)) {
      t->st = ThreadCtx::St::kDone;
      ++done_count_;
      continue;
    }
    const std::uint64_t think = workload_->think_time(t->id, t->rng);
    stats_.serial_work += think;
    push(think, t->id, EventKind::kStartTx, kAnyGen);
  }
  return simulate();
}

MachineStats Machine::run(Arrivals& arrivals) {
  arrivals_ = &arrivals;
  for (auto& t : threads_) park(*t);
  schedule_arrival();
  return simulate();
}

MachineStats Machine::simulate() {
  while (!queue_.empty() && done_count_ < cfg_.n_threads) {
    const Event e = queue_.pop();
    emit<obs::Event::kDispatch>(0, queue_.size());
    now_ = std::max(now_, e.time);
    on_event(e);
  }

  stats_.makespan = now_;
  if (auto* s = shared_.seer()) {
    stats_.final_params = s->params();
    stats_.scheme_rebuilds = s->rebuild_count();
    stats_.final_scheme = s->scheme()->to_rows();
    // End-of-run model capture, whatever the periodic cadence last did.
    if (observer_) observer_->run_end([&] { return s->make_model_snapshot(now_); });
  }
  return stats_;
}

void Machine::on_event(const Event& e) {
  ThreadCtx& t = *threads_[e.thread];
  if (t.st == ThreadCtx::St::kDone) return;

  switch (e.kind) {
    case EventKind::kStartTx:
      start_tx(t);
      break;

    case EventKind::kLockGranted:
      // Ownership was already transferred by release(); must be consumed.
      if (t.st == ThreadCtx::St::kAcquiring) {
        t.held.push_back(e.lock);
        ++t.acquire_idx;
        continue_acquire(t);
      } else if (t.st == ThreadCtx::St::kQueuedSgl) {
        sgl_granted(t);
      } else {
        assert(false && "lock granted to a thread that is not waiting");
      }
      break;

    case EventKind::kFreeNotify:
      if (e.gen != t.gen) break;
      if (t.st == ThreadCtx::St::kWaitSglFree) {
        ++t.gen;
        continue_waits(t);  // re-checks the SGL (it may be taken again)
      } else if (t.st == ThreadCtx::St::kCoopWait) {
        ++t.gen;  // invalidates the paired timeout
        continue_waits(t);
      }
      break;

    case EventKind::kWaitTimeout:
      if (e.gen != t.gen) break;
      if (t.st == ThreadCtx::St::kCoopWait) {
        ++t.gen;
        ++t.wait_idx;  // bounded wait expired: move on regardless
        continue_waits(t);
      }
      break;

    case EventKind::kHwCommit:
      if (e.gen != t.gen) break;
      assert(in_hw_.test(t.id));
      hw_commit(t);
      break;

    case EventKind::kConflictAbort:
      if (e.gen != t.gen) break;
      if (in_hw_.test(t.id)) abort_hw(t, htm::AbortStatus::conflict());
      break;

    case EventKind::kCapacityAbort:
      if (e.gen != t.gen) break;
      // Lazy revalidation: the overflow only materializes if the capacity
      // squeeze still holds when the high-water point is reached (an SMT
      // sibling that finished early releases its share of the cache before
      // our tracked set is evicted). Core locks rely on this: once the
      // sibling is parked, pending doom evaporates.
      if (in_hw_.test(t.id)) {
        if (t.footprint > effective_capacity(t)) {
          abort_hw(t, htm::AbortStatus::capacity());
        } else {
          t.capacity_scheduled = false;  // re-armed if a sibling reappears
        }
      }
      break;

    case EventKind::kOtherAbort:
      if (e.gen != t.gen) break;
      if (in_hw_.test(t.id)) abort_hw(t, htm::AbortStatus::other());
      break;

    case EventKind::kSglBodyDone:
      if (e.gen != t.gen) break;
      sgl_done(t);
      break;

    case EventKind::kResume:
      if (e.gen != t.gen) break;
      dispatch(t);
      break;

    case EventKind::kArrival:
      on_arrival();
      break;
  }
}

void Machine::on_arrival() {
  // A parked thread means no admitted request is waiting, so an admitted
  // arrival goes straight to the lowest-id parked thread.
  if (arrivals_->arrive()) {
    const std::size_t id = parked_.first();
    if (id < cfg_.n_threads) {
      parked_.reset(id);
      pull(*threads_[id]);
    }
  }
  schedule_arrival();
}

void Machine::schedule_arrival() {
  const Time at = arrivals_->next_arrival();
  if (at != Arrivals::kNone) push(at, 0, EventKind::kArrival, kAnyGen);
}

void Machine::pull(ThreadCtx& t) {
  if (!arrivals_->take(t.id, t.inst)) {
    park(t);
    return;
  }
  run_maintenance(t);
  begin_instance(t);
}

void Machine::park(ThreadCtx& t) {
  // Commit-side costs are paid while the thread waits.
  t.st = ThreadCtx::St::kParked;
  t.pending_cost = 0;
  parked_.set(t.id);
}

void Machine::run_maintenance(ThreadCtx& t) {
  if (t.policy->maintenance(now_)) {
    t.pending_cost += cfg_.costs.scheme_rebuild;
  }
}

void Machine::start_tx(ThreadCtx& t) {
  run_maintenance(t);  // DESIGN.md deviation #1: start-path trigger
  const double progress = static_cast<double>(t.txs_done) /
                          static_cast<double>(cfg_.txs_per_thread);
  workload_->next(t.id, progress, t.rng, t.inst);
  begin_instance(t);
}

void Machine::begin_instance(ThreadCtx& t) {
  t.footprint = t.inst.footprint_lines();
  link_instance(t);
  t.policy->begin_tx(t.inst.type, now_);
  if (is_seer()) t.pending_cost += cfg_.costs.announce;
  assert(t.held.empty());
  dispatch(t);
}

void Machine::dispatch(ThreadCtx& t) {
  t.d = t.policy->next_attempt(now_);
  t.acquire_idx = 0;
  t.wait_idx = 0;
  for (const rt::LockId& id : t.d.releases) release_one(t, id);

  // §5.2 census: how fine-grained is each tx-lock acquisition?
  std::size_t n_tx_locks = 0;
  for (const rt::LockId& id : t.d.acquires) {
    if (id.kind == rt::LockKind::kTx) ++n_tx_locks;
  }
  if (n_tx_locks > 0) {
    stats_.txlock_fraction.add(static_cast<double>(n_tx_locks) /
                               static_cast<double>(workload_->n_types()));
  }
  // Batched (multi-CAS-by-HTM) acquisition costs one synchronization
  // round-trip instead of one per lock (§4's optimization).
  if (t.d.htm_batch && t.d.acquires.size() >= 2) {
    t.pending_cost += cfg_.costs.xbegin + cfg_.costs.cas;
  } else {
    t.pending_cost += cfg_.costs.cas * t.d.acquires.size();
  }
  continue_acquire(t);
}

void Machine::continue_acquire(ThreadCtx& t) {
  while (t.acquire_idx < t.d.acquires.size()) {
    const rt::LockId id = t.d.acquires[t.acquire_idx];
    SimLock& l = lock_of(id);
    if (l.try_acquire(t.id)) {
      t.held.push_back(id);
      ++t.acquire_idx;
    } else {
      l.enqueue(t.id);
      t.st = ThreadCtx::St::kAcquiring;
      return;  // resumed by kLockGranted
    }
  }
  after_acquires(t);
}

void Machine::after_acquires(ThreadCtx& t) {
  if (t.d.mode == rt::Directive::Mode::kFallback) {
    t.pending_cost += cfg_.costs.cas;  // SGL acquisition round-trip
    if (sgl_.try_acquire(t.id)) {
      sgl_granted(t);
    } else {
      sgl_.enqueue(t.id);
      t.st = ThreadCtx::St::kQueuedSgl;
    }
    return;
  }
  continue_waits(t);
}

void Machine::continue_waits(ThreadCtx& t) {
  // Lemming avoidance (Alg. 4 line 55): wait for the SGL to be free, and
  // exploit the wait to run scheme maintenance (lines 52-54).
  if (t.d.wait_sgl && sgl_.is_locked()) {
    t.st = ThreadCtx::St::kWaitSglFree;
    sgl_.subscribe_free(t.id, t.gen);
    run_maintenance(t);
    return;
  }
  // Cooperative bounded waits on tx/core locks (lines 57-58).
  while (t.wait_idx < t.d.waits.size()) {
    const rt::LockId id = t.d.waits[t.wait_idx];
    SimLock& l = lock_of(id);
    if (l.is_locked() && l.owner() != t.id) {
      t.st = ThreadCtx::St::kCoopWait;
      l.subscribe_free(t.id, t.gen);
      push(now_ + cfg_.wait_budget, t.id, EventKind::kWaitTimeout, t.gen, id);
      return;
    }
    ++t.wait_idx;
  }
  start_hw(t);
}

void Machine::start_hw(ThreadCtx& t) {
  ++stats_.hw_attempts;
  emit<obs::Event::kTxBegin>(t.id, static_cast<std::uint64_t>(t.inst.type));
  // Alg. 1 lines 11-12: a transaction beginning while the fallback lock is
  // held aborts explicitly (the subscription check).
  if (sgl_.is_locked()) {
    t.pending_cost += cfg_.costs.xbegin;
    const auto status = htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked);
    stats_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
    emit<obs::Event::kAbort>(t.id, static_cast<std::uint64_t>(status.cause()));
    t.policy->on_abort(status, now_);
    ++t.gen;
    t.st = ThreadCtx::St::kIdle;
    push(now_ + t.pending_cost + cfg_.costs.abort_penalty + scan_cost(), t.id,
         EventKind::kResume, t.gen);
    t.pending_cost = 0;
    return;
  }

  in_hw_.set(t.id);
  t.st = ThreadCtx::St::kRunningHw;
  ++t.gen;
  const Time commit_at =
      now_ + t.pending_cost + cfg_.costs.xbegin + t.inst.duration;
  t.pending_cost = 0;
  t.hw_end = commit_at;
  push(commit_at, t.id, EventKind::kHwCommit, t.gen);

  // Eager conflict detection (TSX-style): when two concurrent transactions'
  // footprints overlap, the coherence traffic of whichever side issues the
  // conflicting access last aborts the other — one of the pair dies at some
  // point within their coexistence window. The victim learns only
  // "conflict", never the culprit, and its retry (same footprint!)
  // typically strikes back: the mutual-kill thrash that motivates
  // transaction scheduling in the first place. The overlapping pairs were
  // found once, when the instances were sampled (link_instance). They are
  // visited in ascending thread id, which fixes the order of the RNG draws
  // below — part of the simulated output.
  (t.conflicts & in_hw_).for_each([&](core::ThreadId id) {
    ThreadCtx& other = *threads_[id];
    const Time horizon = std::min(other.hw_end, commit_at);
    const Time window = horizon > now_ ? horizon - now_ : 1;
    // The conflict only materializes if the colliding accesses actually
    // interleave inside the coexistence window: accesses are spread over
    // each transaction's duration, so a brief overlap usually slips
    // through. This is what makes HTM conflicts *transient* — retrying
    // often succeeds — and blanket serialization overkill.
    const Time longest = std::max(t.inst.duration, other.inst.duration);
    const double p_hit =
        std::min(1.0, static_cast<double>(window) / static_cast<double>(longest));
    if (!t.rng.bernoulli(p_hit)) return;
    const Time when = now_ + t.rng.below(window);
    if (t.rng.bernoulli(cfg_.p_newcomer_aborts)) {
      t.pending_culprit = other.inst.type;
      t.pending_culprit_thread = static_cast<std::int32_t>(other.id);
      push(when, t.id, EventKind::kConflictAbort, t.gen);
    } else {
      other.pending_culprit = t.inst.type;
      other.pending_culprit_thread = static_cast<std::int32_t>(t.id);
      push(when, other.id, EventKind::kConflictAbort, other.gen);
    }
  });

  // Capacity: evaluate for this thread and re-evaluate every transactional
  // core-mate (whose effective budget we just shrank).
  t.capacity_scheduled = false;
  schedule_capacity_check(t);
  const std::size_t p = topo_.physical_cores();
  for (std::size_t m = topo_.core_of(t.id); m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && in_hw_.test(m)) {
      schedule_capacity_check(*threads_[m]);
    }
  }

  // Background aborts (interrupts, ring transitions, ...).
  if (t.rng.bernoulli(cfg_.p_other_abort) && t.inst.duration > 0) {
    push(now_ + t.rng.below(t.inst.duration), t.id, EventKind::kOtherAbort, t.gen);
  }
}

void Machine::schedule_capacity_check(ThreadCtx& t) {
  if (!in_hw_.test(t.id) || t.capacity_scheduled) return;
  if (t.footprint <= effective_capacity(t)) return;
  // The transaction will overflow its buffers partway through its
  // remaining execution. Once scheduled the abort is not cancelled even if
  // the sibling leaves: evicting a tracked line is irrecoverable in real
  // HTMs, so the damage is already committed.
  const Time remaining = t.hw_end > now_ ? t.hw_end - now_ : 0;
  const auto delay =
      static_cast<Time>(cfg_.capacity_abort_point * static_cast<double>(remaining));
  push(now_ + delay, t.id, EventKind::kCapacityAbort, t.gen);
  t.capacity_scheduled = true;
}

void Machine::hw_commit(ThreadCtx& t) {
  in_hw_.reset(t.id);
  ++t.gen;
  t.pending_cost += cfg_.costs.xcommit + scan_cost();
  finish_tx(t, /*hardware=*/true);
}

void Machine::abort_hw(ThreadCtx& t, htm::AbortStatus status) {
  assert(in_hw_.test(t.id));
  in_hw_.reset(t.id);
  ++t.gen;  // cancels the pending commit/capacity/other events
  stats_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
  emit<obs::Event::kAbort>(t.id, static_cast<std::uint64_t>(status.cause()));
  std::uint64_t numa_extra = 0;
  if (status.cause() == htm::AbortCause::kConflict &&
      t.pending_culprit != core::kNoTx) {
    // Ground truth the HTM would never reveal: who actually killed whom.
    stats_.gt_conflicts[static_cast<std::size_t>(t.inst.type) *
                            workload_->n_types() +
                        static_cast<std::size_t>(t.pending_culprit)]++;
    t.policy->on_conflict_attribution(t.pending_culprit);
    if (t.pending_culprit_thread >= 0 &&
        !topo_.same_socket(
            t.id, static_cast<core::ThreadId>(t.pending_culprit_thread))) {
      // Remote invalidations: the victim's working set was torn down over
      // the interconnect, so restart re-fetches lines cross-socket.
      numa_extra = cfg_.costs.numa_abort_penalty;
    }
  }
  t.pending_culprit = core::kNoTx;
  t.pending_culprit_thread = -1;
  t.policy->on_abort(status, now_);
  t.st = ThreadCtx::St::kIdle;
  push(now_ + cfg_.costs.abort_penalty + numa_extra + scan_cost(), t.id,
       EventKind::kResume, t.gen);
}

void Machine::sgl_granted(ThreadCtx& t) {
  assert(sgl_.owner() == t.id);
  t.st = ThreadCtx::St::kRunningSgl;
  ++t.gen;
  emit<obs::Event::kSglFallback>(t.id, static_cast<std::uint64_t>(t.inst.type));
  // Taking the fallback lock invalidates the subscription in every running
  // hardware transaction (Alg. 1's correctness handshake).
  const ThreadSet running = in_hw_;
  running.for_each([&](core::ThreadId id) {
    abort_hw(*threads_[id], htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked));
  });
  const auto body = static_cast<Time>(cfg_.sgl_duration_factor *
                                      static_cast<double>(t.inst.duration));
  push(now_ + t.pending_cost + body, t.id, EventKind::kSglBodyDone, t.gen);
  t.pending_cost = 0;
}

void Machine::sgl_done(ThreadCtx& t) {
  const auto out = sgl_.release(t.id);
  t.pending_cost += cfg_.costs.cas;
  if (out.granted) {
    push(now_ + handoff_cost(t.id, *out.granted), *out.granted,
         EventKind::kLockGranted, kAnyGen, rt::kSglLock);
  }
  for (const auto& n : out.notified) {
    push(now_, n.thread, EventKind::kFreeNotify, n.gen, rt::kSglLock);
  }
  finish_tx(t, /*hardware=*/false);
}

void Machine::finish_tx(ThreadCtx& t, bool hardware) {
  unlink_instance(t);
  const rt::CommitMode mode = rt::classify_commit(t.held, !hardware);
  stats_.commits_by_mode[static_cast<std::size_t>(mode)]++;
  ++stats_.commits;
  stats_.commits_by_type[static_cast<std::size_t>(t.inst.type)]++;
  emit<obs::Event::kCommit>(t.id, static_cast<std::uint64_t>(t.inst.type));

  const rt::LockList to_release = t.policy->on_commit(hardware, now_);
  for (const rt::LockId& id : to_release) release_one(t, id);
  assert(t.held.empty() && "policy leaked locks at commit");
  t.held.clear();

  stats_.serial_work += t.inst.duration;
  ++t.txs_done;
  if (arrivals_ != nullptr) {
    arrivals_->commit(t.id, now_, mode);
    pull(t);
    return;
  }
  if (t.txs_done >= cfg_.txs_per_thread || workload_->exhausted(t.id)) {
    t.st = ThreadCtx::St::kDone;
    ++done_count_;
    return;
  }
  t.st = ThreadCtx::St::kIdle;
  const std::uint64_t think = workload_->think_time(t.id, t.rng);
  stats_.serial_work += think;
  push(now_ + t.pending_cost + think, t.id, EventKind::kStartTx, kAnyGen);
  t.pending_cost = 0;
}

void Machine::link_instance(ThreadCtx& t) {
  // A footprint is fixed for the instance's lifetime (every retry reuses
  // it), so whether two live instances conflict is decided once, here,
  // instead of on every hardware attempt. Only live threads can be in
  // hardware, so the rows cover every pair start_hw can meet.
  assert(!live_.test(t.id));
  live_.for_each([&](core::ThreadId id) {
    ThreadCtx& other = *threads_[id];
    if (instances_conflict(t.inst, other.inst)) {
      t.conflicts.set(id);
      other.conflicts.set(t.id);
    }
  });
  live_.set(t.id);
}

void Machine::unlink_instance(ThreadCtx& t) {
  t.conflicts.for_each([&](core::ThreadId id) { threads_[id]->conflicts.reset(t.id); });
  t.conflicts = {};
  live_.reset(t.id);
}

void Machine::release_one(ThreadCtx& t, rt::LockId id) {
  auto it = std::find(t.held.begin(), t.held.end(), id);
  assert(it != t.held.end() && "policy released a lock the machine never took");
  if (it != t.held.end()) {
    *it = t.held.back();
    t.held.pop_back();
  }
  t.pending_cost += cfg_.costs.cas;
  const auto out = lock_of(id).release(t.id);
  if (out.granted) {
    push(now_ + handoff_cost(t.id, *out.granted), *out.granted,
         EventKind::kLockGranted, kAnyGen, id);
  }
  for (const auto& n : out.notified) {
    push(now_, n.thread, EventKind::kFreeNotify, n.gen, id);
  }
}

MachineStats run_machine(const MachineConfig& cfg, std::unique_ptr<Workload> workload) {
  Machine m(cfg, std::move(workload));
  return m.run();
}

}  // namespace seer::sim
