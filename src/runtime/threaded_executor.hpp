// ThreadedExecutor — the real-threads driver of the policy protocol.
//
// Reifies the symbolic lock space as WordLocks, runs transaction bodies over
// a SoftHtm (or, with SEER_ENABLE_TSX, real RTM hardware) and drives any
// Policy through the protocol documented in policy.hpp. This is the
// embedding a downstream user links against: create one executor, one
// ThreadHandle per thread, and call handle.run(txType, body).
//
// The transaction body must be a generic callable `void(auto& tx)` using
// only tx.read / tx.write / tx.abort on htm::TmWord memory. Both paths run
// it through SoftHtm: speculatively with hardware-like capacity limits, or
// — on the single-global-lock fallback — as an unbounded stripe-coordinated
// transaction retried while holding the SGL (which keeps pessimistic
// updates atomic against in-flight speculative commits).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/topology.hpp"
#include "htm/soft_htm.hpp"
#include "obs/observer.hpp"
#include "runtime/policies.hpp"
#include "runtime/policy.hpp"
#include "runtime/word_lock.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace seer::rt {

// The concrete lock objects behind the symbolic LockIds.
class LockSpace {
 public:
  LockSpace(std::size_t n_types, std::size_t physical_cores)
      : tx_locks_(n_types), core_locks_(physical_cores) {}

  [[nodiscard]] WordLock& sgl() noexcept { return sgl_; }

  [[nodiscard]] WordLock& get(LockId id) noexcept {
    switch (id.kind) {
      case LockKind::kSgl: return sgl_;
      case LockKind::kAux: return aux_;
      case LockKind::kSched: return sched_;
      case LockKind::kTx: return tx_locks_[id.index].value;
      case LockKind::kCore: return core_locks_[id.index].value;
    }
    __builtin_unreachable();
  }

 private:
  WordLock sgl_;
  WordLock aux_;
  WordLock sched_;
  std::vector<util::Padded<WordLock>> tx_locks_;
  std::vector<util::Padded<WordLock>> core_locks_;
};

// Per-thread outcome counters (single-writer; summed on demand).
struct ThreadCounters {
  std::array<std::uint64_t, static_cast<std::size_t>(CommitMode::kModeCount)>
      commits_by_mode{};
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause
  std::uint64_t hw_attempts = 0;
};

struct ExecutorStats {
  ThreadCounters total;

  [[nodiscard]] std::uint64_t commits() const noexcept {
    std::uint64_t n = 0;
    for (auto c : total.commits_by_mode) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t aborts() const noexcept {
    std::uint64_t n = 0;
    for (auto c : total.aborts_by_cause) n += c;
    return n;
  }
  [[nodiscard]] double mode_fraction(CommitMode m) const noexcept {
    const std::uint64_t c = commits();
    return c == 0 ? 0.0
                  : static_cast<double>(
                        total.commits_by_mode[static_cast<std::size_t>(m)]) /
                        static_cast<double>(c);
  }
};

class ThreadedExecutor {
 public:
  struct Options {
    std::size_t n_threads = 4;
    std::size_t n_types = 4;
    std::size_t physical_cores = 4;
    // Optional machine shape forwarded to the Seer scheduler (NUMA-aware
    // shard layout). When set, keep physical_cores equal to its
    // sockets x cores_per_socket — LockSpace's core slice is sized from
    // physical_cores and the scheduler derives the same count from the
    // topology.
    std::optional<core::Topology> topology;
    // Spin budget for cooperative (non-acquiring) waits on tx/core locks.
    // Bounded so that the wait heuristic can never deadlock (DESIGN.md).
    std::uint64_t wait_spin_budget = 1u << 14;
    // All-or-nothing batched lock acquisition attempts before falling back
    // to blocking in-order acquisition.
    int batch_tries = 8;

    // --- observability (src/obs/, DESIGN.md §8) --------------------------
    // Optional sinks. The executor builds one obs::Observer over them and
    // hands it to the Seer scheduler, every handle and every handle's SoftHtm
    // context. All must outlive the executor; the embedder freezes the
    // registry after constructing the executor and before spawning threads.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceSink* trace = nullptr;
    // Model flight recorder: fed SGL grants and the Seer scheduler's
    // periodic/anomaly snapshots (seer_serve's /snapshot feed).
    obs::FlightRecorder* recorder = nullptr;
    // Check-harness capture of the Seer scheduler's event stream and rebuild
    // decisions (src/check/differential.hpp).
    obs::SchedTraceRecorder* events = nullptr;
  };

  ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy, Options opts);

  class ThreadHandle {
   public:
    // Executes one transaction of type `tx` to completion under the policy.
    // Returns how it ultimately committed.
    template <typename Body>
    CommitMode run(core::TxTypeId tx, Body&& body) {
      assert(tx >= 0 && static_cast<std::size_t>(tx) < exec_->opts_.n_types);
      policy_->maintenance(now());
      policy_->begin_tx(tx, now());
      LockList held;
      std::uint64_t tx_attempts = 0;
      const auto type = static_cast<std::uint64_t>(tx);  // event payload
      while (true) {
        const Directive d = policy_->next_attempt(now());
        apply_releases(d, held);
        acquire_locks(d, held);
        if (d.mode == Directive::Mode::kFallback) {
          run_fallback(type, body);
          emit<obs::Event::kCommit>(type, tx_attempts);
          finish(/*hardware=*/false, held);
          return CommitMode::kSglFallback;
        }
        wait_locks(d);
        ++counters_.hw_attempts;
        ++tx_attempts;
        emit<obs::Event::kTxBegin>(type);
        const htm::AbortStatus status = hw_attempt(body);
        if (status.raw() == htm::kXBeginStarted) {
          const CommitMode mode = classify_commit(held, /*used_sgl=*/false);
          counters_.commits_by_mode[static_cast<std::size_t>(mode)]++;
          emit<obs::Event::kCommit>(type, tx_attempts);
          finish(/*hardware=*/true, held);
          return mode;
        }
        counters_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
        emit<obs::Event::kAbort>(static_cast<std::uint64_t>(status.cause()));
        policy_->on_abort(status, now());
      }
    }

    [[nodiscard]] const ThreadCounters& counters() const noexcept { return counters_; }
    [[nodiscard]] core::ThreadId id() const noexcept { return id_; }

    // --- check-harness instrumentation (src/check/) ----------------------
    // Per-thread hooks into the underlying SoftHtm context: deterministic
    // abort injection and commit logging for the opacity checker. Install
    // before the owning thread starts running transactions; the injector /
    // log must outlive every run() on this handle.
    void set_fault_injector(htm::FaultInjector* injector) noexcept {
      tm_ctx_.set_fault_injector(injector);
    }
    void set_tx_log(htm::TxLog* log) noexcept { tm_ctx_.set_tx_log(log); }

   private:
    friend class ThreadedExecutor;
    ThreadHandle(ThreadedExecutor& exec, core::ThreadId id)
        : exec_(&exec),
          observer_(exec.observer_.get()),
          id_(id),
          tm_ctx_(exec.tm_, observer_, id),
          policy_(exec.shared_.make_thread_policy(id)) {}

    // The one instrumentation point: one null test per event. For kCommit
    // `value` is the retry depth (hardware attempts consumed, 0 = straight
    // to the SGL).
    template <obs::Event E>
    void emit(std::uint64_t arg, std::uint64_t value = 0) noexcept {
      if (observer_) observer_->emit<obs::Layer::kRt, E>(id_, arg, 0, value);
    }

    template <typename Body>
    htm::AbortStatus hw_attempt(Body&& body) {
      WordLock& sgl = exec_->locks_.sgl();
      return tm_ctx_.attempt([&](htm::SoftHtm::Tx& tx) {
        // Alg. 1 lines 11-12: abort explicitly if the fallback is in use;
        // subscribing to the observed sequence snapshot aborts us on any
        // later acquisition — including a full acquire/release cycle (the
        // release advances the sequence, so there is no ABA window).
        const std::uint64_t snapshot = sgl.sequence();
        if ((snapshot & 1) != 0) tx.abort(htm::kXAbortCodeSglLocked);
        tx.subscribe(sgl.word(), snapshot);
        body(tx);
      });
    }

    template <typename Body>
    void run_fallback(std::uint64_t type, Body&& body) {
      // Pessimistic path: hold the SGL (blocking new hardware attempts via
      // their subscription) and run the body as an unbounded, stripe-
      // coordinated transaction so its updates are atomic even against
      // hardware transactions that were already mid-commit when we took the
      // lock. Those in-flight commits drain quickly — new ones cannot start
      // while we hold the SGL — so the retry loop terminates.
      WordLock& sgl = exec_->locks_.sgl();
      sgl.lock();
      // Observed at grant time, as the simulator does (Machine::sgl_granted).
      emit<obs::Event::kSglFallback>(type);
      util::Backoff backoff;
      while (true) {
        const htm::AbortStatus s =
            tm_ctx_.attempt_unbounded([&](htm::SoftHtm::Tx& tx) { body(tx); });
        if (s.raw() == htm::kXBeginStarted) break;
        backoff.pause();
      }
      sgl.unlock();
      counters_.commits_by_mode[static_cast<std::size_t>(CommitMode::kSglFallback)]++;
    }

    void apply_releases(const Directive& d, LockList& held);
    void acquire_locks(const Directive& d, LockList& held);
    void wait_locks(const Directive& d);
    void finish(bool hardware, LockList& held);

    // The paper's RDTSC-based feedback clock, shared with the trace ring.
    [[nodiscard]] static std::uint64_t now() noexcept { return obs::now_ticks(); }

    ThreadedExecutor* exec_;
    obs::Observer* observer_;
    core::ThreadId id_;
    htm::SoftHtm::ThreadContext tm_ctx_;
    std::unique_ptr<Policy> policy_;
    ThreadCounters counters_;
  };

  // One handle per thread; create before spawning, use strictly from the
  // owning thread.
  [[nodiscard]] std::unique_ptr<ThreadHandle> make_handle(core::ThreadId id) {
    assert(id < opts_.n_threads);
    return std::unique_ptr<ThreadHandle>(new ThreadHandle(*this, id));
  }

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] PolicyShared& policy_shared() noexcept { return shared_; }
  [[nodiscard]] LockSpace& lock_space() noexcept { return locks_; }

  // Sums counters across the given handles (call after joining workers).
  [[nodiscard]] static ExecutorStats aggregate(
      const std::vector<std::unique_ptr<ThreadHandle>>& handles);

 private:
  friend class ThreadHandle;

  // Resolves the executor's machine shape into the Seer scheduler's config.
  [[nodiscard]] static PolicyConfig with_shape(PolicyConfig policy, const Options& opts) {
    if (opts.topology && !policy.seer.topology) {
      policy.seer.topology = opts.topology;
    }
    // LockSpace is sized from opts.physical_cores; SeerPolicy indexes its core
    // slice with my_core_ = thread % seer.physical_cores, so keep them in sync.
    policy.seer.physical_cores = opts.physical_cores;
    return policy;
  }

  htm::SoftHtm& tm_;
  Options opts_;
  // Null unless a sink is attached; built before shared_ (the scheduler's
  // metrics register first, then rt.* and htm.*).
  std::unique_ptr<obs::Observer> observer_;
  PolicyShared shared_;
  LockSpace locks_;
};

}  // namespace seer::rt
