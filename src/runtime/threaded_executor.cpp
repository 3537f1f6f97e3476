#include "runtime/threaded_executor.hpp"

#include <algorithm>
#include <thread>

#include "util/backoff.hpp"

namespace seer::rt {

ThreadedExecutor::ThreadedExecutor(htm::SoftHtm& tm, const PolicyConfig& policy,
                                   Options opts)
    : tm_(tm),
      opts_(opts),
      observer_(obs::Observer::make(
          obs::Layer::kRt, policy.kind == PolicyKind::kSeer,
          {opts.metrics, opts.trace, opts.recorder, opts.events})),
      shared_(with_shape(policy, opts), opts.n_threads, opts.n_types, observer_.get()),
      locks_(opts.n_types, opts.physical_cores) {}

void ThreadedExecutor::ThreadHandle::apply_releases(const Directive& d, LockList& held) {
  for (const LockId& id : d.releases) {
    exec_->locks_.get(id).unlock();
    auto it = std::find(held.begin(), held.end(), id);
    assert(it != held.end() && "policy released a lock the driver never took");
    if (it != held.end()) {
      *it = held.back();
      held.pop_back();
    }
  }
}

void ThreadedExecutor::ThreadHandle::acquire_locks(const Directive& d, LockList& held) {
  if (d.acquires.empty()) return;
  bool done = false;
  if (d.htm_batch && d.acquires.size() >= 2) {
    // §4's multi-CAS optimization: grab all locks all-or-nothing. On real
    // TSX this is one hardware transaction over the lock words; over the
    // software TM an equivalent atomic try-all (see DESIGN.md) keeps the
    // all-or-nothing semantics without transacting on directly-mutated
    // words.
    for (int attempt = 0; attempt < exec_->opts_.batch_tries && !done; ++attempt) {
      std::size_t got = 0;
      for (; got < d.acquires.size(); ++got) {
        if (!exec_->locks_.get(d.acquires[got]).try_lock()) break;
      }
      if (got == d.acquires.size()) {
        done = true;
      } else {
        for (std::size_t i = 0; i < got; ++i) {
          exec_->locks_.get(d.acquires[i]).unlock();
        }
        std::this_thread::yield();
      }
    }
  }
  if (!done) {
    // Blocking acquisition in the canonical order the policy supplied —
    // globally consistent, hence deadlock-free.
    for (const LockId& id : d.acquires) exec_->locks_.get(id).lock();
  }
  for (const LockId& id : d.acquires) held.push_back(id);
}

void ThreadedExecutor::ThreadHandle::wait_locks(const Directive& d) {
  if (d.wait_sgl) {
    // Alg. 4 line 55; while waiting, the designated thread opportunistically
    // refreshes the locking scheme (lines 52-54).
    WordLock& sgl = exec_->locks_.sgl();
    util::Backoff backoff;
    while (sgl.is_locked()) {
      policy_->maintenance(now());
      backoff.pause();
    }
  }
  // Cooperative waits are bounded: they are a scheduling heuristic, not a
  // correctness mechanism, and bounding them rules out waiting cycles.
  for (const LockId& id : d.waits) {
    const WordLock& l = exec_->locks_.get(id);
    util::Backoff backoff;
    for (std::uint64_t spin = 0;
         l.is_locked() && spin < exec_->opts_.wait_spin_budget; ++spin) {
      backoff.pause();
    }
  }
}

void ThreadedExecutor::ThreadHandle::finish(bool hardware, LockList& held) {
  const LockList to_release = policy_->on_commit(hardware, now());
  for (const LockId& id : to_release) {
    exec_->locks_.get(id).unlock();
    auto it = std::find(held.begin(), held.end(), id);
    assert(it != held.end() && "policy released a lock the driver never took");
    if (it != held.end()) {
      *it = held.back();
      held.pop_back();
    }
  }
  assert(held.empty() && "locks leaked across transaction completion");
  held.clear();
}

ExecutorStats ThreadedExecutor::aggregate(
    const std::vector<std::unique_ptr<ThreadHandle>>& handles) {
  ExecutorStats stats;
  for (const auto& h : handles) {
    if (!h) continue;
    const ThreadCounters& c = h->counters();
    for (std::size_t i = 0; i < c.commits_by_mode.size(); ++i) {
      stats.total.commits_by_mode[i] += c.commits_by_mode[i];
    }
    for (std::size_t i = 0; i < c.aborts_by_cause.size(); ++i) {
      stats.total.aborts_by_cause[i] += c.aborts_by_cause[i];
    }
    stats.total.hw_attempts += c.hw_attempts;
  }
  return stats;
}

}  // namespace seer::rt
