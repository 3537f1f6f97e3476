#include "check/differential.hpp"

#include <cstdio>

#include "util/rng.hpp"

namespace seer::check {

std::vector<SchedDecision> replay_trace(core::SeerScheduler& sched,
                                        const std::vector<SchedEvent>& events) {
  std::vector<SchedDecision> decisions;
  for (const SchedEvent& e : events) {
    const std::uint64_t rebuilds = sched.rebuild_count();
    switch (e.kind) {
      case obs::Event::kAnnounce: sched.announce(e.thread, e.tx); break;
      case obs::Event::kClear: sched.clear(e.thread); break;
      case obs::Event::kAbort: sched.record_abort(e.thread, e.tx); break;
      case obs::Event::kCommit: sched.record_commit(e.thread, e.tx); break;
      case obs::Event::kMaybeUpdate: (void)sched.maybe_update(e.thread, e.now); break;
      case obs::Event::kForceUpdate: sched.force_update(e.now); break;
      default: break;  // not a scheduler call
    }
    // A call that rebuilt published exactly one decision.
    if (sched.rebuild_count() != rebuilds) {
      decisions.push_back(
          {sched.rebuild_count(), sched.params(), sched.scheme()->to_rows()});
    }
  }
  return decisions;
}

std::vector<SchedEvent> make_synthetic_trace(std::uint64_t seed,
                                                   std::size_t n_threads,
                                                   std::size_t n_types,
                                                   std::size_t n_transactions) {
  using Kind = obs::Event;
  util::Xoshiro256 rng(seed);
  std::vector<SchedEvent> trace;

  // Per-thread lifecycle state: the announced type (kNoTx when idle) and
  // the aborts left before this transaction resolves.
  struct ThreadState {
    core::TxTypeId tx = core::kNoTx;
    int aborts_left = 0;
  };
  std::vector<ThreadState> threads(n_threads);

  std::uint64_t now = 0;
  std::size_t started = 0;
  std::size_t live = 0;
  while (started < n_transactions || live > 0) {
    const auto t = static_cast<core::ThreadId>(rng.below(n_threads));
    ThreadState& st = threads[t];
    now += 1 + rng.below(50);

    if (st.tx == core::kNoTx) {
      if (started >= n_transactions) continue;
      st.tx = static_cast<core::TxTypeId>(rng.below(n_types));
      st.aborts_left = static_cast<int>(rng.below(4));
      ++started;
      ++live;
      trace.push_back({Kind::kAnnounce, t, st.tx, 0});
      // Drivers run maintenance on the start path (DESIGN.md deviation #1).
      trace.push_back({Kind::kMaybeUpdate, t, core::kNoTx, now});
      continue;
    }
    if (st.aborts_left > 0) {
      --st.aborts_left;
      trace.push_back({Kind::kAbort, t, st.tx, 0});
      continue;
    }
    // Resolve: mostly a hardware commit, sometimes an SGL fallback, which
    // clears the announcement without recording a commit (Alg. 2 line 28).
    if (!rng.bernoulli(0.15)) trace.push_back({Kind::kCommit, t, st.tx, 0});
    trace.push_back({Kind::kClear, t, core::kNoTx, 0});
    st.tx = core::kNoTx;
    --live;
  }
  return trace;
}

std::string diff_decisions(const std::vector<SchedDecision>& a,
                           const std::vector<SchedDecision>& b) {
  char buf[160];
  if (a.size() != b.size()) {
    std::snprintf(buf, sizeof(buf), "decision counts differ: %zu vs %zu", a.size(),
                  b.size());
    return buf;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      std::snprintf(buf, sizeof(buf),
                    "decision %zu diverges (rebuild %llu vs %llu, th1 %.6f/%.6f, "
                    "th2 %.6f/%.6f, rows %s)",
                    i, static_cast<unsigned long long>(a[i].rebuild),
                    static_cast<unsigned long long>(b[i].rebuild), a[i].params.th1,
                    b[i].params.th1, a[i].params.th2, b[i].params.th2,
                    a[i].rows == b[i].rows ? "equal" : "differ");
      return buf;
    }
  }
  return "";
}

}  // namespace seer::check
