// Cross-backend differential harness for the SeerScheduler.
//
// Both drivers — the discrete-event simulator and the real-threads executor
// — talk to the scheduler through the same five calls (seer_scheduler.hpp),
// so the scheduler's decisions must be a pure function of the event stream
// it is fed: same trace in, same lock schemes and hill-climber moves out,
// regardless of which backend produced the trace. This harness makes that
// contract executable three ways:
//
//   * capture: an obs::SchedTraceRecorder attached to a backend's observer
//     (MachineConfig::events / ThreadedExecutor::Options::events) records
//     the live event stream and every rebuild decision (scheme rows +
//     thresholds);
//   * replay: feed a captured or synthetic stream into a freshly
//     constructed scheduler and collect the decisions it takes;
//   * diff: report the first divergence between two decision streams.
//
// Live-capture-equals-replay holds for deterministically driven runs (the
// simulator, or a single-thread round-robin over executor handles); under
// free-running threads the recorder still yields *a* consistent
// interleaving, but the racy slab merge at rebuild time may have seen a
// different prefix than the recorded order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/seer_scheduler.hpp"

namespace seer::check {

// The capture types are the observer spine's (obs/observer.hpp).
using obs::SchedDecision;
using obs::SchedEvent;
using obs::SchedTraceRecorder;

// Replays `events` into `sched` (freshly constructed, same SeerConfig as
// the capture) and returns the decisions it takes, read back after each
// maintenance call that rebuilt.
[[nodiscard]] std::vector<SchedDecision> replay_trace(
    core::SeerScheduler& sched, const std::vector<SchedEvent>& events);

// Deterministic synthetic trace: `n_transactions` plausible transaction
// lifecycles (announce → aborts* → commit-or-fallback → clear) interleaved
// across threads by a seeded RNG, with designated-thread maintenance calls
// on an advancing clock. The same (seed, shape) always yields the same
// trace, so it can be fed to scheduler instances owned by different
// backends and their decisions compared.
[[nodiscard]] std::vector<SchedEvent> make_synthetic_trace(
    std::uint64_t seed, std::size_t n_threads, std::size_t n_types,
    std::size_t n_transactions);

// "" when identical; otherwise a human-readable first divergence.
[[nodiscard]] std::string diff_decisions(const std::vector<SchedDecision>& a,
                                         const std::vector<SchedDecision>& b);

}  // namespace seer::check
