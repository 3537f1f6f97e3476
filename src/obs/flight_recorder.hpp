// FlightRecorder — a bounded ring of ModelSnapshots plus an anomaly trigger,
// the always-on "black box" for the Seer scheduler's learned model.
//
// The recorder never touches the per-transaction hot path. It is fed from
// exactly two places:
//   * note_sgl_fallback() — on the SGL fallback path (already the slow
//     path by definition; one relaxed atomic increment);
//   * on_rebuild() — once per scheme rebuild, on the designated maintenance
//     thread, with the exact lifetime tallies the scheduler already holds.
// on_rebuild() decides — from the capture period and the anomaly detectors —
// whether the caller should build a full ModelSnapshot and record() it. The
// expensive part (merging matrices, copying the scheme) therefore happens
// only for rebuilds that are actually retained.
//
// Anomaly detection works on the *window* between consecutive rebuilds:
//   abort storm — window abort rate (1 - commits/executions) crosses
//       `storm.abort_rate_enter`; re-arms below `storm.abort_rate_exit`;
//   SGL storm  — window SGL fallbacks per execution crosses
//       `storm.sgl_rate_enter`; re-arms below `storm.sgl_rate_exit`.
// Both detectors carry hysteresis so a rate hovering around the threshold
// produces one episode, not a capture per rebuild. Entering an episode
// forces a capture (reason "anomaly") regardless of the periodic cadence;
// episodes record their [start, end] rebuild/clock bounds and peak rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/storm_detector.hpp"
#include "obs/snapshot.hpp"

namespace seer::obs {

struct FlightRecorderConfig {
  // Snapshot ring capacity; older snapshots are overwritten (the drop count
  // survives, like the TraceSink rings).
  std::size_t capacity = 64;
  // Capture every `period`-th rebuild; 0 disables periodic capture (anomaly
  // and final captures still fire).
  std::uint64_t period = 8;
  // Abort-/SGL-storm thresholds and the evidence floor, with hysteresis:
  // the shared core state machine's config (core/storm_detector.hpp — the
  // same detector drives the scheduler's online re-inference loop).
  core::StormConfig storm{};
};

// Per-rebuild feed for the trigger logic: exact lifetime tallies, cheap to
// produce (the scheduler sums its raw slab counters anyway).
struct RebuildSample {
  std::uint64_t now = 0;
  std::uint64_t rebuild = 0;
  std::uint64_t executions = 0;
  std::uint64_t commits = 0;
};

struct AnomalyEpisode {
  enum class Kind : std::uint8_t { kAbortStorm, kSglStorm };
  Kind kind = Kind::kAbortStorm;
  std::uint64_t start_now = 0;
  std::uint64_t start_rebuild = 0;
  std::uint64_t end_now = 0;      // last rebuild observed inside the episode
  std::uint64_t end_rebuild = 0;
  double peak_rate = 0.0;
  bool open = true;  // still above the exit threshold at end of run
};

[[nodiscard]] constexpr const char* to_string(AnomalyEpisode::Kind k) noexcept {
  switch (k) {
    case AnomalyEpisode::Kind::kAbortStorm: return "abort_storm";
    case AnomalyEpisode::Kind::kSglStorm: return "sgl_storm";
  }
  return "?";
}

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- feed (any thread; the SGL path is already slow) ---------------------
  void note_sgl_fallback() noexcept {
    sgl_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sgl_fallbacks() const noexcept {
    return sgl_fallbacks_.load(std::memory_order_relaxed);
  }

  // --- trigger (designated maintenance thread only) ------------------------
  // Returns true when the caller should build a ModelSnapshot for this
  // rebuild and record() it; the reason to stamp is held internally.
  [[nodiscard]] bool on_rebuild(const RebuildSample& s);

  // Retains a snapshot, stamping its seq and the reason decided by the last
  // on_rebuild() (record) or kFinal (record_final, which also closes any
  // open anomaly episodes at the snapshot's clock).
  void record(ModelSnapshot&& snap);
  void record_final(ModelSnapshot&& snap);

  // Optional publish hook, invoked with each retained snapshot right after
  // it enters the ring — the live telemetry plane's /snapshot feed
  // (DESIGN.md §13). It runs on the recording thread, i.e. the maintenance
  // path of a scheme rebuild, which already pays for matrix merges and
  // allocations; the hook must still be cheap (render + pointer swap).
  // Set before any recording thread runs; not synchronized against record().
  void set_publish(std::function<void(const ModelSnapshot&)> fn) {
    publish_ = std::move(fn);
  }

  // --- introspection / export (after the embedding quiesces) ---------------
  [[nodiscard]] std::uint64_t captured() const noexcept { return captured_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return captured_ > ring_.size() ? captured_ - ring_.size() : 0;
  }
  // Retained snapshots in seq order (oldest first).
  [[nodiscard]] std::vector<const ModelSnapshot*> snapshots() const;
  [[nodiscard]] const std::vector<AnomalyEpisode>& episodes() const noexcept {
    return episodes_;
  }

  // Versioned dump: {"version": 1, "captured": N, "dropped": N,
  // "snapshots": [...], "anomalies": [...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  void push(ModelSnapshot&& snap);
  // Applies one detector transition to the episode records; returns true
  // when the episode opens now.
  bool note_transition(AnomalyEpisode::Kind kind,
                       const core::StormDetector::Transition& t,
                       const RebuildSample& s);

  FlightRecorderConfig cfg_;
  std::vector<ModelSnapshot> ring_;  // capacity-bounded, overwrite-oldest
  std::uint64_t captured_ = 0;
  std::function<void(const ModelSnapshot&)> publish_;

  std::atomic<std::uint64_t> sgl_fallbacks_{0};

  // Trigger state (maintenance thread only). The hysteresis/windowing state
  // machine is the shared core detector; the recorder keeps only the
  // episode bookkeeping layered on its transitions.
  SnapshotReason pending_reason_ = SnapshotReason::kPeriodic;
  std::uint64_t last_capture_rebuild_ = 0;
  core::StormDetector detector_;
  std::vector<AnomalyEpisode> episodes_;
};

}  // namespace seer::obs
