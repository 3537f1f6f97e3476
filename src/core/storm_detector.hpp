// Abort-storm / SGL-storm hysteresis detection over rebuild windows.
//
// This is the flight recorder's anomaly state machine (PR 4) extracted into
// the always-compiled core, because two consumers now need it:
//
//   * obs::FlightRecorder — decides which rebuilds retain a full model
//     snapshot (and keeps human-readable episode records);
//   * core::SeerScheduler — the online re-inference loop: entering a storm
//     triggers stats decay + immediate re-inference on the same rebuild.
//
// The scheduler's behaviour must not depend on whether a recorder is
// attached, so the detector lives here, not in src/obs.
//
// Semantics, unchanged from the recorder: the detector is fed LIFETIME
// tallies once per rebuild and works on the window since the last evaluated
// sample. Windows with fewer than `min_window_events` executions carry too
// little evidence and keep accumulating into the next one. Each detector
// (abort rate, SGL-fallbacks-per-execution rate) carries enter/exit
// hysteresis so a rate hovering around the threshold produces one episode,
// not a trigger per rebuild.
#pragma once

#include <algorithm>
#include <cstdint>

namespace seer::core {

struct StormConfig {
  // Abort-storm thresholds (window abort rate = 1 - commits/executions).
  double abort_rate_enter = 0.90;
  double abort_rate_exit = 0.60;
  // SGL-storm thresholds (window SGL fallbacks per execution).
  double sgl_rate_enter = 0.25;
  double sgl_rate_exit = 0.05;
  // Windows with fewer executions than this are skipped (they accumulate).
  std::uint64_t min_window_events = 64;
};

class StormDetector {
 public:
  struct Transition {
    bool entered = false;  // the episode opened on this window
    bool exited = false;   // the rate fell through the exit threshold
    bool active = false;   // state after this window
    double rate = 0.0;     // the window rate that was evaluated
  };
  struct Result {
    bool evaluated = false;  // false: window below min_window_events
    Transition abort_storm;
    Transition sgl_storm;
  };

  explicit StormDetector(const StormConfig& cfg = {}) : cfg_(cfg) {}

  // Feed the lifetime tallies at a rebuild boundary. The first call only
  // seeds the window base and never evaluates.
  Result on_window(std::uint64_t executions, std::uint64_t commits,
                   std::uint64_t sgl_fallbacks) noexcept {
    Result r;
    if (!has_base_) {
      has_base_ = true;
      base_execs_ = executions;
      base_commits_ = commits;
      base_sgl_ = sgl_fallbacks;
      return r;
    }
    const std::uint64_t events = executions - base_execs_;
    if (events < cfg_.min_window_events) return r;
    const double ev = static_cast<double>(events);
    const std::uint64_t wc = std::min(commits - base_commits_, events);
    const double abort_rate = 1.0 - static_cast<double>(wc) / ev;
    const double sgl_rate =
        static_cast<double>(sgl_fallbacks - base_sgl_) / ev;
    r.evaluated = true;
    r.abort_storm = step(&abort_active_, abort_rate, cfg_.abort_rate_enter,
                         cfg_.abort_rate_exit);
    r.sgl_storm =
        step(&sgl_active_, sgl_rate, cfg_.sgl_rate_enter, cfg_.sgl_rate_exit);
    base_execs_ = executions;
    base_commits_ = commits;
    base_sgl_ = sgl_fallbacks;
    return r;
  }

  [[nodiscard]] bool abort_storm_active() const noexcept { return abort_active_; }
  [[nodiscard]] bool sgl_storm_active() const noexcept { return sgl_active_; }

 private:
  static Transition step(bool* active, double rate, double enter,
                         double exit_level) noexcept {
    Transition t;
    t.rate = rate;
    if (!*active) {
      if (rate >= enter) {
        *active = true;
        t.entered = true;
      }
    } else if (rate <= exit_level) {
      *active = false;
      t.exited = true;
    }
    t.active = *active;
    return t;
  }

  StormConfig cfg_;
  bool has_base_ = false;
  std::uint64_t base_execs_ = 0;
  std::uint64_t base_commits_ = 0;
  std::uint64_t base_sgl_ = 0;
  bool abort_active_ = false;
  bool sgl_active_ = false;
};

}  // namespace seer::core
