// Open-loop traffic description: the `open_loop` section of a workload
// config (DESIGN.md §12).
//
// A closed-loop driver (everything in bench/) issues the next transaction
// only after the previous one finished, so the system can never fall
// behind — throughput numbers survive, queueing never shows. An open-loop
// driver issues requests on a wall-clock (or virtual-clock) schedule that
// does not care whether the service keeps up; latency then includes queue
// wait, and overload appears as growing tails and shed requests instead of
// silently reduced offered load. The schedule here is:
//
//   rate(t) = base_rate * diurnal(t) * burst(t)
//
//   diurnal(t) = 1 + amplitude * sin(2*pi*t / period)     (optional)
//   burst(t)   = multiplier while t in [at, at+duration)  (each burst)
//
// sampled either as a constant process (gaps of exactly 1/rate(t)) or a
// non-homogeneous Poisson process (exponential gaps at the instantaneous
// rate). A `sweep` replaces the single base rate with a stepped series —
// one serve step per rate — which is how the harness finds the saturation
// knee.
//
// All validation happens at config-parse time and throws ConfigError naming
// the offending key (the registry front-door contract).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace seer::workload {

struct Burst {
  double at_s = 0.0;        // offset from step start (warmup included)
  double duration_s = 0.0;  // > 0
  double multiplier = 1.0;  // > 0; < 1 models a dip
};

struct Diurnal {
  double period_s = 0.0;   // 0 = disabled
  double amplitude = 0.0;  // in [0, 1)
};

struct OpenLoopConfig {
  // Exactly one of `rate` (single-step) or `sweep_rates` (stepped) is set.
  double rate = 0.0;                // requests/second, > 0 when single-step
  std::vector<double> sweep_rates;  // strictly increasing, all > 0

  enum class Process : std::uint8_t { kConstant, kPoisson };
  Process process = Process::kPoisson;

  double duration_s = 2.0;  // measured window per rate step
  double warmup_s = 0.0;    // excluded from step statistics
  std::uint64_t queue_capacity = 4096;  // admission queue bound (shed beyond)
  std::uint64_t workers = 4;            // service threads (CLI can override)
  std::uint64_t emit_interval_ms = 100; // JSONL interval-line cadence
  std::uint64_t table_words = 1u << 16; // TmWord table the requests run over
  // Deterministic backend: simulated machine cycles per microsecond.
  double cycles_per_us = 1000.0;

  Diurnal diurnal;
  std::vector<Burst> bursts;

  // Saturation-knee criteria for the step summary: the knee is the first
  // swept rate whose p99 exceeds knee_p99_ms (0 disables the latency
  // criterion) or whose rejected fraction exceeds knee_rejected_fraction.
  double knee_p99_ms = 0.0;
  double knee_rejected_fraction = 0.01;

  // The rates the harness actually serves, in step order.
  [[nodiscard]] std::vector<double> rates() const {
    return sweep_rates.empty() ? std::vector<double>{rate} : sweep_rates;
  }

  // Parses and validates one `open_loop` object; `origin` prefixes
  // diagnostics ("serve.json: open_loop"). Throws ConfigError.
  [[nodiscard]] static OpenLoopConfig from_json(const util::json::Value& obj,
                                                const std::string& origin);
};

[[nodiscard]] const char* to_string(OpenLoopConfig::Process p) noexcept;

// The arrival process for one rate step: deterministic given (config, base
// rate, rng seed), which is the deterministic-mode byte-identity contract.
class ArrivalSchedule {
 public:
  ArrivalSchedule(const OpenLoopConfig& cfg, double base_rate) noexcept
      : cfg_(&cfg), base_rate_(base_rate) {}

  // Instantaneous offered rate (requests/second) at `t_s` since step start.
  [[nodiscard]] double rate_at(double t_s) const noexcept;

  // Gap (ns) from an arrival at `t_s` to the next one. Always >= 1.
  [[nodiscard]] std::uint64_t next_gap_ns(double t_s, util::Xoshiro256& rng) const;

  [[nodiscard]] double base_rate() const noexcept { return base_rate_; }

 private:
  const OpenLoopConfig* cfg_;
  double base_rate_;
};

}  // namespace seer::workload
