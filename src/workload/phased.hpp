// Phased workload: config-driven contention-regime shifts.
//
// A run is divided at progress boundaries into regimes, each a full
// stamp-style spec (stamp/spec.hpp geometry). All regimes share one
// transaction-type vocabulary and one region layout — same shared memory,
// different behavior — so what shifts at a boundary is the conflict
// structure itself: which type pairs collide, how hot each region runs.
// This is the workload that stresses Seer's stats decay and re-inference
// (ROADMAP item 4): the scheduler's learned pair probabilities must chase a
// moving ground truth.
//
// Config (the "params" object of a "phased" registry config):
//   {
//     "think_mean": 300,                       // optional, cycles
//     "phases": [
//       {"until": 0.5, "spec": { ...spec_config.hpp schema... }},
//       {"until": 1.0, "spec": { ... }}
//     ]
//   }
// "until" values are strictly increasing, in (0, 1], and the last must
// reach 1.0. Regime specs must agree on type names and on region
// name/size/per_thread layout (zipf skew and accesses may differ).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "stamp/spec.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace seer::workload {

class PhasedWorkload final : public Generator {
 public:
  struct Regime {
    double until = 1.0;  // active while progress < until
    std::shared_ptr<const stamp::CompiledSpec> spec;
  };
  // A parsed config: immutable, shared by every workload made from it.
  struct Plan {
    std::string name;
    std::uint64_t think_mean = 300;
    std::vector<Regime> regimes;
  };

  // Validated parse of the params JSON. Throws ConfigError naming the bad
  // key. `origin` prefixes diagnostics (usually "params").
  [[nodiscard]] static std::shared_ptr<const Plan> parse(const util::json::Value& params,
                                                         const std::string& origin,
                                                         const std::string& name);
  // parse + construct.
  [[nodiscard]] static std::unique_ptr<PhasedWorkload> from_json(
      const util::json::Value& params, const std::string& origin,
      const std::string& name, std::size_t n_threads);

  PhasedWorkload(std::shared_ptr<const Plan> plan, std::size_t n_threads);

  [[nodiscard]] const std::string& name() const override { return plan_->name; }
  [[nodiscard]] std::size_t n_types() const override;
  [[nodiscard]] const std::string& type_name(core::TxTypeId t) const override;

  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            TxInstance& out) override;
  [[nodiscard]] std::uint64_t think_time(core::ThreadId thread,
                                         util::Xoshiro256& rng) override;

  // Which regime is active at `progress` (tests pin boundary semantics).
  [[nodiscard]] std::size_t regime_index(double progress) const noexcept;
  [[nodiscard]] std::size_t n_regimes() const noexcept { return regimes_.size(); }

 private:
  std::shared_ptr<const Plan> plan_;
  std::vector<std::unique_ptr<stamp::SpecWorkload>> regimes_;
};

}  // namespace seer::workload
