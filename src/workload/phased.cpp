#include "workload/phased.hpp"

#include <algorithm>
#include <cmath>

#include "workload/json_util.hpp"
#include "workload/spec_config.hpp"

namespace seer::workload {

using jsonu::Value;

std::shared_ptr<const PhasedWorkload::Plan> PhasedWorkload::parse(
    const Value& params, const std::string& origin, const std::string& name) {
  jsonu::reject_unknown(params, {"think_mean", "phases"}, origin);
  const std::uint64_t think_mean = jsonu::opt_u64(params, "think_mean", 300, origin);

  const Value& phases = jsonu::require_array(params, "phases", origin);
  if (phases.array.empty()) {
    jsonu::fail(jsonu::sub(origin, "phases"), "must not be empty");
  }
  auto plan = std::make_shared<Plan>();
  plan->name = name;
  plan->think_mean = think_mean;
  std::vector<Regime>& regimes = plan->regimes;
  regimes.reserve(phases.array.size());
  double prev_until = 0.0;
  for (std::size_t i = 0; i < phases.array.size(); ++i) {
    const std::string po = jsonu::at(jsonu::sub(origin, "phases"), i);
    const Value& ph = phases.array[i];
    jsonu::reject_unknown(ph, {"until", "spec"}, po);
    Regime regime;
    regime.until = jsonu::require_num(ph, "until", po);
    if (regime.until <= 0.0 || regime.until > 1.0) {
      jsonu::fail(jsonu::sub(po, "until"), "must be in (0, 1]");
    }
    if (regime.until <= prev_until) {
      jsonu::fail(jsonu::sub(po, "until"), "must be strictly increasing");
    }
    prev_until = regime.until;
    const Value& spec = jsonu::require_object(ph, "spec", po);
    if (spec.find("think_mean") != nullptr) {
      jsonu::fail(jsonu::sub(jsonu::sub(po, "spec"), "think_mean"),
                  "set the phased generator's top-level think_mean instead");
    }
    regime.spec = std::make_shared<const stamp::CompiledSpec>(spec_from_json(
        spec, jsonu::sub(po, "spec"), name + "#" + std::to_string(i)));
    regimes.push_back(std::move(regime));
  }
  if (prev_until < 1.0) {
    jsonu::fail(jsonu::sub(origin, "phases"),
                "last \"until\" must reach 1.0 (got " + std::to_string(prev_until) +
                    "); the regimes must cover the whole run");
  }

  // One vocabulary, one memory: regimes must agree on the type list and on
  // region layout so a shift changes behavior, not the address space.
  const stamp::WorkloadSpec& first = regimes.front().spec->spec;
  for (std::size_t i = 1; i < regimes.size(); ++i) {
    const std::string po = jsonu::at(jsonu::sub(origin, "phases"), i);
    const stamp::WorkloadSpec& s = regimes[i].spec->spec;
    if (s.types.size() != first.types.size()) {
      jsonu::fail(jsonu::sub(po, "spec"),
                  "all phases must declare the same transaction types");
    }
    for (std::size_t t = 0; t < s.types.size(); ++t) {
      if (s.types[t].name != first.types[t].name) {
        jsonu::fail(jsonu::sub(po, "spec"),
                    "type " + std::to_string(t) + " is \"" + s.types[t].name +
                        "\" but phase 0 names it \"" + first.types[t].name + "\"");
      }
    }
    if (s.regions.size() != first.regions.size()) {
      jsonu::fail(jsonu::sub(po, "spec"),
                  "all phases must declare the same region layout");
    }
    for (std::size_t r = 0; r < s.regions.size(); ++r) {
      const stamp::Region& a = first.regions[r];
      const stamp::Region& b = s.regions[r];
      if (a.name != b.name || a.lines != b.lines || a.per_thread != b.per_thread) {
        jsonu::fail(jsonu::sub(po, "spec"),
                    "region \"" + b.name + "\" must match phase 0's \"" + a.name +
                        "\" in name, lines, and per_thread (zipf_skew may differ)");
      }
    }
  }

  return plan;
}

std::unique_ptr<PhasedWorkload> PhasedWorkload::from_json(const Value& params,
                                                          const std::string& origin,
                                                          const std::string& name,
                                                          std::size_t n_threads) {
  return std::make_unique<PhasedWorkload>(parse(params, origin, name), n_threads);
}

PhasedWorkload::PhasedWorkload(std::shared_ptr<const Plan> plan, std::size_t n_threads)
    : plan_(std::move(plan)) {
  regimes_.reserve(plan_->regimes.size());
  for (const Regime& r : plan_->regimes) {
    regimes_.push_back(std::make_unique<stamp::SpecWorkload>(r.spec, n_threads));
  }
}

std::size_t PhasedWorkload::n_types() const { return regimes_.front()->n_types(); }

const std::string& PhasedWorkload::type_name(core::TxTypeId t) const {
  return regimes_.front()->type_name(t);
}

std::size_t PhasedWorkload::regime_index(double progress) const noexcept {
  const std::vector<Regime>& regimes = plan_->regimes;
  for (std::size_t i = 0; i + 1 < regimes.size(); ++i) {
    if (progress < regimes[i].until) return i;
  }
  return regimes.size() - 1;
}

void PhasedWorkload::next(core::ThreadId thread, double progress,
                          util::Xoshiro256& rng, TxInstance& out) {
  regimes_[regime_index(progress)]->next(thread, progress, rng, out);
}

std::uint64_t PhasedWorkload::think_time(core::ThreadId /*thread*/,
                                         util::Xoshiro256& rng) {
  if (plan_->think_mean == 0) return 0;
  const double u = std::max(rng.uniform01(), 1e-12);
  return static_cast<std::uint64_t>(-static_cast<double>(plan_->think_mean) *
                                    std::log(u));
}

}  // namespace seer::workload
