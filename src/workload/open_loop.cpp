#include "workload/open_loop.hpp"

#include <algorithm>

#include "workload/json_util.hpp"

namespace seer::workload {

using jsonu::Value;

const char* to_string(OpenLoopConfig::Process p) noexcept {
  switch (p) {
    case OpenLoopConfig::Process::kConstant: return "constant";
    case OpenLoopConfig::Process::kPoisson: return "poisson";
  }
  return "?";
}

namespace {

double require_positive(const Value& obj, const char* key, double fallback,
                        const std::string& origin) {
  const double v = jsonu::opt_num(obj, key, fallback, origin);
  if (!(v > 0.0)) jsonu::fail(jsonu::sub(origin, key), "must be > 0");
  return v;
}

Diurnal parse_diurnal(const Value& obj, const std::string& origin) {
  jsonu::reject_unknown(obj, {"period_s", "amplitude"}, origin);
  Diurnal d;
  d.period_s = jsonu::require_num(obj, "period_s", origin);
  if (!(d.period_s > 0.0)) jsonu::fail(jsonu::sub(origin, "period_s"), "must be > 0");
  d.amplitude = jsonu::require_num(obj, "amplitude", origin);
  if (d.amplitude < 0.0 || d.amplitude >= 1.0) {
    jsonu::fail(jsonu::sub(origin, "amplitude"), "must be in [0, 1)");
  }
  return d;
}

Burst parse_burst(const Value& obj, const std::string& origin) {
  jsonu::reject_unknown(obj, {"at_s", "duration_s", "multiplier"}, origin);
  Burst b;
  b.at_s = jsonu::require_num(obj, "at_s", origin);
  if (b.at_s < 0.0) jsonu::fail(jsonu::sub(origin, "at_s"), "must be >= 0");
  b.duration_s = jsonu::require_num(obj, "duration_s", origin);
  if (!(b.duration_s > 0.0)) {
    jsonu::fail(jsonu::sub(origin, "duration_s"), "must be > 0");
  }
  b.multiplier = jsonu::require_num(obj, "multiplier", origin);
  if (!(b.multiplier > 0.0)) {
    jsonu::fail(jsonu::sub(origin, "multiplier"), "must be > 0");
  }
  return b;
}

}  // namespace

OpenLoopConfig OpenLoopConfig::from_json(const Value& obj,
                                         const std::string& origin) {
  if (!obj.is_object()) jsonu::fail(origin, "expected an object");
  jsonu::reject_unknown(obj,
                        {"rate", "process", "duration_s", "warmup_s",
                         "queue_capacity", "workers", "emit_interval_ms",
                         "table_words", "cycles_per_us", "diurnal", "bursts",
                         "sweep"},
                        origin);
  OpenLoopConfig cfg;

  const Value* sweep = obj.find("sweep");
  const Value* rate = obj.find("rate");
  if (sweep != nullptr && rate != nullptr) {
    jsonu::fail(jsonu::sub(origin, "rate"),
                "mutually exclusive with \"sweep\" (the sweep's rates replace it)");
  }
  if (sweep == nullptr && rate == nullptr) {
    jsonu::fail(origin, "missing required key \"rate\" (or a \"sweep\")");
  }
  if (rate != nullptr) {
    cfg.rate = require_positive(obj, "rate", 0.0, origin);
  }
  if (sweep != nullptr) {
    const std::string sorigin = jsonu::sub(origin, "sweep");
    if (!sweep->is_object()) jsonu::fail(sorigin, "must be an object");
    jsonu::reject_unknown(*sweep,
                          {"rates", "knee_p99_ms", "knee_rejected_fraction"},
                          sorigin);
    const Value& rates = jsonu::require_array(*sweep, "rates", sorigin);
    if (rates.array.empty()) {
      jsonu::fail(jsonu::sub(sorigin, "rates"), "must not be empty");
    }
    for (std::size_t i = 0; i < rates.array.size(); ++i) {
      const Value& r = rates.array[i];
      const std::string rorigin = jsonu::at(jsonu::sub(sorigin, "rates"), i);
      if (!r.is_number() || !(r.number > 0.0)) {
        jsonu::fail(rorigin, "must be a number > 0");
      }
      if (i > 0 && r.number <= cfg.sweep_rates.back()) {
        jsonu::fail(rorigin, "rates must be strictly increasing");
      }
      cfg.sweep_rates.push_back(r.number);
    }
    cfg.knee_p99_ms = jsonu::opt_num(*sweep, "knee_p99_ms", 0.0, sorigin);
    if (cfg.knee_p99_ms < 0.0) {
      jsonu::fail(jsonu::sub(sorigin, "knee_p99_ms"), "must be >= 0");
    }
    cfg.knee_rejected_fraction =
        jsonu::opt_num(*sweep, "knee_rejected_fraction", 0.01, sorigin);
    if (cfg.knee_rejected_fraction < 0.0 || cfg.knee_rejected_fraction > 1.0) {
      jsonu::fail(jsonu::sub(sorigin, "knee_rejected_fraction"),
                  "must be in [0, 1]");
    }
  }

  if (const Value* p = obj.find("process"); p != nullptr) {
    if (!p->is_string()) jsonu::fail(jsonu::sub(origin, "process"), "must be a string");
    if (p->string == "constant") {
      cfg.process = Process::kConstant;
    } else if (p->string == "poisson") {
      cfg.process = Process::kPoisson;
    } else {
      jsonu::fail(jsonu::sub(origin, "process"),
                  "unknown process \"" + p->string +
                      "\" (known: constant, poisson)");
    }
  }

  cfg.duration_s = require_positive(obj, "duration_s", cfg.duration_s, origin);
  cfg.warmup_s = jsonu::opt_num(obj, "warmup_s", cfg.warmup_s, origin);
  if (cfg.warmup_s < 0.0) jsonu::fail(jsonu::sub(origin, "warmup_s"), "must be >= 0");

  cfg.queue_capacity =
      jsonu::opt_u64(obj, "queue_capacity", cfg.queue_capacity, origin);
  if (cfg.queue_capacity == 0 || cfg.queue_capacity > (1u << 24)) {
    jsonu::fail(jsonu::sub(origin, "queue_capacity"),
                "must be in [1, 2^24]");
  }
  cfg.workers = jsonu::opt_u64(obj, "workers", cfg.workers, origin);
  if (cfg.workers == 0 || cfg.workers > 256) {
    jsonu::fail(jsonu::sub(origin, "workers"), "must be in [1, 256]");
  }
  cfg.emit_interval_ms =
      jsonu::opt_u64(obj, "emit_interval_ms", cfg.emit_interval_ms, origin);
  if (cfg.emit_interval_ms == 0) {
    jsonu::fail(jsonu::sub(origin, "emit_interval_ms"), "must be >= 1");
  }
  cfg.table_words = jsonu::opt_u64(obj, "table_words", cfg.table_words, origin);
  if (cfg.table_words == 0) {
    jsonu::fail(jsonu::sub(origin, "table_words"), "must be >= 1");
  }
  cfg.cycles_per_us =
      require_positive(obj, "cycles_per_us", cfg.cycles_per_us, origin);

  if (const Value* d = obj.find("diurnal"); d != nullptr) {
    const std::string dorigin = jsonu::sub(origin, "diurnal");
    if (!d->is_object()) jsonu::fail(dorigin, "must be an object");
    cfg.diurnal = parse_diurnal(*d, dorigin);
  }
  if (const Value* bs = obj.find("bursts"); bs != nullptr) {
    const std::string borigin = jsonu::sub(origin, "bursts");
    if (!bs->is_array()) jsonu::fail(borigin, "must be an array");
    for (std::size_t i = 0; i < bs->array.size(); ++i) {
      cfg.bursts.push_back(parse_burst(bs->array[i], jsonu::at(borigin, i)));
    }
  }
  return cfg;
}

double ArrivalSchedule::rate_at(double t_s) const noexcept {
  double r = base_rate_;
  if (cfg_->diurnal.period_s > 0.0) {
    r *= 1.0 + cfg_->diurnal.amplitude *
                   std::sin(2.0 * M_PI * t_s / cfg_->diurnal.period_s);
  }
  for (const Burst& b : cfg_->bursts) {
    if (t_s >= b.at_s && t_s < b.at_s + b.duration_s) r *= b.multiplier;
  }
  // The diurnal floor 1-amplitude > 0 and multipliers are > 0, so r > 0;
  // clamp anyway so a pathological combination cannot divide by zero.
  return r > 1e-9 ? r : 1e-9;
}

std::uint64_t ArrivalSchedule::next_gap_ns(double t_s,
                                           util::Xoshiro256& rng) const {
  const double r = rate_at(t_s);
  double gap_s;
  if (cfg_->process == OpenLoopConfig::Process::kConstant) {
    gap_s = 1.0 / r;
  } else {
    // Exponential gap at the instantaneous rate. 1 - uniform01() is in
    // (0, 1], so the log argument never hits zero.
    gap_s = -std::log(1.0 - rng.uniform01()) / r;
  }
  const double ns = gap_s * 1e9;
  if (ns <= 1.0) return 1;
  if (ns >= 9e18) return static_cast<std::uint64_t>(9e18);
  return static_cast<std::uint64_t>(ns);
}

}  // namespace seer::workload
