#include "workload/spec_config.hpp"

#include <cstdint>
#include <limits>

#include "workload/json_util.hpp"

namespace seer::workload {

using jsonu::Value;

namespace {

std::uint16_t small_count(const Value& obj, const char* key, std::uint16_t fallback,
                          const std::string& origin) {
  const std::uint64_t v = jsonu::opt_u64(obj, key, fallback, origin);
  if (v > std::numeric_limits<std::uint16_t>::max()) {
    jsonu::fail(jsonu::sub(origin, key), "must be at most 65535");
  }
  return static_cast<std::uint16_t>(v);
}

std::vector<double> parse_mix(const Value& arr, std::size_t n_types,
                              const std::string& origin) {
  if (arr.array.size() != n_types) {
    jsonu::fail(origin, "must list one weight per transaction type (" +
                            std::to_string(n_types) + " types, got " +
                            std::to_string(arr.array.size()) + ")");
  }
  std::vector<double> mix;
  mix.reserve(arr.array.size());
  double total = 0.0;
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    const Value& w = arr.array[i];
    if (!w.is_number() || w.number < 0.0) {
      jsonu::fail(jsonu::at(origin, i), "must be a non-negative number");
    }
    mix.push_back(w.number);
    total += w.number;
  }
  if (total <= 0.0) jsonu::fail(origin, "weights must not all be zero");
  return mix;
}

}  // namespace

stamp::WorkloadSpec spec_from_json(const Value& obj, const std::string& origin,
                                   const std::string& default_name) {
  jsonu::reject_unknown(
      obj, {"name", "think_mean", "regions", "types", "phases", "mix"}, origin);

  stamp::WorkloadSpec spec;
  spec.name = default_name;
  if (const Value* n = obj.find("name"); n != nullptr) {
    if (!n->is_string()) jsonu::fail(jsonu::sub(origin, "name"), "must be a string");
    spec.name = n->string;
  }
  spec.think_mean = jsonu::opt_u64(obj, "think_mean", spec.think_mean, origin);

  // Regions.
  const Value& regions = jsonu::require_array(obj, "regions", origin);
  if (regions.array.empty()) {
    jsonu::fail(jsonu::sub(origin, "regions"), "must not be empty");
  }
  for (std::size_t i = 0; i < regions.array.size(); ++i) {
    const std::string ro = jsonu::at(jsonu::sub(origin, "regions"), i);
    const Value& r = regions.array[i];
    jsonu::reject_unknown(r, {"name", "lines", "zipf_skew", "per_thread"}, ro);
    stamp::Region region;
    region.name = jsonu::require_str(r, "name", ro);
    const std::uint64_t lines = jsonu::require_u64(r, "lines", ro);
    if (lines == 0 || lines > std::numeric_limits<std::uint32_t>::max()) {
      jsonu::fail(jsonu::sub(ro, "lines"), "must be in [1, 2^32)");
    }
    region.lines = static_cast<std::uint32_t>(lines);
    region.zipf_skew = jsonu::opt_num(r, "zipf_skew", 0.0, ro);
    if (region.zipf_skew < 0.0) {
      jsonu::fail(jsonu::sub(ro, "zipf_skew"), "must be non-negative");
    }
    region.per_thread = jsonu::opt_bool(r, "per_thread", false, ro);
    for (const stamp::Region& prev : spec.regions) {
      if (prev.name == region.name) {
        jsonu::fail(jsonu::sub(ro, "name"),
                    "duplicate region name \"" + region.name + "\"");
      }
    }
    spec.regions.push_back(std::move(region));
  }

  // Transaction types, with region accesses referenced by region *name*.
  const Value& types = jsonu::require_array(obj, "types", origin);
  if (types.array.empty()) jsonu::fail(jsonu::sub(origin, "types"), "must not be empty");
  for (std::size_t i = 0; i < types.array.size(); ++i) {
    const std::string to = jsonu::at(jsonu::sub(origin, "types"), i);
    const Value& t = types.array[i];
    jsonu::reject_unknown(
        t, {"name", "duration_mean", "duration_jitter", "accesses"}, to);
    stamp::TxTypeSpec ts;
    ts.name = jsonu::require_str(t, "name", to);
    ts.duration_mean = jsonu::require_u64(t, "duration_mean", to);
    if (ts.duration_mean == 0) {
      jsonu::fail(jsonu::sub(to, "duration_mean"), "must be at least 1");
    }
    ts.duration_jitter = jsonu::opt_num(t, "duration_jitter", 0.3, to);
    if (ts.duration_jitter < 0.0 || ts.duration_jitter >= 1.0) {
      jsonu::fail(jsonu::sub(to, "duration_jitter"), "must be in [0, 1)");
    }
    const Value& accesses = jsonu::require_array(t, "accesses", to);
    if (accesses.array.size() > decltype(ts.accesses)::capacity()) {
      jsonu::fail(jsonu::sub(to, "accesses"),
                  "must list at most " +
                      std::to_string(decltype(ts.accesses)::capacity()) +
                      " region accesses (got " +
                      std::to_string(accesses.array.size()) + ")");
    }
    for (std::size_t j = 0; j < accesses.array.size(); ++j) {
      const std::string ao = jsonu::at(jsonu::sub(to, "accesses"), j);
      const Value& a = accesses.array[j];
      jsonu::reject_unknown(a, {"region", "reads", "writes"}, ao);
      const std::string& rname = jsonu::require_str(a, "region", ao);
      stamp::RegionAccess acc;
      bool found = false;
      for (std::size_t ri = 0; ri < spec.regions.size(); ++ri) {
        if (spec.regions[ri].name == rname) {
          acc.region = static_cast<std::uint16_t>(ri);
          found = true;
          break;
        }
      }
      if (!found) {
        jsonu::fail(jsonu::sub(ao, "region"), "unknown region \"" + rname + "\"");
      }
      acc.reads = small_count(a, "reads", 0, ao);
      acc.writes = small_count(a, "writes", 0, ao);
      ts.accesses.push_back(acc);
    }
    for (const stamp::TxTypeSpec& prev : spec.types) {
      if (prev.name == ts.name) {
        jsonu::fail(jsonu::sub(to, "name"), "duplicate type name \"" + ts.name + "\"");
      }
    }
    spec.types.push_back(std::move(ts));
  }

  // Mixes: either a "phases" schedule or the single-phase "mix" shorthand
  // (or neither — SpecWorkload defaults to one uniform phase).
  if (obj.find("phases") != nullptr && obj.find("mix") != nullptr) {
    jsonu::fail(origin, "\"phases\" and \"mix\" are mutually exclusive");
  }
  if (const Value* mix = obj.find("mix"); mix != nullptr) {
    if (!mix->is_array()) jsonu::fail(jsonu::sub(origin, "mix"), "must be an array");
    stamp::Phase p;
    p.fraction = 1.0;
    p.mix = parse_mix(*mix, spec.types.size(), jsonu::sub(origin, "mix"));
    spec.phases.push_back(std::move(p));
  } else if (const Value* phases = obj.find("phases"); phases != nullptr) {
    if (!phases->is_array() || phases->array.empty()) {
      jsonu::fail(jsonu::sub(origin, "phases"), "must be a non-empty array");
    }
    double total = 0.0;
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const std::string po = jsonu::at(jsonu::sub(origin, "phases"), i);
      const Value& ph = phases->array[i];
      jsonu::reject_unknown(ph, {"fraction", "mix"}, po);
      stamp::Phase p;
      p.fraction = jsonu::require_num(ph, "fraction", po);
      if (p.fraction <= 0.0 || p.fraction > 1.0) {
        jsonu::fail(jsonu::sub(po, "fraction"), "must be in (0, 1]");
      }
      total += p.fraction;
      p.mix = parse_mix(jsonu::require_array(ph, "mix", po), spec.types.size(),
                        jsonu::sub(po, "mix"));
      spec.phases.push_back(std::move(p));
    }
    if (total < 0.999 || total > 1.001) {
      jsonu::fail(jsonu::sub(origin, "phases"),
                  "fractions must sum to 1 (got " + std::to_string(total) + ")");
    }
  }

  return spec;
}

}  // namespace seer::workload
