// The pluggable workload-generator API (DESIGN.md §11).
//
// A *generator* is the thing an executor pulls transaction instances from:
// `init(thread)` once per thread, then an alternation of
// `think_time(thread, rng)` and `next(thread, progress, rng, out)` until the
// executor's transaction cap is reached or the generator reports
// `exhausted(thread)` (end of stream). That contract is exactly
// `sim::Workload` — both the machine simulator and the real-threads driver
// already consume it — so Generator is the same type under the name the
// registry and JSON config front-end (registry.hpp) trade in.
//
// Scenarios are data: a generator is constructed from a name
// ("genome", "phased", "bst", "trace-replay", ...) plus a JSON params
// object, so new scenarios are config files, not recompiles.
#pragma once

#include "sim/workload.hpp"

namespace seer::workload {

using Generator = sim::Workload;
using TxInstance = sim::TxInstance;
using ConfigError = sim::ConfigError;

}  // namespace seer::workload
