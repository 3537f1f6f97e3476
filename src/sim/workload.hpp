// The workload interface the machine simulator executes.
//
// A workload hands the simulator, per transaction instance, the transaction
// type (static atomic block), its serial duration in cycles, and the cache
// lines it reads and writes. Footprints are sampled ONCE per instance and
// reused across retries — a restarted transaction re-executes on the same
// inputs, which is precisely why per-type conflict structure is learnable
// (and why Seer's inference works on the real benchmarks).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace seer::sim {

struct TxInstance {
  core::TxTypeId type = 0;
  std::uint64_t duration = 0;        // cycles of useful serial work
  std::vector<std::uint32_t> reads;  // global cache-line ids, sorted, unique
  std::vector<std::uint32_t> writes; // ditto; may overlap reads

  [[nodiscard]] std::size_t footprint_lines() const noexcept;
};

// A malformed workload description: a config or trace file with a bad key,
// or a spec whose layout cannot be built for the requested thread count.
// The message names the offending key or region (e.g. `workload config
// intruder.json: phases[2].until: must be in (0, 1]`) so CLI consumers can
// print it verbatim and exit 2. `workload::ConfigError` is the same type.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& msg) : std::runtime_error(msg) {}
};

// The generator contract (DESIGN.md §11). Both executors — the machine
// simulator and the real-threads driver — speak exactly this protocol, per
// thread:
//
//   init(t)                        once, before the thread's first instance;
//   loop:
//     think_time(t, rng)           inter-transaction gap (cycles);
//     exhausted(t)?                end-of-stream — the thread retires;
//     next(t, progress, rng, out)  sample the next transaction instance.
//
// Implementations must be usable from multiple threads concurrently as long
// as each ThreadId is driven by one caller at a time (the per-thread lanes
// of stateful generators — trace cursors, phase trackers — are single-
// writer). `workload::Generator` (src/workload/generator.hpp) is the same
// type; the registry and JSON config front-end trade in that alias.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::size_t n_types() const = 0;
  [[nodiscard]] virtual const std::string& type_name(core::TxTypeId t) const = 0;

  // Called once per thread before its first think_time/next call. Stateful
  // generators reset their per-thread lanes here so one instance can drive
  // several runs.
  virtual void init(core::ThreadId thread) { (void)thread; }

  // End-of-stream signal: true once `thread` has no further instances (a
  // replayed trace ran out, a finite script completed). Unbounded
  // generators — every STAMP spec — never exhaust; the executor's
  // txs_per_thread cap bounds those runs instead.
  [[nodiscard]] virtual bool exhausted(core::ThreadId thread) const {
    (void)thread;
    return false;
  }

  // Samples the next transaction instance for `thread`. `progress` is the
  // thread's completed fraction of its run in [0, 1] (drives phase mixes).
  // Must not be called for an exhausted thread.
  virtual void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
                    TxInstance& out) = 0;

  // Think time (cycles) between transactions.
  [[nodiscard]] virtual std::uint64_t think_time(core::ThreadId thread,
                                                 util::Xoshiro256& rng) = 0;
};

// True when the two sorted, unique sequences share an element. Exact for
// any sizes; sublinear in the larger side when the other is much smaller.
[[nodiscard]] bool sorted_intersects(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b) noexcept;

// True when `a.writes` intersects `b.reads ∪ b.writes` — a's speculative
// writes invalidate b. Inputs must be sorted.
[[nodiscard]] bool write_conflicts(const TxInstance& a, const TxInstance& b) noexcept;

// Symmetric transactional conflict: either side's writes intersect the
// other's footprint.
[[nodiscard]] inline bool instances_conflict(const TxInstance& a,
                                             const TxInstance& b) noexcept {
  return write_conflicts(a, b) || write_conflicts(b, a);
}

}  // namespace seer::sim
