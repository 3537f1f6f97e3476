// SeerScheduler — the façade tying together the active-transactions table,
// the per-thread statistics, the lock-scheme inference (Alg. 5) and the
// threshold self-tuning.
//
// This class is backend-agnostic: the threaded runtime (over SoftHtm or real
// TSX) and the machine simulator both drive it through the same five calls:
//
//   announce / clear          — Alg. 1 line 5 / Alg. 2 line 32
//   record_abort / commit     — Alg. 3
//   maybe_update              — Alg. 4 lines 52-54 (designated thread only)
//
// and read scheduling decisions through `scheme()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/active_tx_table.hpp"
#include "core/conflict_stats.hpp"
#include "core/hill_climber.hpp"
#include "core/lock_scheme.hpp"
#include "core/sharded_stats.hpp"
#include "core/storm_detector.hpp"
#include "core/topology.hpp"
#include "core/types.hpp"
#include "obs/observer.hpp"
#include "obs/snapshot.hpp"
#include "util/cacheline.hpp"

namespace seer::core {

// Feature toggles for the Figure 4 / Figure 5 ablations, plus the paper's
// fixed constants.
struct SeerConfig {
  std::size_t n_threads = 8;
  std::size_t n_types = 8;
  // SMT siblings share thread % physical_cores. When `topology` is set this
  // field is DERIVED (sockets x cores_per_socket) by the constructor — it
  // used to silently keep its default, leaving the per-core locks sized for
  // a machine nobody configured. The config-file front end rejects an
  // explicitly conflicting value as a named ConfigError before it ever
  // reaches this struct.
  std::size_t physical_cores = 4;
  // Explicit machine shape (core/topology.hpp). Unset = the legacy flat
  // 1-socket view described by `physical_cores` alone.
  std::optional<Topology> topology;

  // Mechanism toggles (§5.3: each is one cumulative variant of Figure 5).
  bool enable_tx_locks = true;        // fine-grained transaction locks
  bool enable_core_locks = true;      // capacity-driven per-core locks
  bool enable_htm_lock_acquire = true;  // batch lock acquisition inside HTM
  bool enable_hill_climbing = true;   // self-tune Th1/Th2

  // Retry budget for hardware attempts (paper §5.1 uses 5, citing Intel).
  int max_attempts = 5;

  // Scheme maintenance cadence, in transaction executions between rebuilds.
  // The paper rebuilds opportunistically while waiting on the SGL; we also
  // rebuild every `update_period` executions (DESIGN.md deviation #1).
  std::uint64_t update_period = 512;
  // Hill-climber epoch length, in scheme rebuilds per tuning step.
  std::uint64_t rebuilds_per_tuning_epoch = 2;

  InferenceParams initial_params{};
  std::uint64_t seed = 1;

  // --- extensions beyond the paper (its §6 future-work directions) -------
  // Probabilistic sampling of the Alg. 3 statistics (Dice/Lev/Moir-style
  // scalable counters): each commit/abort is recorded with probability
  // 2^-sampling_shift. The inference consumes only count *ratios*, so
  // uniform sampling leaves the probabilities unbiased while cutting the
  // instrumentation cost proportionally. 0 = record everything (paper).
  std::uint32_t sampling_shift = 0;
  // Deterministic counterpart living INSIDE the statistics slabs: each
  // thread records only every k-th of its commit/abort events (execution
  // bump + active-table scan) and the merge scales the sampled counters by
  // k. Unlike sampling_shift this needs no per-event RNG draw, keeps the
  // rebuild cadence and throughput feedback exact (raw tallies are never
  // sampled), and is reproducible run-to-run. 0 or 1 = record everything.
  std::uint32_t stats_sample_period = 1;
  // Exponential decay of the merged statistics between rebuilds, so the
  // scheme tracks time-varying workloads (phased benchmarks) instead of
  // being dominated by stale history. 1.0 = pure accumulation (paper).
  double stats_decay = 1.0;

  // --- sharded statistics & incremental rebuilds (DESIGN.md §14) ---------
  // Threads per statistics shard for the tree-structured (shard-then-global)
  // merge. 0 = auto: cores_per_socket when a topology is set (contiguous
  // thread-id blocks of that size are socket-homogeneous under the Linux
  // enumeration), otherwise blocks of 8.
  std::size_t stats_shard_threads = 0;
  // Shards re-folded per rebuild. 0 = fold every shard (the default), which
  // keeps the combined view numerically identical to the monolithic merge —
  // every legacy golden is byte-stable. A budget of k bounds the maintenance
  // step to O(k x shard x types^2) slab reads regardless of thread count;
  // unfolded shards contribute their last-folded partial (slightly stale
  // evidence, which the probabilistic inference tolerates by design).
  std::size_t rebuild_fold_budget = 0;
  // Online re-inference loop: when enabled, maybe_update probes the shared
  // storm detector (core/storm_detector.hpp) every
  // max(storm.min_window_events, update_period / 8) executions — a finer
  // cadence than the rebuild period. Entering an abort- or SGL-storm forces
  // an immediate rebuild with a full fold of every shard plus a
  // `storm_decay` down-weighting of accumulated history, so re-inference
  // runs on predominantly fresh evidence instead of waiting out the rest of
  // the update window.
  bool storm_response = false;
  // Multiplier applied to accumulated history on storm entry (0 = forget
  // everything, 1 = change nothing). Only meaningful with storm_response.
  double storm_decay = 0.25;
  StormConfig storm{};
};

class SeerScheduler {
 public:
  // `observer` (obs/observer.hpp) receives the scheduler-layer events and
  // rebuild decisions; it must outlive the scheduler. nullptr (default)
  // costs one predicted branch per event.
  explicit SeerScheduler(const SeerConfig& cfg, obs::Observer* observer = nullptr);
  SeerScheduler(const SeerScheduler&) = delete;
  SeerScheduler& operator=(const SeerScheduler&) = delete;

  [[nodiscard]] const SeerConfig& config() const noexcept { return cfg_; }

  // --- hot path -----------------------------------------------------------
  void announce(ThreadId thread, TxTypeId tx) noexcept {
    emit<obs::Event::kAnnounce>(thread, tx);
    active_.announce(thread, tx);
  }
  void clear(ThreadId thread) noexcept {
    emit<obs::Event::kClear>(thread, kNoTx);
    active_.clear(thread);
  }

  // The per-thread slab carries ALL the event bookkeeping (matrices,
  // executions, raw tallies) in one contiguous allocation: a record touches
  // only lines this thread owns — no shared execution counter, no separate
  // commit-count array. Aborts are executions too (Alg. 3 line 34): the
  // rebuild cadence advances even in fallback-heavy phases where commits
  // are scarce, otherwise the scheduler could never learn its way out of
  // them.
  void record_abort(ThreadId thread, TxTypeId tx) noexcept {
    emit<obs::Event::kAbort>(thread, tx);
    slabs_[thread]->record_abort(tx, thread, active_);
  }
  void record_commit(ThreadId thread, TxTypeId tx) noexcept {
    emit<obs::Event::kCommit>(thread, tx);
    slabs_[thread]->record_commit(tx, thread, active_);
  }

  // Current locking scheme; lock-free snapshot (scheme swaps use the
  // indirection-pointer trick the paper describes).
  [[nodiscard]] std::shared_ptr<const LockScheme> scheme() const {
    return std::atomic_load_explicit(&scheme_, std::memory_order_acquire);
  }

  // SGL fallback feed (any thread; the fallback path is already slow). The
  // storm detector classifies rebuild windows by fallbacks-per-execution —
  // kept apart from the flight recorder's twin counter, because the
  // re-inference loop must not change behaviour when no recorder is attached.
  void note_sgl_fallback() noexcept {
    sgl_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sgl_fallbacks() const noexcept {
    return sgl_fallbacks_.load(std::memory_order_relaxed);
  }

  // --- maintenance (designated thread) -------------------------------------
  // Rebuilds the scheme if `update_period` executions elapsed since the last
  // rebuild, and feeds the hill climber every few rebuilds. `now` is a
  // monotonic timestamp in arbitrary units (simulated cycles or rdtsc ticks)
  // used to turn commit counts into throughput. Only the designated thread
  // (0) may call this; returns true if a rebuild happened.
  bool maybe_update(ThreadId thread, std::uint64_t now);

  // Unconditional rebuild (tests, and the SGL-wait trigger).
  void force_update(std::uint64_t now);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] InferenceParams params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t rebuild_count() const noexcept { return rebuilds_; }
  [[nodiscard]] std::uint64_t tuning_epochs() const noexcept { return climber_.epochs(); }
  [[nodiscard]] const ActiveTxTable& active_table() const noexcept { return active_; }
  [[nodiscard]] GlobalStats merged_stats() const;
  [[nodiscard]] std::uint64_t total_commits() const noexcept;
  [[nodiscard]] std::uint64_t executions_seen() const noexcept;
  [[nodiscard]] HillClimber::State climber_state() const noexcept {
    return climber_.state();
  }
  // Sharded-statistics introspection (tests and the scaling microbench).
  [[nodiscard]] const ShardedStats& sharded_stats() const noexcept {
    return *sharded_;
  }
  [[nodiscard]] bool abort_storm_active() const noexcept {
    return storm_.abort_storm_active();
  }
  [[nodiscard]] bool sgl_storm_active() const noexcept {
    return storm_.sgl_storm_active();
  }
  [[nodiscard]] std::uint64_t storm_entries() const noexcept {
    return storm_entries_;
  }

  // Captures the full probabilistic model — merged matrices, thresholds,
  // climber state, active scheme — as a ModelSnapshot. Maintenance-path
  // cost (one slab merge + scheme copy); called for retained flight-recorder
  // captures and end-of-run dumps, never per transaction.
  [[nodiscard]] obs::ModelSnapshot make_model_snapshot(std::uint64_t now) const;

 private:
  void rebuild(std::uint64_t now);
  [[nodiscard]] std::vector<std::size_t> shard_layout() const;
  // The one instrumentation point: one null test per event.
  template <obs::Event E>
  void emit(ThreadId thread, TxTypeId tx, std::uint64_t now = 0) noexcept {
    if (observer_) {
      observer_->emit<obs::Layer::kSeer, E>(thread, static_cast<std::uint64_t>(tx), now);
    }
  }

  SeerConfig cfg_;
  obs::Observer* observer_;
  ActiveTxTable active_;
  std::vector<std::unique_ptr<ThreadStats>> slabs_;

  std::shared_ptr<const LockScheme> scheme_;
  InferenceParams params_;
  HillClimber climber_;

  // Rebuild scratch, sized once in the constructor and reused every period
  // (the maintenance path is allocation-free apart from the scheme object
  // it publishes). merge_bufs_ double-buffers the merged lifetime totals:
  // the current rebuild merges into one buffer while the other still holds
  // the previous rebuild's totals, which is exactly the delta the decay
  // extension needs — no copying of a `last_merged_` snapshot.
  GlobalStats merge_bufs_[2];
  std::size_t cur_buf_ = 0;
  // Sharded merge state (DESIGN.md §14): per-shard partials plus a running
  // global maintained by subtract-then-add. With the default fold-all budget
  // its combined view equals the monolithic merge exactly.
  std::unique_ptr<ShardedStats> sharded_;
  // Online re-inference state (storm_response): the shared hysteresis
  // detector, the SGL feed it consumes, and — for pure-accumulation runs —
  // the discount subtracted from the merged lifetime totals to realize
  // storm-entry decay without touching the monotonic counters.
  StormDetector storm_;
  std::atomic<std::uint64_t> sgl_fallbacks_{0};
  std::uint64_t storm_entries_ = 0;
  std::uint64_t storm_probe_base_ = 0;  // executions at the last probe
  bool storm_pending_ = false;          // entry seen; consumed by rebuild()
  GlobalStats discount_;
  bool discount_active_ = false;
  // Decay extension state (when stats_decay < 1): exponentially decayed
  // accumulators and the rounded snapshot handed to the inference.
  GlobalStats decay_snapshot_;
  std::vector<double> decayed_aborts_;
  std::vector<double> decayed_commits_;
  std::vector<double> decayed_execs_;

  std::uint64_t executions_at_last_rebuild_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t rebuilds_at_last_epoch_ = 0;
  std::uint64_t commits_at_last_epoch_ = 0;
  std::uint64_t time_at_last_epoch_ = 0;
  bool epoch_clock_started_ = false;
};

}  // namespace seer::core
