#include "core/seer_scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace seer::core {

SeerScheduler::SeerScheduler(const SeerConfig& cfg, obs::Observer* observer)
    : cfg_(cfg),
      observer_(observer),
      active_(cfg.n_threads),
      scheme_(std::make_shared<LockScheme>(cfg.n_types)),
      params_(cfg.initial_params),
      climber_(HillClimberConfig{.initial_x = cfg.initial_params.th1,
                                 .initial_y = cfg.initial_params.th2,
                                 .seed = cfg.seed}),
      merge_bufs_{GlobalStats(cfg.n_types), GlobalStats(cfg.n_types)},
      storm_(cfg.storm),
      discount_(cfg.n_types),
      decay_snapshot_(cfg.n_types) {
  // A topology is authoritative for the core count; the flat knob used to
  // keep its default silently when both were supplied.
  if (cfg_.topology) {
    assert(cfg_.topology->valid());
    assert(cfg_.n_threads <= cfg_.topology->hw_threads());
    cfg_.physical_cores = cfg_.topology->physical_cores();
  }
  assert(cfg_.n_threads > 0);
  slabs_.reserve(cfg.n_threads);
  for (std::size_t t = 0; t < cfg.n_threads; ++t) {
    slabs_.push_back(
        std::make_unique<ThreadStats>(cfg.n_types, cfg.stats_sample_period));
  }
  sharded_ = std::make_unique<ShardedStats>(cfg_.n_types, shard_layout());
  if (cfg_.stats_decay < 1.0) {
    decayed_aborts_.assign(cfg.n_types * cfg.n_types, 0.0);
    decayed_commits_.assign(cfg.n_types * cfg.n_types, 0.0);
    decayed_execs_.assign(cfg.n_types, 0.0);
  }
}

std::vector<std::size_t> SeerScheduler::shard_layout() const {
  std::size_t group = cfg_.stats_shard_threads;
  if (group == 0) {
    // Contiguous thread-id blocks of cores_per_socket are socket-homogeneous
    // under the Linux-style enumeration (thread t -> core t % P), so the
    // auto layout keeps each shard's slabs on one socket.
    group = cfg_.topology ? cfg_.topology->cores_per_socket : 8;
  }
  group = std::min(group, cfg_.n_threads);
  std::vector<std::size_t> sizes;
  for (std::size_t done = 0; done < cfg_.n_threads; done += group) {
    sizes.push_back(std::min(group, cfg_.n_threads - done));
  }
  return sizes;
}

GlobalStats SeerScheduler::merged_stats() const {
  GlobalStats out(cfg_.n_types);
  for (const auto& slab : slabs_) slab->merge_into(out);
  return out;
}

std::uint64_t SeerScheduler::total_commits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slab : slabs_) total += slab->raw_commits();
  return total;
}

std::uint64_t SeerScheduler::executions_seen() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slab : slabs_) total += slab->raw_events();
  return total;
}

bool SeerScheduler::maybe_update(ThreadId thread, std::uint64_t now) {
  emit<obs::Event::kMaybeUpdate>(thread, kNoTx, now);
  if (thread != 0) return false;  // single designated maintainer — no locks
  const std::uint64_t seen = executions_seen();
  // Storm probe (storm_response): runs at a finer cadence than the rebuild
  // period, so a contention storm triggers re-inference immediately instead
  // of waiting out the rest of the window. Entry forces the rebuild below,
  // which sees storm_pending_ and folds everything + decays history.
  if (cfg_.storm_response) {
    const std::uint64_t probe = std::max<std::uint64_t>(
        cfg_.storm.min_window_events, cfg_.update_period / 8);
    if (seen - storm_probe_base_ >= probe) {
      storm_probe_base_ = seen;
      const StormDetector::Result r =
          storm_.on_window(seen, total_commits(), sgl_fallbacks());
      if (r.evaluated) {
        const bool entered = r.abort_storm.entered || r.sgl_storm.entered;
        const bool active = r.abort_storm.active || r.sgl_storm.active;
        if (entered) {
          storm_pending_ = true;  // decay history exactly once, on entry
          ++storm_entries_;
        }
        // While the storm lasts, re-infer at probe cadence: the first early
        // rebuild usually sees borderline evidence and locks a partial
        // scheme; the follow-ups sharpen it within a probe interval instead
        // of waiting out the full update window.
        if (entered || active) {
          executions_at_last_rebuild_ = seen;
          rebuild(now);
          return true;
        }
      }
    }
  }
  if (seen - executions_at_last_rebuild_ < cfg_.update_period) return false;
  executions_at_last_rebuild_ = seen;
  rebuild(now);
  return true;
}

void SeerScheduler::force_update(std::uint64_t now) {
  emit<obs::Event::kForceUpdate>(/*thread=*/0, kNoTx, now);
  rebuild(now);
}

void SeerScheduler::rebuild(std::uint64_t now) {
  const std::uint64_t t_start = observer_ ? observer_->rebuild_clock() : 0;
  ++rebuilds_;

  // Hill-climber epoch boundary: score the thresholds that were live during
  // the epoch by the commit throughput they produced.
  if (cfg_.enable_hill_climbing &&
      rebuilds_ - rebuilds_at_last_epoch_ >= cfg_.rebuilds_per_tuning_epoch) {
    const std::uint64_t commits = total_commits();
    if (!epoch_clock_started_) {
      epoch_clock_started_ = true;
    } else if (now > time_at_last_epoch_) {
      const double throughput =
          static_cast<double>(commits - commits_at_last_epoch_) /
          static_cast<double>(now - time_at_last_epoch_);
      const HillClimber::Point p = climber_.feed(throughput);
      params_ = InferenceParams{.th1 = p.x, .th2 = p.y};
      if (observer_) {
        observer_->emit<obs::Layer::kSeer, obs::Event::kClimberStep>(
            0, climber_.epochs(), now);
      }
    }
    commits_at_last_epoch_ = commits;
    time_at_last_epoch_ = now;
    rebuilds_at_last_epoch_ = rebuilds_;
  }

  // Online re-inference (storm_response): maybe_update's storm probe set
  // storm_pending_ when the detector entered a storm; this rebuild is the
  // immediate response. Entry widens the fold to every shard and decays
  // accumulated history so the inference runs on predominantly fresh
  // evidence.
  const bool storm_entered = storm_pending_;
  storm_pending_ = false;

  // Fold the statistics shards: all of them by default (numerically the
  // monolithic merge), a bounded round-robin subset under a fold budget.
  // Storm entry always folds everything — re-inference wants fresh evidence,
  // not last epoch's partials.
  const std::size_t shards_folded =
      sharded_->fold_some(storm_entered ? 0 : cfg_.rebuild_fold_budget, slabs_);

  // Copy the combined view into the scratch buffer that does NOT hold the
  // previous rebuild's totals; the other buffer IS the previous snapshot, so
  // the decay path reads its delta directly instead of copying lifetime
  // totals around. (Same-size vector assignments — no allocation.)
  GlobalStats& merged = merge_bufs_[cur_buf_];
  merged.aborts = sharded_->combined().aborts;
  merged.commits = sharded_->combined().commits;
  merged.executions = sharded_->combined().executions;

  const GlobalStats* inference_input = &merged;
  if (cfg_.stats_decay < 1.0) {
    if (storm_entered) {
      // Storm-entry decay: down-weight everything accumulated so far; the
      // per-rebuild fold below then adds the fully-refolded fresh delta.
      for (double& v : decayed_aborts_) v *= cfg_.storm_decay;
      for (double& v : decayed_commits_) v *= cfg_.storm_decay;
      for (double& v : decayed_execs_) v *= cfg_.storm_decay;
    }
    const GlobalStats& prev = merge_bufs_[1 - cur_buf_];
    // Fold the delta since the previous rebuild into exponentially decayed
    // accumulators, then hand the inference a rounded snapshot of those.
    const double d = cfg_.stats_decay;
    for (std::size_t i = 0; i < merged.aborts.size(); ++i) {
      decayed_aborts_[i] =
          decayed_aborts_[i] * d +
          static_cast<double>(merged.aborts[i] - prev.aborts[i]);
      decayed_commits_[i] =
          decayed_commits_[i] * d +
          static_cast<double>(merged.commits[i] - prev.commits[i]);
      decay_snapshot_.aborts[i] = static_cast<std::uint64_t>(decayed_aborts_[i]);
      decay_snapshot_.commits[i] = static_cast<std::uint64_t>(decayed_commits_[i]);
    }
    for (std::size_t t = 0; t < merged.executions.size(); ++t) {
      decayed_execs_[t] =
          decayed_execs_[t] * d +
          static_cast<double>(merged.executions[t] - prev.executions[t]);
      decay_snapshot_.executions[t] = static_cast<std::uint64_t>(decayed_execs_[t]);
    }
    inference_input = &decay_snapshot_;
  } else if (cfg_.storm_response) {
    if (storm_entered) {
      // Pure-accumulation runs cannot decay the monotonic counters in place.
      // Advance a discount so the live view (merged - discount) shrinks to
      // storm_decay of itself; future evidence then accrues undiscounted.
      const double d = cfg_.storm_decay;
      for (std::size_t i = 0; i < merged.aborts.size(); ++i) {
        discount_.aborts[i] =
            merged.aborts[i] -
            static_cast<std::uint64_t>(
                d * static_cast<double>(merged.aborts[i] - discount_.aborts[i]));
        discount_.commits[i] =
            merged.commits[i] -
            static_cast<std::uint64_t>(
                d *
                static_cast<double>(merged.commits[i] - discount_.commits[i]));
      }
      for (std::size_t t = 0; t < merged.executions.size(); ++t) {
        discount_.executions[t] =
            merged.executions[t] -
            static_cast<std::uint64_t>(
                d * static_cast<double>(merged.executions[t] -
                                        discount_.executions[t]));
      }
      discount_active_ = true;
    }
    if (discount_active_) {
      for (std::size_t i = 0; i < merged.aborts.size(); ++i) {
        decay_snapshot_.aborts[i] = merged.aborts[i] - discount_.aborts[i];
        decay_snapshot_.commits[i] = merged.commits[i] - discount_.commits[i];
      }
      for (std::size_t t = 0; t < merged.executions.size(); ++t) {
        decay_snapshot_.executions[t] =
            merged.executions[t] - discount_.executions[t];
      }
      inference_input = &decay_snapshot_;
    }
  }
  cur_buf_ = 1 - cur_buf_;

  std::shared_ptr<const LockScheme> next = build_lock_scheme(*inference_input, params_);
  std::atomic_store_explicit(&scheme_, next, std::memory_order_release);

  // Observer feed: metrics, trace and the check-harness decision stream
  // always; the flight recorder's full model capture only when its trigger
  // (periodic cadence or storm entry) fires.
  if (observer_) {
    const obs::RebuildInfo info{.sample = {now, rebuilds_, executions_seen(),
                                           total_commits()},
                                .shards_folded = shards_folded,
                                .started_ns = t_start,
                                .params = params_,
                                .scheme = next.get()};
    observer_->rebuild(info, [&] { return make_model_snapshot(now); });
  }
}

obs::ModelSnapshot SeerScheduler::make_model_snapshot(std::uint64_t now) const {
  obs::ModelSnapshot snap;
  snap.now = now;
  snap.rebuild = rebuilds_;
  snap.executions = executions_seen();
  snap.commits = total_commits();
  snap.th1 = params_.th1;
  snap.th2 = params_.th2;
  const HillClimber::State hc = climber_.state();
  snap.climber_cur_x = hc.current.x;
  snap.climber_cur_y = hc.current.y;
  snap.climber_best_x = hc.best.x;
  snap.climber_best_y = hc.best.y;
  snap.climber_best_score = hc.best_score;
  snap.climber_epochs = hc.epochs;
  GlobalStats merged = merged_stats();
  snap.n_types = merged.n_types;
  snap.aborts = std::move(merged.aborts);
  snap.commit_pairs = std::move(merged.commits);
  snap.execs = std::move(merged.executions);
  snap.scheme = scheme()->to_rows();
  return snap;
}

}  // namespace seer::core
