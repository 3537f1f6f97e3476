// MetricsRegistry — low-overhead named counters and log-bucketed histograms
// shared by every layer of the system (scheduler core, HTM, threaded
// runtime, machine simulator).
//
// Design constraints, in order:
//   1. The stats hot path (Alg. 3 record_commit/record_abort) runs millions
//      of times per second; an attached registry may add at most a couple of
//      single-writer relaxed counter bumps to it (<2% — see DESIGN.md §8 and
//      bench/micro_obs.cpp).
//   2. A collector must be able to snapshot every metric *while* worker
//      threads keep recording — no stop-the-world, no locks on either side.
//   3. A component with no registry attached pays one predictable
//      null-pointer branch per instrumentation point and nothing else.
//
// The implementation copies the ThreadStats recipe (core/conflict_stats.hpp):
// every thread owns one contiguous cache-line-aligned lane (whole lines of a
// single slab) holding its cell of every registered metric. A counter bump
// is a relaxed load+store to a line only the owner writes; a histogram
// observation is three such bumps (bucket, count, sum). The snapshot thread
// sums lanes with relaxed loads — the single-writer/multi-reader pattern
// used throughout this codebase, and the reason snapshots need no
// synchronization: each lane value read is a valid (possibly slightly
// stale) count, and after the owners quiesce a snapshot is exact.
//
// Lifecycle: components register metrics while the embedding is being built
// (single-threaded), the owner calls freeze() once to allocate the lanes,
// and only then may worker threads record. Registration is idempotent by
// name so two components can share a metric deliberately.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/cacheline.hpp"

namespace seer::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kNoMetric = ~MetricId{0};

// Bucket b of a histogram counts observations v with std::bit_width(v) == b:
// bucket 0 is exactly v = 0 and bucket b >= 1 spans [2^(b-1), 2^b).
inline constexpr std::size_t kHistogramBuckets = 65;

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

// Gauges reuse the counter snapshot shape (name + current value); the
// semantic difference — set-to-latest instead of monotonic accumulation —
// lives in the registry API and the Prometheus TYPE line (obs/prom.hpp).
using GaugeSnapshot = CounterSnapshot;

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

// Point-in-time view of every registered metric, in registration order (the
// order is deterministic because registration happens on the single thread
// that builds the embedding — this is what makes --metrics output
// byte-identical for any --jobs value).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Stable JSON: registration-ordered keys, histograms as sparse
  // [bucket, count] pairs. Returns "{}" when empty.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t n_threads) : n_threads_(n_threads) {
    assert(n_threads_ > 0);
  }
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (single-threaded, before freeze) ----------------------
  MetricId counter(std::string name) {
    assert(!frozen_ && "register metrics before freeze()");
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      if (counter_names_[i] == name) return static_cast<MetricId>(i);
    }
    counter_names_.push_back(std::move(name));
    return static_cast<MetricId>(counter_names_.size() - 1);
  }
  MetricId histogram(std::string name) {
    assert(!frozen_ && "register metrics before freeze()");
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      if (histogram_names_[i] == name) return static_cast<MetricId>(i);
    }
    histogram_names_.push_back(std::move(name));
    return static_cast<MetricId>(histogram_names_.size() - 1);
  }
  // Gauges are point-in-time values (queue depth, active workers): set
  // overwrites, last writer wins. Unlike counters they are NOT per-thread
  // lanes — a gauge is one atomic cell any thread may store to, because
  // "current value" has no meaningful per-lane decomposition to sum.
  MetricId gauge(std::string name) {
    assert(!frozen_ && "register metrics before freeze()");
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
      if (gauge_names_[i] == name) return static_cast<MetricId>(i);
    }
    gauge_names_.push_back(std::move(name));
    return static_cast<MetricId>(gauge_names_.size() - 1);
  }

  // Allocates the per-thread lanes. Idempotent; call once after every
  // component has registered and before any worker thread records.
  void freeze() {
    if (frozen_) return;
    frozen_ = true;
    // Every lane is a whole number of cache lines of one slab, so no two
    // threads' lanes share a line and a bump is one load off the slab base.
    constexpr std::size_t kCellsPerLine = util::kCacheLineBytes / sizeof(Cell);
    const std::size_t cells =
        counter_names_.size() + histogram_names_.size() * kHistogramSlots;
    lane_len_ = (cells + kCellsPerLine - 1) / kCellsPerLine * kCellsPerLine;
    lanes_ = util::make_cache_aligned_slab<Cell>(
        std::max<std::size_t>(n_threads_ * lane_len_, 1));
    gauge_cells_ = util::make_cache_aligned_slab<Cell>(
        gauge_names_.empty() ? 1 : gauge_names_.size());
  }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  [[nodiscard]] std::size_t n_threads() const noexcept { return n_threads_; }

  // --- hot path (owner thread only per lane) ------------------------------
  void add(MetricId c, core::ThreadId thread, std::uint64_t delta = 1) noexcept {
    assert(frozen_ && thread < n_threads_ && c < counter_names_.size());
    bump(lanes_[thread * lane_len_ + c], delta);
  }
  void observe(MetricId h, core::ThreadId thread, std::uint64_t value) noexcept {
    assert(frozen_ && thread < n_threads_ && h < histogram_names_.size());
    Cell* block = &lanes_[thread * lane_len_ + counter_names_.size() +
                          static_cast<std::size_t>(h) * kHistogramSlots];
    bump(block[bucket_of(value)], 1);
    bump(block[kHistogramBuckets], 1);      // count
    bump(block[kHistogramBuckets + 1], value);  // sum
  }
  // Any thread; a plain relaxed store, so concurrent setters race benignly
  // (one of the written values wins — acceptable for a gauge by definition).
  void set_gauge(MetricId g, std::uint64_t value) noexcept {
    assert(frozen_ && g < gauge_names_.size());
    gauge_cells_[g].store(value, std::memory_order_relaxed);
  }

  // --- collection (any thread, any time after freeze) ---------------------
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

 private:
  using Cell = std::atomic<std::uint64_t>;
  // Per histogram: kHistogramBuckets buckets, then count, then sum.
  static constexpr std::size_t kHistogramSlots = kHistogramBuckets + 2;

  static void bump(Cell& c, std::uint64_t delta) noexcept {
    // Single-writer counter: a plain load+store beats a locked RMW.
    c.store(c.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }

  std::size_t n_threads_;
  bool frozen_ = false;
  std::size_t lane_len_ = 0;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::string> gauge_names_;
  util::CacheAlignedSlab<Cell> lanes_;  // n_threads_ lanes of lane_len_ cells
  util::CacheAlignedSlab<Cell> gauge_cells_;
};

}  // namespace seer::obs
