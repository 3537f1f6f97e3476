// Declarative workload specifications.
//
// Each STAMP stand-in (DESIGN.md §1) is described as data: shared memory
// regions (hash tables, queues, reservation tables, meshes...), transaction
// types with durations and per-region access counts, and phases with type
// mixes. SpecWorkload turns a spec into the sim::Workload the machine
// executes, sampling concrete cache-line footprints per transaction
// instance.
//
// Why this models the real benchmarks faithfully *for scheduling purposes*:
// conflicts in the simulator arise from genuine set intersection over the
// sampled lines, so the per-type-pair conflict probabilities — the structure
// Seer's inference discovers — emerge from data-structure geometry (how hot
// a region is, how many lines a transaction touches there) exactly as they
// do in the originals.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/workload.hpp"
#include "util/small_vec.hpp"
#include "util/zipf.hpp"

namespace seer::stamp {

struct Region {
  std::string name;
  std::uint32_t lines = 1;  // size in cache lines
  double zipf_skew = 0.0;   // 0 = uniform access; higher = hotter head
  // Per-thread regions model thread-private data (e.g. a kmeans worker's
  // input slice): each thread addresses a disjoint copy, so accesses there
  // never conflict across threads (but still occupy capacity).
  bool per_thread = false;
};

struct RegionAccess {
  std::uint16_t region = 0;  // index into WorkloadSpec::regions
  std::uint16_t reads = 0;   // lines read from the region
  std::uint16_t writes = 0;  // lines written in the region
};

struct TxTypeSpec {
  std::string name;
  std::uint64_t duration_mean = 1000;  // cycles of serial work
  double duration_jitter = 0.3;        // uniform +- fraction of the mean
  util::SmallVec<RegionAccess, 6> accesses;
};

struct Phase {
  double fraction = 1.0;        // share of a thread's run spent here
  std::vector<double> mix;      // relative weight per transaction type
};

struct WorkloadSpec {
  std::string name;
  std::vector<Region> regions;
  std::vector<TxTypeSpec> types;
  std::vector<Phase> phases;        // must cover fractions summing to ~1
  std::uint64_t think_mean = 300;   // exponential inter-transaction gap
};

// A spec plus everything sampling derives from it, built once per spec and
// shared read-only by every SpecWorkload made from it (one per run): the
// normalized spec (a default uniform phase filled in), each phase's mix
// total, each skewed region's Zipf table, and each type's canonicalization
// plan. Nothing in it changes after construction, so concurrent runs read
// it without synchronization (DESIGN.md §11, "Generator cost").
struct CompiledSpec {
  explicit CompiledSpec(WorkloadSpec s);

  // Every read (or write) sample one type draws from one region: a slice
  // [begin, end) of the drawn footprint. Groups ascend by region index.
  struct Group {
    std::uint16_t region = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  struct TypePlan {
    // Where access k's reads (writes) land in the drawn reads (writes).
    util::SmallVec<std::uint32_t, 6> read_at;
    util::SmallVec<std::uint32_t, 6> write_at;
    std::uint32_t n_reads = 0;
    std::uint32_t n_writes = 0;
    std::uint32_t bitmap_words = 0;  // bitmap words its largest bitmap region needs
    std::vector<Group> read_groups;
    std::vector<Group> write_groups;
  };
  struct RegionTable {
    std::optional<util::Zipf> zipf;  // skewed regions of more than one line
    // LSD radix passes (8-bit digits) over region-relative offsets; 0 for a
    // region of at most kBitmapLines, canonicalized through a bitmap.
    std::uint8_t radix_passes = 0;
  };

  // Regions up to this size canonicalize through an on-stack bitmap.
  static constexpr std::uint32_t kBitmapLines = 4096;
  // Larger regions insertion-sort groups of up to this many samples and
  // radix-sort bigger ones.
  static constexpr std::uint32_t kInsertionMax = 32;

  WorkloadSpec spec;
  std::vector<double> mix_total;  // per phase: the sum of its mix weights
  std::vector<RegionTable> regions;
  std::vector<TypePlan> types;
};

// Turns a spec into an executable workload. One instance per simulated run;
// the sampling tables are shared, the per-thread scratch is not.
class SpecWorkload final : public sim::Workload {
 public:
  // Lays out the line-id space for `n_threads`. Throws sim::ConfigError
  // naming the region when the layout does not fit 32-bit line ids.
  SpecWorkload(std::shared_ptr<const CompiledSpec> compiled, std::size_t n_threads);
  // Compiles `spec` for this instance alone.
  SpecWorkload(WorkloadSpec spec, std::size_t n_threads);

  [[nodiscard]] const std::string& name() const override { return spec().name; }
  [[nodiscard]] std::size_t n_types() const override { return spec().types.size(); }
  [[nodiscard]] const std::string& type_name(core::TxTypeId t) const override {
    return spec().types[static_cast<std::size_t>(t)].name;
  }

  void next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
            sim::TxInstance& out) override;

  [[nodiscard]] std::uint64_t think_time(core::ThreadId thread,
                                         util::Xoshiro256& rng) override;

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return compiled_->spec; }

 private:
  // One ThreadId's scratch: the radix sort's second buffer.
  struct alignas(64) Lane {
    std::vector<std::uint32_t> aux;
  };

  [[nodiscard]] std::size_t phase_at(double progress) const noexcept;
  void canonicalize(std::vector<std::uint32_t>& lines,
                    const std::vector<CompiledSpec::Group>& groups,
                    core::ThreadId thread, std::uint64_t* bits);

  std::shared_ptr<const CompiledSpec> compiled_;
  std::size_t n_threads_;
  std::vector<std::uint64_t> region_base_;  // global line-id offsets
  std::vector<Lane> lanes_;                 // one per ThreadId
};

}  // namespace seer::stamp
