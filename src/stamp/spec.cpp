#include "stamp/spec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace seer::stamp {

namespace {

// The groups of one footprint side: every access's samples of a region
// land contiguously, regions in ascending index order. `count(a)` is the
// access's read or write count; `at[k]` receives access k's offset.
std::vector<CompiledSpec::Group> plan_side(const TxTypeSpec& ts, std::size_t n_regions,
                                           std::uint16_t RegionAccess::*count,
                                           util::SmallVec<std::uint32_t, 6>& at,
                                           std::uint32_t& total) {
  std::vector<CompiledSpec::Group> groups;
  for (std::size_t r = 0; r < n_regions; ++r) {
    CompiledSpec::Group g;
    g.region = static_cast<std::uint16_t>(r);
    g.begin = total;
    for (const RegionAccess& a : ts.accesses) {
      if (a.region == r) total += a.*count;
    }
    g.end = total;
    if (g.end > g.begin) groups.push_back(g);
  }
  // Second walk: each access's slot inside its region's group, in access
  // order (the order its samples are drawn).
  std::vector<std::uint32_t> cursor(n_regions, 0);
  for (const CompiledSpec::Group& g : groups) cursor[g.region] = g.begin;
  for (const RegionAccess& a : ts.accesses) {
    at.push_back(cursor[a.region]);
    cursor[a.region] += a.*count;
  }
  return groups;
}

// Sorts `n` region-relative offsets below 2^(8 * passes), 8 bits per pass,
// between `a` and `b`; returns whichever holds the result.
std::uint32_t* radix_sort(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                          unsigned passes) {
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = 8 * p;
    std::array<std::uint32_t, 256> count{};
    for (std::size_t i = 0; i < n; ++i) ++count[(a[i] >> shift) & 0xff];
    if (count[(a[0] >> shift) & 0xff] == n) continue;  // one digit: already ordered
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) b[count[(a[i] >> shift) & 0xff]++] = a[i];
    std::swap(a, b);
  }
  return a;
}

// Appends base + each distinct value of the sorted `src[0, n)` at
// `dst[w]`, returning the new w. `dst` may alias `src` when w <= the index
// of src[0]: every value is read before its slot can be overwritten.
std::size_t emit_unique(const std::uint32_t* src, std::size_t n, std::uint32_t base,
                        std::uint32_t* dst, std::size_t w) {
  std::uint32_t prev = src[0];
  dst[w++] = base + prev;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t x = src[i];
    if (x != prev) dst[w++] = base + x;
    prev = x;
  }
  return w;
}

constexpr std::uint64_t kLineIdSpace = std::uint64_t{1} << 32;

}  // namespace

CompiledSpec::CompiledSpec(WorkloadSpec s) : spec(std::move(s)) {
  assert(!spec.types.empty());
  assert(!spec.regions.empty());
  if (spec.phases.empty()) {
    // Default: one phase, uniform mix.
    Phase p;
    p.fraction = 1.0;
    p.mix.assign(spec.types.size(), 1.0);
    spec.phases.push_back(std::move(p));
  }
  for (const Phase& p : spec.phases) {
    assert(p.mix.size() == spec.types.size());
    double total = 0.0;
    for (double w : p.mix) total += w;
    mix_total.push_back(total);
  }

  regions.resize(spec.regions.size());
  for (std::size_t i = 0; i < spec.regions.size(); ++i) {
    const Region& r = spec.regions[i];
    if (r.zipf_skew > 0.0 && r.lines > 1) regions[i].zipf.emplace(r.lines, r.zipf_skew);
    if (r.lines > kBitmapLines) {
      const auto bits = static_cast<unsigned>(std::bit_width(r.lines - 1));
      regions[i].radix_passes = static_cast<std::uint8_t>((bits + 7) / 8);
    }
  }

  types.reserve(spec.types.size());
  for (const TxTypeSpec& ts : spec.types) {
    TypePlan plan;
    plan.read_groups = plan_side(ts, spec.regions.size(), &RegionAccess::reads,
                                 plan.read_at, plan.n_reads);
    plan.write_groups = plan_side(ts, spec.regions.size(), &RegionAccess::writes,
                                  plan.write_at, plan.n_writes);
    for (const RegionAccess& a : ts.accesses) {
      const std::uint32_t lines = spec.regions[a.region].lines;
      if (lines <= kBitmapLines) {
        plan.bitmap_words = std::max(plan.bitmap_words, (lines + 63) / 64);
      }
    }
    types.push_back(std::move(plan));
  }
}

SpecWorkload::SpecWorkload(WorkloadSpec spec, std::size_t n_threads)
    : SpecWorkload(std::make_shared<const CompiledSpec>(std::move(spec)), n_threads) {}

SpecWorkload::SpecWorkload(std::shared_ptr<const CompiledSpec> compiled,
                           std::size_t n_threads)
    : compiled_(std::move(compiled)), n_threads_(n_threads), lanes_(n_threads) {
  // Lay regions out in one global line-id space; per-thread regions get one
  // disjoint slice per thread. Line ids are 32-bit: a layout past 2^32
  // lines would wrap one region's ids onto another's.
  const std::vector<Region>& regions = spec().regions;
  region_base_.reserve(regions.size());
  std::uint64_t base = 0;
  const Region* overflow = nullptr;
  for (const Region& r : regions) {
    region_base_.push_back(base);
    base += static_cast<std::uint64_t>(r.lines) * (r.per_thread ? n_threads_ : 1);
    if (base > kLineIdSpace && overflow == nullptr) overflow = &r;
  }
  if (overflow != nullptr) {
    throw sim::ConfigError(
        "workload \"" + spec().name + "\": region \"" + overflow->name +
        "\" ends past the 2^32-line id space: the regions total " +
        std::to_string(base) + " lines at " + std::to_string(n_threads_) +
        " threads (per_thread regions count once per thread)");
  }
}

std::size_t SpecWorkload::phase_at(double progress) const noexcept {
  const std::vector<Phase>& phases = spec().phases;
  double acc = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    acc += phases[i].fraction;
    if (progress < acc) return i;
  }
  return phases.size() - 1;
}

// Sorts and deduplicates each group's region-relative offsets and writes
// them back as global line ids, group after group. Regions occupy disjoint
// line ranges that ascend with the region index, so the concatenation is
// exactly sort + unique of the whole side. Output never overtakes input:
// a group emits at most as many ids as it holds.
void SpecWorkload::canonicalize(std::vector<std::uint32_t>& lines,
                                const std::vector<CompiledSpec::Group>& groups,
                                core::ThreadId thread, std::uint64_t* bits) {
  const CompiledSpec& cs = *compiled_;
  std::uint32_t* data = lines.data();
  std::size_t w = 0;
  for (const CompiledSpec::Group& g : groups) {
    const Region& r = cs.spec.regions[g.region];
    const auto base = static_cast<std::uint32_t>(
        region_base_[g.region] +
        (r.per_thread ? static_cast<std::uint64_t>(thread) * r.lines : 0));
    std::uint32_t* s = data + g.begin;
    const std::size_t n = g.end - g.begin;
    const unsigned passes = cs.regions[g.region].radix_passes;
    if (passes == 0) {
      // Bitmap over the region (at most kBitmapLines bits), scanned between
      // the lowest and highest touched words.
      std::uint32_t lo = CompiledSpec::kBitmapLines / 64;
      std::uint32_t hi = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t word = s[i] >> 6;
        bits[word] |= std::uint64_t{1} << (s[i] & 63);
        lo = std::min(lo, word);
        hi = std::max(hi, word);
      }
      for (std::uint32_t word = lo; word <= hi; ++word) {
        for (std::uint64_t b = bits[word]; b != 0; b &= b - 1) {
          data[w++] = base + word * 64 + static_cast<std::uint32_t>(std::countr_zero(b));
        }
        bits[word] = 0;
      }
    } else if (n <= CompiledSpec::kInsertionMax) {
      for (std::size_t i = 1; i < n; ++i) {
        const std::uint32_t x = s[i];
        std::size_t j = i;
        for (; j > 0 && s[j - 1] > x; --j) s[j] = s[j - 1];
        s[j] = x;
      }
      w = emit_unique(s, n, base, data, w);
    } else {
      std::vector<std::uint32_t>& aux = lanes_[thread].aux;
      if (aux.size() < n) aux.resize(n);
      const std::uint32_t* sorted = radix_sort(s, aux.data(), n, passes);
      w = emit_unique(sorted, n, base, data, w);
    }
  }
  lines.resize(w);
}

void SpecWorkload::next(core::ThreadId thread, double progress, util::Xoshiro256& rng,
                        sim::TxInstance& out) {
  assert(thread < n_threads_);
  const CompiledSpec& cs = *compiled_;
  const std::size_t phase = phase_at(progress);
  const std::vector<double>& mix = cs.spec.phases[phase].mix;

  // Pick the transaction type from the phase mix.
  double pick = rng.uniform01() * cs.mix_total[phase];
  std::size_t type = 0;
  for (; type + 1 < mix.size(); ++type) {
    pick -= mix[type];
    if (pick < 0.0) break;
  }
  const TxTypeSpec& ts = cs.spec.types[type];
  const CompiledSpec::TypePlan& plan = cs.types[type];

  out.type = static_cast<core::TxTypeId>(type);

  // Duration: uniform jitter around the mean.
  const double lo = 1.0 - ts.duration_jitter;
  const double span = 2.0 * ts.duration_jitter;
  out.duration = static_cast<std::uint64_t>(
      static_cast<double>(ts.duration_mean) * (lo + span * rng.uniform01()));
  if (out.duration == 0) out.duration = 1;

  // Footprint: draw region-relative lines access by access, reads then
  // writes, each into its region's group; then make both sides sorted and
  // unique global ids, as the conflict detector requires.
  out.reads.resize(plan.n_reads);
  out.writes.resize(plan.n_writes);
  const auto draw = [&rng](const CompiledSpec::RegionTable& table, std::uint32_t lines,
                           std::uint32_t* dst, std::uint16_t n) {
    if (table.zipf) {
      for (std::uint16_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint32_t>(table.zipf->sample(rng));
      }
    } else {
      for (std::uint16_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint32_t>(rng.below(lines));
      }
    }
  };
  for (std::size_t k = 0; k < ts.accesses.size(); ++k) {
    const RegionAccess& a = ts.accesses[k];
    const CompiledSpec::RegionTable& table = cs.regions[a.region];
    const std::uint32_t lines = cs.spec.regions[a.region].lines;
    draw(table, lines, out.reads.data() + plan.read_at[k], a.reads);
    draw(table, lines, out.writes.data() + plan.write_at[k], a.writes);
  }
  // Zeroed as far as this type's regions reach; extraction re-zeroes it.
  std::array<std::uint64_t, CompiledSpec::kBitmapLines / 64> bits;
  std::fill_n(bits.begin(), plan.bitmap_words, 0);
  canonicalize(out.reads, plan.read_groups, thread, bits.data());
  canonicalize(out.writes, plan.write_groups, thread, bits.data());
}

std::uint64_t SpecWorkload::think_time(core::ThreadId /*thread*/,
                                       util::Xoshiro256& rng) {
  if (spec().think_mean == 0) return 0;
  // Exponentially distributed inter-transaction gap.
  const double u = std::max(rng.uniform01(), 1e-12);
  return static_cast<std::uint64_t>(-static_cast<double>(spec().think_mean) *
                                    std::log(u));
}

}  // namespace seer::stamp
