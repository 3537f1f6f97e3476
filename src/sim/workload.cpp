#include "sim/workload.hpp"

#include <algorithm>
#include <cstddef>

namespace seer::sim {

// Merge below this size ratio; gallop the smaller side into the larger one
// at or above it. A gallop probe costs about two binary-search steps per
// doubling, so it pays once the larger side is several times the smaller.
constexpr std::size_t kGallopRatio = 8;

// Disjoint [front, back] ranges are rejected at once; otherwise a merge,
// O(n + m), or, when one side is much smaller, a galloping search of each of
// its elements into the other, O(small * log(large / small)).
bool sorted_intersects(const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b) noexcept {
  if (a.empty() || b.empty() || a.back() < b.front() || b.back() < a.front()) {
    return false;
  }
  const bool a_small = a.size() <= b.size();
  const std::vector<std::uint32_t>& small = a_small ? a : b;
  const std::vector<std::uint32_t>& large = a_small ? b : a;
  if (small.size() * kGallopRatio <= large.size()) {
    auto first = large.begin();
    const auto last = large.end();
    for (const std::uint32_t x : small) {
      // Double the step from `first` until an element >= x is passed, then
      // binary-search that last step. Everything before `first` is < x.
      std::ptrdiff_t step = 1;
      auto hi = first;
      while (hi != last && *hi < x) {
        first = hi + 1;
        hi = last - first > step ? first + step : last;
        step *= 2;
      }
      first = std::lower_bound(first, hi, x);
      if (first == last) return false;
      if (*first == x) return true;
    }
    return false;
  }
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

std::size_t TxInstance::footprint_lines() const noexcept {
  // reads and writes are sorted unique; count the union without allocating.
  std::size_t n = 0;
  auto ir = reads.begin();
  auto iw = writes.begin();
  while (ir != reads.end() && iw != writes.end()) {
    if (*ir < *iw) {
      ++ir;
    } else if (*iw < *ir) {
      ++iw;
    } else {
      ++ir;
      ++iw;
    }
    ++n;
  }
  n += static_cast<std::size_t>(reads.end() - ir);
  n += static_cast<std::size_t>(writes.end() - iw);
  return n;
}

bool write_conflicts(const TxInstance& a, const TxInstance& b) noexcept {
  return sorted_intersects(a.writes, b.reads) || sorted_intersects(a.writes, b.writes);
}

}  // namespace seer::sim
