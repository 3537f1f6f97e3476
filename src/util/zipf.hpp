// Zipf-distributed sampling over a finite universe [0, n).
//
// The STAMP stand-in workloads use Zipfian access skew to model hot data
// (e.g. popular customers in vacation, frequent flows in intruder). For the
// universe sizes involved (up to a few hundred thousand lines) a precomputed
// inverse-CDF table is both exact and fast to sample from.
//
// Lookup is Chen & Asau's indexed search: a guide table of n entries,
// guide[j] = the first rank whose CDF is >= j/n, starts the scan next to the
// answer. From any start rank, stepping back while cdf[i-1] >= u and then
// forward while cdf[i] < u ends at the first rank whose CDF is >= u — the
// CDF is non-decreasing — so a given u maps to exactly the rank a binary
// search over the same CDF returns, plateaus included. The guide only bounds
// the steps: O(1) expected.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace seer::util {

class Zipf {
 public:
  // `n` — universe size; `s` — skew exponent (0 = uniform; 0.99 ~ YCSB-hot).
  Zipf(std::uint64_t n, double s) : n_(n), s_(s) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(acc);
    }
    const double total = acc;
    for (auto& c : cdf_) c /= total;

    guide_.resize(cdf_.size());
    const double m = static_cast<double>(guide_.size());
    std::size_t i = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
      const double threshold = static_cast<double>(j) / m;
      while (i + 1 < cdf_.size() && cdf_[i] < threshold) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
  }

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double skew() const noexcept { return s_; }

  // Samples a rank in [0, n); rank 0 is the hottest element.
  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng) const noexcept {
    return rank_of(rng.uniform01());
  }

  // The first rank whose CDF is >= u (the last rank if none is), for u in
  // [0, 1). `sample` is rank_of(uniform01()).
  [[nodiscard]] std::uint64_t rank_of(double u) const noexcept {
    const std::size_t m = guide_.size();
    const auto j = std::min(m - 1, static_cast<std::size_t>(u * static_cast<double>(m)));
    std::size_t i = guide_[j];
    while (i > 0 && cdf_[i - 1] >= u) --i;
    while (i + 1 < cdf_.size() && cdf_[i] < u) ++i;
    return static_cast<std::uint64_t>(i);
  }

  // Probability mass of rank k (diagnostics / tests).
  [[nodiscard]] double pmf(std::uint64_t k) const noexcept {
    if (k >= n_) return 0.0;
    const double hi = cdf_[static_cast<std::size_t>(k)];
    const double lo = (k == 0) ? 0.0 : cdf_[static_cast<std::size_t>(k) - 1];
    return hi - lo;
  }

  // The normalized CDF: cdf()[k] = P(rank <= k) (tests).
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

 private:
  std::uint64_t n_;
  double s_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // guide_[j]: first rank with cdf >= j/n
};

}  // namespace seer::util
