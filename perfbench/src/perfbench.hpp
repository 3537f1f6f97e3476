// Shared pieces of the repository benchmark: clock, quantiles, digest, run
// arguments and outcome, and the entry points of the three workloads.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log-linear histogram of nanosecond latencies: values below 2^kSubBits are
// counted exactly, larger ones in 2^kSubBits sub-buckets per power of two
// (up to 2^kMaxBits ns, about three days; larger values land in the top
// bucket), so a quantile is within 1% of the nearest-rank sample while memory
// stays fixed (~20 KB) however many requests a step serves.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxBits = 48;

  void record(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  void merge(const LogHistogram& o) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  // Nearest-rank quantile (the ceil(q * n)-th smallest), reported as the
  // midpoint of the bucket that holds it; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    rank = std::clamp<std::uint64_t>(rank, 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }
  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept {
    constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    if (v < kSub) return static_cast<std::size_t>(v);
    v = std::min(v, (std::uint64_t{1} << kMaxBits) - 1);
    const int e = static_cast<int>(std::bit_width(v)) - 1;  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  [[nodiscard]] static double midpoint(std::size_t i) noexcept {
    constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i >> kSubBits) + kSubBits - 1;
    const double width = std::ldexp(1.0, e - kSubBits);
    const double lo = std::ldexp(1.0, e) + static_cast<double>(i & (kSub - 1)) * width;
    return lo + 0.5 * (width - 1.0);
  }

 private:
  std::vector<std::uint32_t> counts_ =
      std::vector<std::uint32_t>(static_cast<std::size_t>(kMaxBits - kSubBits + 1)
                                 << kSubBits);
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

// Median of a small set of per-pass figures: the mean of the two middle
// values for an even count, so two passes report their average.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// FNV-1a over 64-bit words: the fingerprint two runs of the simulator must
// share bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string config;     // serve-mixed: the traffic config (JSON)
  std::string trace_dir;  // where the traced mode writes its spans
};

// What one workload run reports. `e2e` and `layers` are keyed by metric name;
// main.cpp owns the catalogue of names and units and fills the gaps.
struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> info;  // human-readable lines printed before JSON
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

Outcome run_sim_fig3(const RunArgs& args);
Outcome run_sim_wide(const RunArgs& args);
Outcome run_serve_mixed(const RunArgs& args);

}  // namespace perfbench
