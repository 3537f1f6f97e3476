// The scheduling policies evaluated in the paper (§2, §5.1) plus Seer.
//
//   HLE  — hardware lock elision: a tiny implicit retry budget, no waiting
//          on the fallback lock (hence the lemming effect under contention).
//   RTM  — software retry loop (budget 5), waits for the SGL to be free
//          before every attempt. The de-facto technique for commodity HTM;
//          ATS-in-spirit per the paper's discussion.
//   SCM  — software-assisted conflict management (Afek et al., PODC'14):
//          aborted transactions serialize on one auxiliary lock before
//          retrying in hardware; the SGL is reached only on budget
//          exhaustion.
//   ATS  — adaptive transaction scheduling (Yoo & Lee, SPAA'08): a
//          per-thread contention factor decides whether to serialize the
//          whole attempt behind a single scheduling lock.
//   SGL  — always take the global lock (pessimistic bound).
//   Seer — this paper: Alg. 1-5 over the core scheduler.
#pragma once

#include <memory>
#include <vector>

#include "core/seer_scheduler.hpp"
#include "runtime/policy.hpp"

namespace seer::rt {

// kOracle is an upper-bound baseline available only where precise conflict
// attribution exists (the simulator, standing in for an STM's feedback —
// Figure 1): it learns the conflict graph from exact aggressor identities
// and serializes flagged pairs from the first retry on. The gap between
// Seer and Oracle measures what the probabilistic inference loses to the
// imprecision of commodity HTM feedback.
enum class PolicyKind : std::uint8_t { kHle, kRtm, kScm, kAts, kSgl, kSeer, kOracle };

[[nodiscard]] constexpr const char* to_string(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::kHle: return "HLE";
    case PolicyKind::kRtm: return "RTM";
    case PolicyKind::kScm: return "SCM";
    case PolicyKind::kAts: return "ATS";
    case PolicyKind::kSgl: return "SGL";
    case PolicyKind::kSeer: return "Seer";
    case PolicyKind::kOracle: return "Oracle";
  }
  return "?";
}

struct AtsParams {
  double alpha = 0.3;      // exponential moving average weight
  double threshold = 0.5;  // contention factor above which to serialize
};

struct OracleParams {
  // Serialize pair (x, y) once precisely-attributed conflicts between them
  // account for more than this fraction of x's executions.
  double conflict_threshold = 0.05;
  // Executions between scheme rebuilds.
  std::uint64_t update_period = 512;
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kRtm;
  int max_attempts = 5;  // paper §5.1: budget of 5 for all approaches
  int hle_attempts = 2;  // HLE's implicit, implementation-defined budget
  AtsParams ats{};
  OracleParams oracle{};
  core::SeerConfig seer{};
};

// Shared state of the Oracle baseline: exact pairwise conflict counts fed
// by precise attribution, and the lock scheme derived from them.
class OracleShared {
 public:
  OracleShared(std::size_t n_types, const OracleParams& params);

  void record_execution(core::TxTypeId x) noexcept;
  void record_conflict(core::TxTypeId victim, core::TxTypeId culprit) noexcept;

  // Rebuilds the scheme if due (any thread may call; internally throttled).
  void maybe_rebuild();

  [[nodiscard]] std::shared_ptr<const core::LockScheme> scheme() const {
    return std::atomic_load_explicit(&scheme_, std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t conflicts(core::TxTypeId x,
                                        core::TxTypeId y) const noexcept;

 private:
  std::size_t n_types_;
  OracleParams params_;
  std::vector<std::atomic<std::uint64_t>> pair_conflicts_;  // n*n
  std::vector<std::atomic<std::uint64_t>> executions_;      // n
  std::atomic<std::uint64_t> since_rebuild_{0};
  std::shared_ptr<const core::LockScheme> scheme_;
};

// Global state shared by all threads running one policy instance
// (the SeerScheduler, ATS contention factors, ...). Create one per
// experiment, then one Policy per thread from it. `observer` is the
// embedding's (obs/observer.hpp), handed to the Seer scheduler.
class PolicyShared {
 public:
  PolicyShared(const PolicyConfig& cfg, std::size_t n_threads, std::size_t n_types,
               obs::Observer* observer = nullptr);

  [[nodiscard]] std::unique_ptr<Policy> make_thread_policy(core::ThreadId thread);

  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_threads() const noexcept { return n_threads_; }
  [[nodiscard]] std::size_t n_types() const noexcept { return n_types_; }

  // Non-null only for PolicyKind::kSeer.
  [[nodiscard]] core::SeerScheduler* seer() noexcept { return seer_.get(); }

  // Non-null only for PolicyKind::kOracle.
  [[nodiscard]] OracleShared* oracle() noexcept { return oracle_.get(); }

  // ATS: per-thread contention factors (single-writer cells).
  [[nodiscard]] double ats_contention(core::ThreadId t) const noexcept;
  void ats_update(core::ThreadId t, bool aborted) noexcept;

 private:
  PolicyConfig cfg_;
  std::size_t n_threads_;
  std::size_t n_types_;
  std::unique_ptr<core::SeerScheduler> seer_;
  std::unique_ptr<OracleShared> oracle_;
  std::vector<util::Padded<std::atomic<double>>> ats_cf_;
};

}  // namespace seer::rt
