// ModelSnapshot — a point-in-time capture of the Seer scheduler's full
// probabilistic state: the merged Alg. 3 abort/commit matrices, the derived
// pairwise conflict probabilities, the active fine-grained lock scheme, and
// the hill climber's position in (Th1, Th2) space.
//
// The struct is plain data (it carries no hot-path machinery); the
// FlightRecorder retains and serializes snapshots. Snapshots are built on
// the maintenance path only (scheme rebuilds, end of run) — never on the
// per-transaction record_commit/record_abort path — so the allocations here
// cost the same class of work as the rebuild that triggers them.
//
// Serialization is a versioned JSON object (kModelSnapshotVersion). The
// format is append-only by contract: consumers (tools/seer_inspect) must
// tolerate unknown keys, and any key removal or meaning change bumps the
// version. All numeric formatting is locale-independent printf, so dumps
// are byte-identical across runs of the same deterministic embedding — the
// property the bench harness's --jobs invariance tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace seer::obs {

inline constexpr int kModelSnapshotVersion = 1;

enum class SnapshotReason : std::uint8_t {
  kPeriodic,  // every k-th scheme rebuild (FlightRecorderConfig::period)
  kAnomaly,   // abort-storm / SGL-storm detector fired
  kFinal,     // end-of-run capture
};

[[nodiscard]] constexpr const char* to_string(SnapshotReason r) noexcept {
  switch (r) {
    case SnapshotReason::kPeriodic: return "periodic";
    case SnapshotReason::kAnomaly: return "anomaly";
    case SnapshotReason::kFinal: return "final";
  }
  return "?";
}

struct ModelSnapshot {
  // Capture identity (seq is assigned by the FlightRecorder on record()).
  std::uint64_t seq = 0;
  SnapshotReason reason = SnapshotReason::kPeriodic;
  std::uint64_t now = 0;      // logical clock of the embedding (cycles/ticks)
  std::uint64_t rebuild = 0;  // scheduler rebuild count at capture

  // Exact (unsampled) lifetime tallies at capture; sgl_fallbacks is the
  // FlightRecorder's own grant count, stamped on record().
  std::uint64_t executions = 0;
  std::uint64_t commits = 0;
  std::uint64_t sgl_fallbacks = 0;

  // Inference thresholds live at capture (Th1, Th2).
  double th1 = 0.0;
  double th2 = 0.0;

  // Hill-climber search state.
  double climber_cur_x = 0.0;
  double climber_cur_y = 0.0;
  double climber_best_x = 0.0;
  double climber_best_y = 0.0;
  double climber_best_score = 0.0;
  std::uint64_t climber_epochs = 0;

  // Merged Alg. 3 statistics (row-major n_types x n_types; sampled counters
  // already scaled back to event units by the merge).
  std::size_t n_types = 0;
  std::vector<std::uint64_t> aborts;
  std::vector<std::uint64_t> commit_pairs;
  std::vector<std::uint64_t> execs;  // n_types

  // Active locksToAcquire rows: scheme[x] lists the lock owners x acquires.
  std::vector<std::vector<core::TxTypeId>> scheme;

  [[nodiscard]] std::uint64_t abort(core::TxTypeId x, core::TxTypeId y) const noexcept {
    return aborts[static_cast<std::size_t>(x) * n_types + static_cast<std::size_t>(y)];
  }
  [[nodiscard]] std::uint64_t commit_pair(core::TxTypeId x,
                                          core::TxTypeId y) const noexcept {
    return commit_pairs[static_cast<std::size_t>(x) * n_types +
                        static_cast<std::size_t>(y)];
  }

  // Appends this snapshot as one JSON object. Pairs with zero evidence are
  // omitted (the matrices are sparse in practice); each emitted pair carries
  // the raw tallies AND the derived probabilities the paper's inference
  // consumes — P(x aborts | x||y) and P(x aborts ∩ x||y) — so offline tools
  // need not re-derive them.
  void append_json(std::string& out) const;
};

}  // namespace seer::obs
