// Byte-stable number formatting shared by every JSON / JSONL / Prometheus
// writer (bench --json/--metrics/--snapshots, serve JSONL, /metrics).
//
// The formats are part of the output contract — goldens are compared byte
// for byte across --jobs values and revisions — so writers append through
// these three instead of each carrying its own snprintf helper.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

namespace seer::util {

// Plain decimal.
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// %.9g: shortest form that still prints deterministically computed doubles
// (thresholds, scores, rates, latencies) identically on every run.
inline void append_dbl(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

// %.6f: fixed six decimals, for probabilities and per-event rates.
inline void append_fixed6(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

}  // namespace seer::util
