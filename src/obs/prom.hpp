// Prometheus text-exposition rendering of MetricsSnapshot (DESIGN.md §13).
//
// One shared formatter feeds both consumers of the live telemetry plane:
// the /metrics HTTP endpoint and seer_serve's --metrics-out final dump, so
// "the last scrape equals the file" holds by construction. It renders
// exposition format 0.0.4 (the text format every Prometheus-compatible
// scraper speaks):
//
//   * metric names are sanitized ([a-zA-Z0-9_:], everything else -> '_')
//     and prefixed "seer_", so "rt.commits" becomes "seer_rt_commits";
//   * counters/gauges emit a # TYPE line and one sample;
//   * the registry's bit_width histograms map exactly onto Prometheus
//     cumulative histograms: bucket b holds values with bit_width(v) == b,
//     i.e. the integer range [2^(b-1), 2^b - 1], so its inclusive upper
//     bound le="2^b - 1" is precise, not an approximation. Empty buckets
//     are skipped (legal — consumers accumulate), +Inf always closes the
//     series, and _sum/_count ride along.
//
// An empty snapshot renders as an empty exposition.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace seer::obs {

// "rt.commits" -> "rt_commits": every char outside [a-zA-Z0-9_:] becomes
// '_', and a leading digit gets a '_' prefix (names must not start with one).
[[nodiscard]] std::string prom_sanitize_name(std::string_view name);

// Escapes a HELP/label value per the exposition format: backslash, newline
// (and for label values, double quote) get backslash escapes.
[[nodiscard]] std::string prom_escape(std::string_view text);

// Appends one counter/gauge family: "# TYPE <name> <kind>\n<name> <value>\n".
void append_prom_value(std::string& out, std::string_view sanitized_name,
                       std::string_view kind, std::uint64_t value);

// Renders the whole snapshot. `prefix` is prepended to every (sanitized)
// metric name; pass "" for none. Returns "" for an empty snapshot.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap,
                                        std::string_view prefix = "seer_");

}  // namespace seer::obs
