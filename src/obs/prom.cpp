#include "obs/prom.hpp"

#include "util/format.hpp"

namespace seer::obs {

namespace {

using util::append_u64;

bool valid_name_char(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

}  // namespace

std::string prom_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (valid_name_char(c, out.empty())) {
      out += c;
    } else if (out.empty() && c >= '0' && c <= '9') {
      out += '_';
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty()) out = "_";
  return out;
}

std::string prom_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"': out += "\\\""; break;
      default: out += c;
    }
  }
  return out;
}

void append_prom_value(std::string& out, std::string_view sanitized_name,
                       std::string_view kind, std::uint64_t value) {
  out += "# TYPE ";
  out += sanitized_name;
  out += ' ';
  out += kind;
  out += '\n';
  out += sanitized_name;
  out += ' ';
  append_u64(out, value);
  out += '\n';
}

std::string to_prometheus(const MetricsSnapshot& snap, std::string_view prefix) {
  std::string out;
  for (const CounterSnapshot& c : snap.counters) {
    append_prom_value(out, std::string(prefix) + prom_sanitize_name(c.name),
                      "counter", c.value);
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    append_prom_value(out, std::string(prefix) + prom_sanitize_name(g.name),
                      "gauge", g.value);
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string name = std::string(prefix) + prom_sanitize_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cum += h.buckets[b];
      out += name + "_bucket{le=\"";
      // Bucket b spans integers [2^(b-1), 2^b - 1]; b = 0 is exactly 0.
      // b = 64 spans up to 2^64 - 1 == ~0, which the shift below yields.
      if (b == 0) {
        out += '0';
      } else if (b >= 64) {
        append_u64(out, ~std::uint64_t{0});
      } else {
        append_u64(out, (std::uint64_t{1} << b) - 1);
      }
      out += "\"} ";
      append_u64(out, cum);
      out += '\n';
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    append_u64(out, h.count);
    out += '\n';
    out += name + "_sum ";
    append_u64(out, h.sum);
    out += '\n';
    out += name + "_count ";
    append_u64(out, h.count);
    out += '\n';
  }
  return out;
}

}  // namespace seer::obs
