#include "obs/metrics.hpp"

#include "util/format.hpp"

namespace seer::obs {

using util::append_u64;

std::string MetricsSnapshot::to_json() const {
  if (counters.empty() && gauges.empty() && histograms.empty()) return "{}";
  std::string out = "{\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + counters[i].name + "\": ";
    append_u64(out, counters[i].value);
  }
  out += "}, ";
  // Emitted only when present so pre-gauge dumps stay byte-identical (the
  // bench --metrics byte-stability tests compare against that shape).
  if (!gauges.empty()) {
    out += "\"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + gauges[i].name + "\": ";
      append_u64(out, gauges[i].value);
    }
    out += "}, ";
  }
  out += "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out += ", ";
    out += "\"" + h.name + "\": {\"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_u64(out, h.sum);
    out += ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "[";
      append_u64(out, b);
      out += ", ";
      append_u64(out, h.buckets[b]);
      out += "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t c = 0; c < counter_names_.size(); ++c) {
    CounterSnapshot cs;
    cs.name = counter_names_[c];
    if (frozen_) {
      for (std::size_t t = 0; t < n_threads_; ++t) {
        cs.value += lanes_[t * lane_len_ + c].load(std::memory_order_relaxed);
      }
    }
    snap.counters.push_back(std::move(cs));
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t g = 0; g < gauge_names_.size(); ++g) {
    GaugeSnapshot gs;
    gs.name = gauge_names_[g];
    if (frozen_) gs.value = gauge_cells_[g].load(std::memory_order_relaxed);
    snap.gauges.push_back(std::move(gs));
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t h = 0; h < histogram_names_.size(); ++h) {
    HistogramSnapshot hs;
    hs.name = histogram_names_[h];
    if (frozen_) {
      const std::size_t base = counter_names_.size() + h * kHistogramSlots;
      for (std::size_t t = 0; t < n_threads_; ++t) {
        const Cell* block = &lanes_[t * lane_len_ + base];
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          hs.buckets[b] += block[b].load(std::memory_order_relaxed);
        }
        hs.count += block[kHistogramBuckets].load(std::memory_order_relaxed);
        hs.sum += block[kHistogramBuckets + 1].load(std::memory_order_relaxed);
      }
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace seer::obs
