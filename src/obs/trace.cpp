#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/observer.hpp"

namespace seer::obs {

std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

TraceSink::TraceSink(std::size_t n_threads, std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  mask_ = cap - 1;
  lanes_.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    auto lane = std::make_unique<Lane>();
    lane->slots.resize(cap);
    lanes_.push_back(std::move(lane));
  }
}

std::uint64_t TraceSink::emitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->head.load(std::memory_order_acquire);
  return n;
}

std::uint64_t TraceSink::dropped() const noexcept {
  const std::uint64_t cap = mask_ + 1;
  std::uint64_t n = 0;
  for (const auto& l : lanes_) {
    const std::uint64_t h = l->head.load(std::memory_order_acquire);
    if (h > cap) n += h - cap;
  }
  return n;
}

std::vector<std::uint64_t> TraceSink::dropped_per_lane() const {
  const std::uint64_t cap = mask_ + 1;
  std::vector<std::uint64_t> out(lanes_.size(), 0);
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    const std::uint64_t h = lanes_[t]->head.load(std::memory_order_acquire);
    if (h > cap) out[t] = h - cap;
  }
  return out;
}

std::vector<TraceEvent> TraceSink::drain_sorted() const {
  std::vector<TraceEvent> out;
  const std::uint64_t cap = mask_ + 1;
  for (const auto& l : lanes_) {
    const std::uint64_t head = l->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min(head, cap);
    for (std::uint64_t i = head - n; i < head; ++i) {
      out.push_back(l->slots[i & mask_]);
    }
  }
  // Lane-internal order is emission order (ascending i above); the merge is
  // stabilized by (ts, thread) so equal-timestamp events across lanes land
  // deterministically.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.thread < b.thread;
                   });
  return out;
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<TraceEvent> events = drain_sorted();

  // Depth of open "B" spans per lane, so the emitted B/E stream is always
  // balanced: an abort/commit with no open begin (its begin was overwritten
  // by wraparound) demotes to an instant, and begins still open at the end
  // are closed at the final timestamp.
  std::vector<int> depth(lanes_.size(), 0);
  std::uint64_t last_ts = 0;

  // seerMeta carries the sink's bookkeeping (ignored by Chrome/Perfetto,
  // read by tools/seer_inspect): droppedPerThread nonzero means that lane's
  // oldest events were overwritten and the trace is a suffix of reality.
  const std::vector<std::uint64_t> lane_drops = dropped_per_lane();
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"seerMeta\": {\"emitted\": %" PRIu64
               ", \"dropped\": %" PRIu64 ", \"droppedPerThread\": [",
               emitted(), dropped());
  for (std::size_t t = 0; t < lane_drops.size(); ++t) {
    std::fprintf(f, "%s%" PRIu64, t > 0 ? ", " : "", lane_drops[t]);
  }
  std::fprintf(f, "]}, \"traceEvents\": [\n");
  bool first = true;
  auto emit_record = [&](const char* name, const char* ph, std::uint64_t ts,
                         core::ThreadId tid, std::uint64_t arg, bool instant) {
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %" PRIu64
                 ", \"pid\": 0, \"tid\": %u%s, \"args\": {\"arg\": %" PRIu64 "}}",
                 first ? "" : ",\n", name, ph, ts, tid,
                 instant ? ", \"s\": \"t\"" : "", arg);
    first = false;
  };

  for (const TraceEvent& e : events) {
    last_ts = e.ts;
    switch (e.kind) {
      case Event::kTxBegin:
        emit_record("tx", "B", e.ts, e.thread, e.arg, false);
        ++depth[e.thread];
        break;
      case Event::kCommit:
      case Event::kAbort:
        if (depth[e.thread] > 0) {
          emit_record(to_string(e.kind), "E", e.ts, e.thread, e.arg, false);
          --depth[e.thread];
        } else {
          emit_record(to_string(e.kind), "i", e.ts, e.thread, e.arg, true);
        }
        break;
      default:
        emit_record(to_string(e.kind), "i", e.ts, e.thread, e.arg, true);
        break;
    }
  }
  for (std::size_t t = 0; t < depth.size(); ++t) {
    while (depth[t] > 0) {
      emit_record("tx", "E", last_ts, static_cast<core::ThreadId>(t), 0, false);
      --depth[t];
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

std::string TraceSink::summary() const {
  constexpr std::size_t kKinds = kTracedEvents;
  std::vector<std::array<std::uint64_t, kKinds>> per_lane(lanes_.size());
  for (auto& row : per_lane) row.fill(0);
  for (const TraceEvent& e : drain_sorted()) {
    per_lane[e.thread][static_cast<std::size_t>(e.kind)]++;
  }

  const std::vector<std::uint64_t> lane_drops = dropped_per_lane();
  std::string out = "thread";
  for (std::size_t k = 0; k < kKinds; ++k) {
    out += "  ";
    out += to_string(static_cast<Event>(k));
  }
  out += "  lost\n";
  char buf[96];
  for (std::size_t t = 0; t < per_lane.size(); ++t) {
    std::snprintf(buf, sizeof buf, "%6zu", t);
    out += buf;
    for (std::size_t k = 0; k < kKinds; ++k) {
      const char* kind = to_string(static_cast<Event>(k));
      std::snprintf(buf, sizeof buf, "  %*" PRIu64,
                    static_cast<int>(std::char_traits<char>::length(kind)),
                    per_lane[t][k]);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "  %4" PRIu64 "\n", lane_drops[t]);
    out += buf;
  }
  const std::uint64_t total_dropped = dropped();
  std::snprintf(buf, sizeof buf,
                "emitted %" PRIu64 "  retained %zu  dropped %" PRIu64 "\n",
                emitted(), drain_sorted().size(), total_dropped);
  out += buf;
  if (total_dropped > 0) {
    std::snprintf(buf, sizeof buf, "WARNING: %" PRIu64 " events lost",
                  total_dropped);
    out += buf;
    out += " to ring wraparound; per-thread history is truncated "
           "(raise trace capacity)\n";
  }
  return out;
}

}  // namespace seer::obs
