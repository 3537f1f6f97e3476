// Observer — the one observation spine every backend reports through
// (DESIGN.md §8).
//
// Seer learns from a single event stream — announce, abort, commit (Alg.
// 1-3) — and every backend produces it: the simulator on its cycle clock,
// the threaded executor (and the SoftHtm contexts it owns) on RDTSC. The
// Observer names that stream once (`Event`), maps each (layer, event) to
// its metric once (`kVocabulary`), and fans each event out to the four
// consumers an embedding may attach:
//
//   metrics   MetricsRegistry — counters/histograms per the vocabulary;
//   trace     TraceSink       — the per-thread event ring (Chrome JSON);
//   recorder  FlightRecorder  — SGL grants + per-rebuild model captures;
//   events    SchedTraceRecorder — the check harness's scheduler-stream
//             capture (src/check/differential.hpp replays it).
//
// An embedding (sim::Machine, rt::ThreadedExecutor) builds one Observer
// from the sinks it was given and hands the same pointer to every
// component it owns — SeerScheduler, each SoftHtm::ThreadContext — or
// nullptr when no sink is attached, so every instrumentation point is one
// predictable null test. Event and layer are template arguments at every
// call site: the vocabulary lookup folds at compile time, leaving a direct
// counter bump per attached sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "core/lock_scheme.hpp"
#include "core/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace seer::obs {

// The event vocabulary. `arg` is the event's payload as the trace ring and
// the scheduler-stream capture record it; `value` (where a metric needs a
// second number) is documented per metric in kVocabulary. The first
// kTracedEvents events are the trace-ring kinds, in the trace summary's
// column order.
enum class Event : std::uint8_t {
  kTxBegin,      // hardware attempt starts; arg = transaction type
  kCommit,       // transaction commits; arg = transaction type
  kAbort,        // hardware attempt aborts; arg = abort cause (htm layer:
                 // capacity aborts only, arg = read tier, 0 sig / 1 exact)
  kSglFallback,  // single global lock granted; arg = transaction type
  kRebuild,      // lock scheme rebuilt; arg = scheme edges
  kClimberStep,  // hill climber moved (Th1, Th2); arg = tuning epoch
  kAnnounce,     // Alg. 1 line 5; arg = transaction type
  kClear,        // Alg. 2 line 32
  kMaybeUpdate,  // maintenance call (Alg. 4 lines 52-54); ts = now
  kForceUpdate,  // unconditional rebuild; ts = now
  kReadPromote,  // SoftHtm read tier 0 -> 1; arg = 0 capacity / 1 saturation
  kDispatch,     // simulator pops one event; arg = queue depth
};
inline constexpr std::size_t kTracedEvents = 6;

// Trace names of the traced events ("?" for the rest, which never reach a
// trace ring).
[[nodiscard]] constexpr const char* to_string(Event e) noexcept {
  constexpr const char* kNames[kTracedEvents] = {
      "tx", "commit", "abort", "sgl_fallback", "scheme_rebuild", "climber_step"};
  const auto i = static_cast<std::size_t>(e);
  return i < kTracedEvents ? kNames[i] : "?";
}

// Who emits: the scheduler core, an embedding (simulator or real threads),
// or the software TM under the real-threads embedding.
enum class Layer : std::uint8_t { kSeer, kSim, kRt, kHtm };

// How an event feeds a metric.
enum class Feed : std::uint8_t {
  kOne,    // counter += 1
  kByArg,  // counter `arg` rows past the first row of the block += 1
  kSum,    // counter += value
  kArg,    // histogram observes arg
  kValue,  // histogram observes value
  kClock,  // histogram of the rebuild's wall-clock ns (real embedding only)
};

[[nodiscard]] constexpr bool is_histogram(Feed f) noexcept {
  return f == Feed::kArg || f == Feed::kValue || f == Feed::kClock;
}

struct MetricDef {
  Layer layer;
  Event event;
  Feed feed;
  const char* name;
};

// The vocabulary: every metric any embedding registers, in registration
// order. Registration order is output order (--metrics, /metrics), which
// the byte-identity goldens pin: the scheduler's rows, then the
// embedding's, then SoftHtm's.
inline constexpr MetricDef kVocabulary[] = {
    {Layer::kSeer, Event::kAnnounce, Feed::kOne, "seer.announces"},
    {Layer::kSeer, Event::kAbort, Feed::kOne, "seer.aborts"},
    {Layer::kSeer, Event::kCommit, Feed::kOne, "seer.commits"},
    {Layer::kSeer, Event::kRebuild, Feed::kOne, "seer.rebuilds"},
    {Layer::kSeer, Event::kClimberStep, Feed::kOne, "seer.climber_steps"},
    {Layer::kSeer, Event::kRebuild, Feed::kArg, "seer.scheme_edges"},
    // value = statistics shards folded by the rebuild.
    {Layer::kSeer, Event::kRebuild, Feed::kSum, "seer.rebuild.shards_merged"},
    {Layer::kSeer, Event::kRebuild, Feed::kClock, "seer.rebuild.ns"},
    {Layer::kSim, Event::kCommit, Feed::kOne, "sim.commits"},
    {Layer::kSim, Event::kTxBegin, Feed::kOne, "sim.hw_attempts"},
    {Layer::kSim, Event::kSglFallback, Feed::kOne, "sim.sgl_fallbacks"},
    {Layer::kSim, Event::kDispatch, Feed::kArg, "sim.queue_depth"},
    {Layer::kSim, Event::kAbort, Feed::kByArg, "sim.aborts.conflict"},
    {Layer::kSim, Event::kAbort, Feed::kByArg, "sim.aborts.capacity"},
    {Layer::kSim, Event::kAbort, Feed::kByArg, "sim.aborts.explicit"},
    {Layer::kSim, Event::kAbort, Feed::kByArg, "sim.aborts.other"},
    {Layer::kRt, Event::kCommit, Feed::kOne, "rt.commits"},
    {Layer::kRt, Event::kSglFallback, Feed::kOne, "rt.sgl_fallbacks"},
    // value = hardware attempts the transaction consumed (0 = straight to
    // the SGL).
    {Layer::kRt, Event::kCommit, Feed::kValue, "rt.retry_depth"},
    {Layer::kRt, Event::kAbort, Feed::kByArg, "rt.aborts.conflict"},
    {Layer::kRt, Event::kAbort, Feed::kByArg, "rt.aborts.capacity"},
    {Layer::kRt, Event::kAbort, Feed::kByArg, "rt.aborts.explicit"},
    {Layer::kRt, Event::kAbort, Feed::kByArg, "rt.aborts.other"},
    {Layer::kHtm, Event::kReadPromote, Feed::kByArg, "htm.read_promote.capacity"},
    {Layer::kHtm, Event::kReadPromote, Feed::kByArg, "htm.read_promote.saturation"},
    {Layer::kHtm, Event::kAbort, Feed::kByArg, "htm.aborts.capacity.sig_only"},
    {Layer::kHtm, Event::kAbort, Feed::kByArg, "htm.aborts.capacity.exact"},
};
inline constexpr std::size_t kVocabularySize = std::size(kVocabulary);

// Which (layer, event) pairs reach the trace ring: the transaction
// lifecycle from the embeddings, the maintenance decisions from the core.
[[nodiscard]] constexpr bool traced(Layer l, Event e) noexcept {
  if (l == Layer::kSim || l == Layer::kRt) {
    return e == Event::kTxBegin || e == Event::kCommit || e == Event::kAbort ||
           e == Event::kSglFallback;
  }
  return l == Layer::kSeer && (e == Event::kRebuild || e == Event::kClimberStep);
}

// One scheduler call as a value. The scheduler's call surface
// (announce/clear/record_abort/record_commit/maybe_update/force_update)
// maps 1:1 onto the scheduler-layer events, so a captured stream replays
// verbatim into a fresh scheduler.
struct SchedEvent {
  Event kind = Event::kAnnounce;
  core::ThreadId thread = 0;
  core::TxTypeId tx = core::kNoTx;  // kAnnounce/kAbort/kCommit only
  std::uint64_t now = 0;            // kMaybeUpdate/kForceUpdate only

  friend constexpr bool operator==(const SchedEvent& a, const SchedEvent& b) noexcept {
    return a.kind == b.kind && a.thread == b.thread && a.tx == b.tx && a.now == b.now;
  }
};

// One rebuild's outcome: the thresholds in force and the inferred scheme.
struct SchedDecision {
  std::uint64_t rebuild = 0;
  core::InferenceParams params{};
  std::vector<std::vector<core::TxTypeId>> rows;

  friend bool operator==(const SchedDecision& a, const SchedDecision& b) {
    return a.rebuild == b.rebuild && a.params.th1 == b.params.th1 &&
           a.params.th2 == b.params.th2 && a.rows == b.rows;
  }
};

// The check harness's capture of the scheduler stream and its rebuild
// decisions. Mutex-guarded: events arrive on whichever thread drove the
// scheduler. Live-capture-equals-replay holds only for runs driven by one
// thread (the simulator, or a round-robin test driver).
class SchedTraceRecorder {
 public:
  void record(Event kind, core::ThreadId thread, core::TxTypeId tx, std::uint64_t now);
  void record(SchedDecision d);
  [[nodiscard]] std::vector<SchedEvent> events() const;
  [[nodiscard]] std::vector<SchedDecision> decisions() const;

 private:
  mutable std::mutex mu_;
  std::vector<SchedEvent> events_;
  std::vector<SchedDecision> decisions_;
};

// What one scheme rebuild published (the payload of Event::kRebuild).
struct RebuildInfo {
  RebuildSample sample;  // clock, rebuild index, lifetime tallies
  std::uint64_t shards_folded = 0;
  std::uint64_t started_ns = 0;  // rebuild_clock() when the rebuild began
  core::InferenceParams params{};
  const core::LockScheme* scheme = nullptr;
};

class Observer {
 public:
  struct Sinks {
    MetricsRegistry* metrics = nullptr;
    TraceSink* trace = nullptr;
    FlightRecorder* recorder = nullptr;
    SchedTraceRecorder* events = nullptr;
  };

  // `layer` is the embedding's own layer (kSim, kRt, or kSeer for a bare
  // scheduler) and fixes the clock: kRt traces RDTSC and times rebuilds.
  // `seer` says whether the embedding runs a Seer scheduler. Registers the
  // vocabulary rows of the layers present (kRt brings kHtm along) on
  // sinks.metrics, which the embedder freezes afterwards.
  Observer(Layer layer, bool seer, const Sinks& sinks);
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  // What an embedding holds: an Observer, or nullptr when no sink is
  // attached (every component then skips observation with one null test).
  [[nodiscard]] static std::unique_ptr<Observer> make(Layer layer, bool seer,
                                                      const Sinks& sinks) {
    if (sinks.metrics == nullptr && sinks.trace == nullptr &&
        sinks.recorder == nullptr && sinks.events == nullptr) {
      return nullptr;
    }
    return std::make_unique<Observer>(layer, seer, sinks);
  }

  // --- per-event path --------------------------------------------------------
  // `lane` is the emitting thread (its metrics lane and trace lane). `ts` is
  // the embedding's clock: simulated cycles for kSim, the scheduler's `now`
  // for kSeer; kRt/kHtm read RDTSC here, only when a trace is attached.
  template <Layer L, Event E>
  void emit(core::ThreadId lane, std::uint64_t arg = 0, std::uint64_t ts = 0,
            std::uint64_t value = 0) noexcept {
    if (metrics_ != nullptr) bump<L, E>(lane, arg, value);
    if constexpr (traced(L, E)) {
      if (trace_ != nullptr) {
        trace_->emit(lane, E, L == Layer::kRt ? now_ticks() : ts, arg);
      }
    }
    if constexpr (E == Event::kSglFallback) {
      if (recorder_ != nullptr) recorder_->note_sgl_fallback();
    }
    if constexpr (L == Layer::kSeer && E != Event::kClimberStep && E != Event::kRebuild) {
      if (events_ != nullptr) {
        constexpr bool typed =
            E == Event::kAnnounce || E == Event::kAbort || E == Event::kCommit;
        constexpr bool timed = E == Event::kMaybeUpdate || E == Event::kForceUpdate;
        const core::TxTypeId tx = typed ? static_cast<core::TxTypeId>(arg) : core::kNoTx;
        events_->record(E, lane, tx, timed ? ts : 0);
      }
    }
  }

  // --- maintenance path (the scheduler's designated thread) ------------------
  // Read at rebuild start: wall-clock ns on the real embedding, 0 where the
  // clock is simulated (seer.rebuild.ns is never observed there, so the
  // simulator's metrics stay byte-stable).
  [[nodiscard]] std::uint64_t rebuild_clock() const noexcept {
    if (!time_rebuilds_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // A rebuild published r.scheme. `capture` (() -> ModelSnapshot) runs only
  // when the flight recorder's trigger asks for a full model capture.
  template <typename Capture>
  void rebuild(const RebuildInfo& r, Capture&& capture) {
    const std::uint64_t edges = r.scheme->edge_count();
    emit<Layer::kSeer, Event::kRebuild>(0, edges, r.sample.now, r.shards_folded);
    if (events_ != nullptr) {
      events_->record(SchedDecision{r.sample.rebuild, r.params, r.scheme->to_rows()});
    }
    if (recorder_ != nullptr && recorder_->on_rebuild(r.sample)) {
      recorder_->record(capture());
    }
    if (time_rebuilds_) {
      constexpr std::size_t clock = row_of(Layer::kSeer, Event::kRebuild, Feed::kClock);
      metrics_->observe(ids_[clock], 0, rebuild_clock() - r.started_ns);
    }
  }

  // End of a run: the recorder's final capture, whatever its cadence did.
  template <typename Capture>
  void run_end(Capture&& capture) {
    if (recorder_ != nullptr) recorder_->record_final(capture());
  }

 private:
  // Index of the first vocabulary row with this (layer, event, feed);
  // kVocabularySize when there is none.
  static constexpr std::size_t row_of(Layer l, Event e, Feed f) noexcept {
    for (std::size_t i = 0; i < kVocabularySize; ++i) {
      if (kVocabulary[i].layer == l && kVocabulary[i].event == e &&
          kVocabulary[i].feed == f) {
        return i;
      }
    }
    return kVocabularySize;
  }

  // Every row of (L, E) feeds its metric; the row lookups are constant.
  template <Layer L, Event E>
  void bump(core::ThreadId lane, std::uint64_t arg, std::uint64_t value) noexcept {
    constexpr std::size_t kNone = kVocabularySize;
    constexpr std::size_t one = row_of(L, E, Feed::kOne);
    constexpr std::size_t by_arg = row_of(L, E, Feed::kByArg);
    constexpr std::size_t sum = row_of(L, E, Feed::kSum);
    constexpr std::size_t of_arg = row_of(L, E, Feed::kArg);
    constexpr std::size_t of_value = row_of(L, E, Feed::kValue);
    if constexpr (one != kNone) metrics_->add(ids_[one], lane);
    if constexpr (by_arg != kNone) metrics_->add(ids_[by_arg + arg], lane);
    if constexpr (sum != kNone) metrics_->add(ids_[sum], lane, value);
    if constexpr (of_arg != kNone) metrics_->observe(ids_[of_arg], lane, arg);
    if constexpr (of_value != kNone) metrics_->observe(ids_[of_value], lane, value);
  }

  MetricsRegistry* metrics_;
  TraceSink* trace_;
  FlightRecorder* recorder_;
  SchedTraceRecorder* events_;
  bool time_rebuilds_;  // real embedding with a registry: observe seer.rebuild.ns
  // Registered id per vocabulary row (kNoMetric for absent layers).
  MetricId ids_[kVocabularySize];
};

}  // namespace seer::obs
