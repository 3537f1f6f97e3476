#include "workload/serve_driver.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "core/seer_scheduler.hpp"
#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/periodic.hpp"
#include "util/format.hpp"
#include "util/latency_histogram.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/serve_telemetry.hpp"
#include "workload/threaded_driver.hpp"

namespace seer::workload {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Telemetry bumps are guarded per-call: a null hub means no telemetry, and a
// lane beyond the hub's sizing (a misconfigured embedding) degrades to
// partial counts instead of indexing out of the registry.
bool tel_lane_ok(const ServeTelemetry* tel, std::size_t lane) {
  return tel != nullptr && lane < tel->lanes();
}

bool stop_requested(const ServeOptions& opts) {
  return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
}

// --- byte-stable JSONL formatting -------------------------------------------
// Deterministic mode promises byte-identical output for a (config, seed)
// pair, so every number goes through one fixed recipe (util/format.hpp).

using util::append_dbl;
using util::append_u64;

void append_str(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// Per-step seed: decorrelated from sibling steps the same way the threaded
// driver seeds sibling threads, and independent of step execution order.
std::uint64_t step_seed(std::uint64_t base, std::size_t step) {
  return base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(step) + 1));
}

std::uint64_t seconds_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9 + 0.5);
}

// --- shared accounting ------------------------------------------------------

// Counted-traffic totals, snapshotted for interval deltas.
struct Totals {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
};

void append_interval_line(std::string& out, std::size_t step, double t_s,
                          double rate_now, const Totals& cur, Totals& prev,
                          std::size_t queue_depth,
                          const util::LatencyBucketCounts& bcur,
                          util::LatencyBucketCounts& bprev,
                          const std::string& metric_fields) {
  util::LatencyBucketCounts delta{};
  for (std::size_t i = 0; i < util::kLatencyBucketCount; ++i) {
    delta[i] = bcur[i] - bprev[i];
  }
  out += "{\"kind\": \"interval\", \"step\": ";
  append_u64(out, step);
  out += ", \"t_s\": ";
  append_dbl(out, t_s);
  out += ", \"offered_rate\": ";
  append_dbl(out, rate_now);
  out += ", \"arrivals\": ";
  append_u64(out, cur.arrivals - prev.arrivals);
  out += ", \"accepted\": ";
  append_u64(out, cur.accepted - prev.accepted);
  out += ", \"rejected\": ";
  append_u64(out, cur.rejected - prev.rejected);
  out += ", \"completed\": ";
  append_u64(out, cur.completed - prev.completed);
  out += ", \"queue_depth\": ";
  append_u64(out, queue_depth);
  out += ", \"p50_est_us\": ";
  append_dbl(out, util::bucket_quantile_estimate(delta, 0.5) / 1000.0);
  out += ", \"p99_est_us\": ";
  append_dbl(out, util::bucket_quantile_estimate(delta, 0.99) / 1000.0);
  out += metric_fields;
  out += "}\n";
  prev = cur;
  bprev = bcur;
}

StepStats finalize_step(double rate, double duration_s, const Totals& totals,
                        const util::LatencyHistogram& hist,
                        std::uint64_t queue_peak, std::uint64_t sgl_commits) {
  StepStats s;
  s.offered_rate = rate;
  s.duration_s = duration_s;
  s.arrivals = totals.arrivals;
  s.accepted = totals.accepted;
  s.rejected = totals.rejected;
  s.completed = totals.completed;
  s.rejected_fraction =
      totals.arrivals == 0
          ? 0.0
          : static_cast<double>(totals.rejected) / static_cast<double>(totals.arrivals);
  s.throughput_rps =
      duration_s <= 0.0 ? 0.0 : static_cast<double>(totals.completed) / duration_s;
  s.latency_count = hist.count();
  s.latency_mean_ns = hist.mean();
  const double qs[] = {0.5, 0.9, 0.99, 0.999};
  const std::vector<std::uint64_t> v = hist.quantiles(qs);
  s.p50_ns = v[0];
  s.p90_ns = v[1];
  s.p99_ns = v[2];
  s.p999_ns = v[3];
  s.max_ns = hist.max();
  s.queue_depth_peak = queue_peak;
  s.sgl_commits = sgl_commits;
  s.sgl_fraction = totals.completed == 0
                       ? 0.0
                       : static_cast<double>(sgl_commits) /
                             static_cast<double>(totals.completed);
  return s;
}

void append_step_line(std::string& out, std::size_t step, const StepStats& s) {
  out += "{\"kind\": \"step\", \"step\": ";
  append_u64(out, step);
  out += ", \"offered_rate\": ";
  append_dbl(out, s.offered_rate);
  out += ", \"duration_s\": ";
  append_dbl(out, s.duration_s);
  out += ", \"arrivals\": ";
  append_u64(out, s.arrivals);
  out += ", \"accepted\": ";
  append_u64(out, s.accepted);
  out += ", \"rejected\": ";
  append_u64(out, s.rejected);
  out += ", \"rejected_fraction\": ";
  append_dbl(out, s.rejected_fraction);
  out += ", \"completed\": ";
  append_u64(out, s.completed);
  out += ", \"throughput_rps\": ";
  append_dbl(out, s.throughput_rps);
  out += ", \"latency_ns\": {\"count\": ";
  append_u64(out, s.latency_count);
  out += ", \"mean\": ";
  append_dbl(out, s.latency_mean_ns);
  out += ", \"p50\": ";
  append_u64(out, s.p50_ns);
  out += ", \"p90\": ";
  append_u64(out, s.p90_ns);
  out += ", \"p99\": ";
  append_u64(out, s.p99_ns);
  out += ", \"p999\": ";
  append_u64(out, s.p999_ns);
  out += ", \"max\": ";
  append_u64(out, s.max_ns);
  out += "}, \"queue_depth_peak\": ";
  append_u64(out, s.queue_depth_peak);
  out += ", \"sgl_fraction\": ";
  append_dbl(out, s.sgl_fraction);
  out += "}\n";
}

struct StepOutput {
  StepStats stats;
  std::string jsonl;  // interval lines then the step line
};

// --- deterministic backend: virtual-time M/G/k simulation -------------------
//
// One rate step as an event loop over two event sources — the arrival
// schedule and a min-heap of in-service completions — on a virtual
// nanosecond clock. `workers` virtual servers each serve one request at a
// time; service time is the instance's modelled `duration` in cycles scaled
// by cycles_per_us. The admission path is the SAME MpmcQueue the real
// backend uses (single-threaded here, but identical capacity rounding and
// shed behaviour). Ties break completion-before-arrival, and equal-time
// completions break by service start order, so the event order — and with
// it the output bytes — is a pure function of (config, seed).

struct VirtualRequest {
  std::uint64_t enqueue_ns = 0;
  std::uint64_t service_ns = 0;
  bool counted = false;
  // Conflict model only: the sampled instance (type + footprint), so
  // in-service overlap can be tested request-against-request.
  sim::TxInstance inst;
};

struct Busy {
  std::uint64_t done_ns = 0;
  std::uint64_t seq = 0;  // service start order, for deterministic ties
  std::uint64_t enqueue_ns = 0;
  bool counted = false;
  // Conflict model only:
  std::uint32_t worker = 0;          // virtual server slot occupied
  core::TxTypeId type = 0;           // announced transaction type
  bool sgl = false;                  // exhausted its budget into the SGL
};

struct BusyLater {
  bool operator()(const Busy& a, const Busy& b) const noexcept {
    if (a.done_ns != b.done_ns) return a.done_ns > b.done_ns;
    return a.seq > b.seq;
  }
};

// Conflict-model service constants, mirroring the machine simulator's
// CostModel defaults (the open_loop schema carries no cost-model section;
// these are modelling knobs, not measurements).
constexpr double kConflictRetryProb = 0.95;     // an overlap kills this attempt
constexpr std::uint64_t kAbortPenaltyCycles = 180;
constexpr double kSglServiceFactor = 1.25;      // serialized re-execution tax

StepOutput run_step_virtual(const Desc& desc, const OpenLoopConfig& ol,
                            const ServeOptions& opts, std::size_t step,
                            double rate, double duration_s,
                            std::size_t workers) {
  auto gen = desc.make(1);
  gen->init(0);
  util::Xoshiro256 rng(step_seed(opts.seed, step));
  const ArrivalSchedule sched(ol, rate);

  const std::uint64_t warmup_ns = seconds_to_ns(ol.warmup_s);
  const std::uint64_t end_ns = seconds_to_ns(ol.warmup_s + duration_s);
  const std::uint64_t emit_ns = ol.emit_interval_ms * 1000000ULL;
  const double ns_per_cycle = 1000.0 / ol.cycles_per_us;

  // Conflict model: a real Seer scheduler in the service loop. Everything
  // here runs on one thread in virtual time, so the scheduler sees a
  // perfectly ordered event stream and its decisions — announce, abort/
  // commit evidence, scheme rebuilds, storm re-inference — are a pure
  // function of (config, seed), preserving the byte-identity contract.
  const bool conflict_model = ol.model == OpenLoopConfig::Model::kConflict;
  const std::uint64_t abort_penalty_ns = static_cast<std::uint64_t>(
      static_cast<double>(kAbortPenaltyCycles) * ns_per_cycle);
  std::unique_ptr<core::SeerScheduler> csched;
  std::vector<sim::TxInstance> in_service;  // per virtual server slot
  std::vector<bool> slot_busy;
  std::optional<VirtualRequest> held;  // popped but scheme-deferred
  std::uint64_t sgl_commits = 0;
  if (conflict_model) {
    core::SeerConfig scfg = opts.policy.seer;
    scfg.n_threads = workers;
    scfg.n_types = gen->n_types();
    scfg.seed = step_seed(opts.seed, step);
    if (desc.topology) scfg.topology = *desc.topology;
    csched = std::make_unique<core::SeerScheduler>(scfg);
    in_service.assign(workers, {});
    slot_busy.assign(workers, false);
  }
  const auto to_cycles = [&](std::uint64_t ns) {
    return static_cast<std::uint64_t>(static_cast<double>(ns) / ns_per_cycle);
  };

  util::MpmcQueue<VirtualRequest> queue(ol.queue_capacity);
  std::priority_queue<Busy, std::vector<Busy>, BusyLater> busy;
  util::LatencyHistogram hist;
  util::LatencyBuckets buckets;
  util::LatencyBucketCounts bprev{};
  Totals totals, tprev;
  std::uint64_t queue_depth = 0, queue_peak = 0, next_seq = 0;
  std::uint64_t next_arrival = sched.next_gap_ns(0.0, rng);
  std::uint64_t next_emit = emit_ns;
  bool arrivals_done = false;
  StepOutput out;
  sim::TxInstance inst;

  // Virtual lane = step index: concurrent --jobs steps each own a lane, so
  // hub counters stay single-writer. Gauges race across steps (last writer
  // wins) — acceptable for point-in-time values by definition.
  ServeTelemetry* const tel = opts.telemetry;
  const auto tid = static_cast<core::ThreadId>(step);
  const bool tl = tel_lane_ok(tel, step);
  if (tel != nullptr) {
    tel->set_offered_rate(rate);
    tel->registry().set_gauge(tel->step, step);
    tel->registry().set_gauge(tel->workers, workers);
    tel->registry().set_gauge(tel->offered_rate_millirps,
                              static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
  }
  std::uint64_t events = 0;

  const auto start_service = [&](std::uint64_t now) {
    VirtualRequest r;
    if (!conflict_model) {
      while (busy.size() < workers && queue.try_pop(r)) {
        --queue_depth;
        busy.push(Busy{now + r.service_ns, next_seq++, r.enqueue_ns, r.counted,
                       0, 0, false});
      }
      return;
    }
    // Conflict model: scheme-driven admission. The head request stays held
    // (still occupying its admission-queue slot) while the inferred lock
    // scheme serializes its type against any in-service type — Seer's core
    // decision, surfaced as queueing delay instead of wasted aborts. A
    // deferral implies the floor is non-empty, so a completion event always
    // re-triggers this and the loop cannot stall.
    while (busy.size() < workers) {
      if (!held) {
        if (!queue.try_pop(r)) break;
        held = std::move(r);
      }
      const core::TxTypeId type = held->inst.type;
      const auto scheme = csched->scheme();
      bool deferred = false;
      for (std::size_t w = 0; w < workers && !deferred; ++w) {
        if (!slot_busy[w]) continue;
        for (const core::TxTypeId y : scheme->row(type)) {
          deferred |= y == in_service[w].type;
        }
      }
      if (deferred) break;
      std::size_t slot = 0;
      while (slot_busy[slot]) ++slot;  // busy.size() < workers => one is free
      const auto wtid = static_cast<core::ThreadId>(slot);
      csched->announce(wtid, type);
      // Pre-simulate the attempt ladder against the current floor: an
      // overlapping footprint can kill each attempt; every abort pays the
      // rollback penalty plus a full re-execution, and an exhausted budget
      // takes the SGL — serialized and slower, but guaranteed.
      bool overlap = false;
      for (std::size_t w = 0; w < workers && !overlap; ++w) {
        overlap = slot_busy[w] && sim::instances_conflict(held->inst, in_service[w]);
      }
      std::uint64_t service = 0;
      int aborts = 0;
      if (overlap) {
        const int budget = csched->config().max_attempts;
        while (aborts < budget && rng.bernoulli(kConflictRetryProb)) {
          ++aborts;
          csched->record_abort(wtid, type);
          service += held->service_ns + abort_penalty_ns;
        }
      }
      const bool sgl = overlap && aborts >= csched->config().max_attempts;
      if (sgl) {
        csched->note_sgl_fallback();
        service += static_cast<std::uint64_t>(
            static_cast<double>(held->service_ns) * kSglServiceFactor);
      } else {
        service += held->service_ns;
      }
      slot_busy[slot] = true;
      in_service[slot] = held->inst;
      --queue_depth;
      busy.push(Busy{now + service, next_seq++, held->enqueue_ns, held->counted,
                     static_cast<std::uint32_t>(slot), type, sgl});
      held.reset();
    }
  };

  for (;;) {
    // A stop request ends arrivals; the loop then drains the queue and the
    // in-service heap exactly as if the window had closed.
    if (!arrivals_done && stop_requested(opts)) arrivals_done = true;
    if (tel != nullptr && (++events & 0xFFF) == 0) {
      const std::uint64_t w = wall_ns();
      tel->producer_beat(w);
      tel->worker_beat(w);
      tel->registry().set_gauge(tel->queue_depth, queue_depth);
    }
    const std::uint64_t arrival_t =
        arrivals_done ? ~std::uint64_t{0} : next_arrival;
    const std::uint64_t completion_t =
        busy.empty() ? ~std::uint64_t{0} : busy.top().done_ns;
    const std::uint64_t t_next = completion_t < arrival_t ? completion_t : arrival_t;
    if (t_next == ~std::uint64_t{0}) break;  // idle and out of arrivals

    while (next_emit <= t_next && next_emit <= end_ns) {
      const double t_s = static_cast<double>(next_emit) / 1e9;
      append_interval_line(out.jsonl, step, t_s, sched.rate_at(t_s), totals,
                           tprev, queue_depth, buckets.snapshot(), bprev, "");
      next_emit += emit_ns;
    }

    if (completion_t <= arrival_t) {
      const Busy b = busy.top();
      busy.pop();
      ++totals.completed;
      if (conflict_model) {
        const auto wtid = static_cast<core::ThreadId>(b.worker);
        // Only hardware commits carry scheduling evidence (Alg. 2); an SGL
        // completion just releases its slot.
        if (!b.sgl) csched->record_commit(wtid, b.type);
        csched->clear(wtid);
        slot_busy[b.worker] = false;
        if (b.sgl) ++sgl_commits;
        csched->maybe_update(0, to_cycles(b.done_ns));
      }
      if (tl) tel->registry().add(tel->completed, tid);
      if (b.counted) hist.record(b.done_ns - b.enqueue_ns);
      if (b.counted) buckets.record(b.done_ns - b.enqueue_ns);
      if (b.counted && tel != nullptr) {
        tel->latency().record(b.done_ns - b.enqueue_ns);
      }
      start_service(b.done_ns);
      continue;
    }

    const std::uint64_t now = next_arrival;
    if (now >= end_ns || gen->exhausted(0)) {
      arrivals_done = true;
      continue;
    }
    const double progress =
        static_cast<double>(now) / static_cast<double>(end_ns);
    gen->next(0, progress, rng, inst);
    double service_d = static_cast<double>(inst.duration) * ns_per_cycle;
    if (service_d < 1.0) service_d = 1.0;
    VirtualRequest r;
    r.enqueue_ns = now;
    r.service_ns = static_cast<std::uint64_t>(service_d);
    r.counted = now >= warmup_ns;
    if (conflict_model) r.inst = inst;
    ++totals.arrivals;
    if (tl) tel->registry().add(tel->arrivals, tid);
    if (queue.try_push(std::move(r))) {
      ++totals.accepted;
      if (tl) tel->registry().add(tel->accepted, tid);
      ++queue_depth;
      if (queue_depth > queue_peak) queue_peak = queue_depth;
    } else {
      ++totals.rejected;
      if (tl) tel->registry().add(tel->rejected, tid);
    }
    start_service(now);
    next_arrival = now + sched.next_gap_ns(static_cast<double>(now) / 1e9, rng);
  }

  // Idle tail: a lightly loaded step can quiesce long before the window
  // closes, but the real backend's emitter keeps its cadence to the end —
  // flush the remaining boundaries so both modes emit the same line count.
  while (next_emit <= end_ns) {
    const double t_s = static_cast<double>(next_emit) / 1e9;
    append_interval_line(out.jsonl, step, t_s, sched.rate_at(t_s), totals,
                         tprev, queue_depth, buckets.snapshot(), bprev, "");
    next_emit += emit_ns;
  }

  out.stats = finalize_step(rate, duration_s, totals, hist, queue_peak, sgl_commits);
  append_step_line(out.jsonl, step, out.stats);
  return out;
}

// --- real backend: wall-clock producer, real transactions -------------------

struct Request {
  std::uint64_t enqueue_ns = 0;
  bool counted = false;
  sim::TxInstance inst;
};

using Clock = std::chrono::steady_clock;

StepOutput run_step_real(const Desc& desc, const OpenLoopConfig& ol,
                         const ServeOptions& opts, std::size_t step,
                         double rate, double duration_s, std::size_t workers) {
  auto gen = desc.make(1);  // one lane: the producer samples all instances
  const ArrivalSchedule sched(ol, rate);
  const std::uint64_t warmup_ns = seconds_to_ns(ol.warmup_s);
  const std::uint64_t end_ns = seconds_to_ns(ol.warmup_s + duration_s);

  std::vector<htm::TmWord> words(ol.table_words);
  htm::SoftHtm tm;
  obs::MetricsRegistry metrics(workers);
  rt::ThreadedExecutor::Options eopts;
  eopts.n_threads = workers;
  eopts.n_types = gen->n_types();
  // Core-slice sizing: an explicit override wins, then the config's
  // topology (which also routes to the scheduler's shard layout), then the
  // legacy one-core-per-worker default.
  if (opts.physical_cores != 0) {
    eopts.physical_cores = opts.physical_cores;
  } else if (desc.topology) {
    eopts.physical_cores = desc.topology->physical_cores();
    eopts.topology = *desc.topology;
  } else {
    eopts.physical_cores = workers;
  }
  // A live telemetry hub wants the rt./htm./seer. counters on /metrics even
  // when the interval lines don't carry them, so collection follows either
  // flag.
  ServeTelemetry* const tel = opts.telemetry;
  eopts.metrics = opts.emit_metrics || tel != nullptr ? &metrics : nullptr;
  eopts.recorder = opts.recorder;
  rt::ThreadedExecutor exec(tm, opts.policy, eopts);
  metrics.freeze();

  const auto pid = static_cast<core::ThreadId>(workers);  // producer's lane
  const bool tlp = tel_lane_ok(tel, workers);
  if (tel != nullptr) {
    tel->attach_step_registry(&metrics);
    tel->set_offered_rate(rate);
    tel->registry().set_gauge(tel->step, step);
    tel->registry().set_gauge(tel->workers, workers);
    tel->registry().set_gauge(tel->offered_rate_millirps,
                              static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
  }
  std::atomic<std::size_t> active_workers{0};

  util::MpmcQueue<Request> queue(ol.queue_capacity);
  util::LatencyBuckets buckets;
  std::vector<util::LatencyHistogram> hists(workers);
  std::atomic<std::uint64_t> arrivals{0}, accepted{0}, rejected{0}, completed{0};
  std::atomic<std::uint64_t> sgl_commits{0}, queue_peak{0};
  std::atomic<bool> producer_done{false}, emitter_stop{false};
  std::atomic<std::size_t> ready{0};
  const std::size_t participants = workers + 1;  // workers + producer
  const auto t0_ready = [&] {
    ready.fetch_add(1);
    while (ready.load() < participants) std::this_thread::yield();
  };
  // t0 is set by the producer once everyone is spinning; the emitter only
  // reads it after the producer published it.
  std::atomic<std::int64_t> t0_ns{0};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      auto h = exec.make_handle(static_cast<core::ThreadId>(t));
      const bool tlw = tel_lane_ok(tel, t);
      if (tel != nullptr) {
        tel->registry().set_gauge(
            tel->active_workers, active_workers.fetch_add(1) + 1);
      }
      t0_ready();
      Request r;
      const auto serve_one = [&] {
        const rt::CommitMode mode = run_instance(*h, words, r.inst);
        const std::uint64_t now = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
        completed.fetch_add(1, std::memory_order_relaxed);
        if (tlw) tel->registry().add(tel->completed, static_cast<core::ThreadId>(t));
        if (tel != nullptr) tel->worker_beat(now);
        if (r.counted) {
          const std::uint64_t lat = now > r.enqueue_ns ? now - r.enqueue_ns : 0;
          hists[t].record(lat);
          buckets.record(lat);
          if (tel != nullptr) tel->latency().record(lat);
          if (mode == rt::CommitMode::kSglFallback) {
            sgl_commits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      };
      for (;;) {
        if (queue.try_pop(r)) {
          serve_one();
          continue;
        }
        if (producer_done.load(std::memory_order_acquire)) {
          // The producer stopped pushing before setting the flag, so one
          // more failed pop after observing it means the queue is drained
          // (a pop-miss against an empty queue, not a half-pushed cell).
          if (!queue.try_pop(r)) break;
          serve_one();
          continue;
        }
        std::this_thread::yield();
      }
      if (tel != nullptr) {
        tel->registry().set_gauge(tel->active_workers,
                                  active_workers.fetch_sub(1) - 1);
      }
    });
  }

  std::thread producer([&] {
    gen->init(0);
    util::Xoshiro256 rng(step_seed(opts.seed, step));
    t0_ready();
    const auto t0 = Clock::now();
    t0_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t0.time_since_epoch())
                    .count(),
                std::memory_order_release);
    sim::TxInstance inst;
    std::uint64_t next_ns = sched.next_gap_ns(0.0, rng);
    while (next_ns < end_ns && !gen->exhausted(0) && !stop_requested(opts)) {
      const auto target =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(next_ns));
      for (;;) {  // sleep coarsely, then yield-spin the last stretch
        const auto now = Clock::now();
        if (now >= target || stop_requested(opts)) break;
        if (tel != nullptr) {
          tel->producer_beat(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now.time_since_epoch())
                  .count()));
        }
        if (target - now > std::chrono::microseconds(200)) {
          // Chunked so the heartbeat keeps ticking and a stop request is
          // honoured promptly even between low-rate arrivals.
          const auto nap =
              std::min<Clock::duration>(target - now -
                                            std::chrono::microseconds(100),
                                        std::chrono::milliseconds(50));
          std::this_thread::sleep_for(nap);
        } else {
          std::this_thread::yield();
        }
      }
      if (stop_requested(opts)) break;
      const double progress =
          static_cast<double>(next_ns) / static_cast<double>(end_ns);
      gen->next(0, progress, rng, inst);
      Request r;
      r.enqueue_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count());
      r.counted = next_ns >= warmup_ns;
      r.inst = std::move(inst);
      arrivals.fetch_add(1, std::memory_order_relaxed);
      if (tlp) tel->registry().add(tel->arrivals, pid);
      if (queue.try_push(std::move(r))) {
        accepted.fetch_add(1, std::memory_order_relaxed);
        if (tlp) tel->registry().add(tel->accepted, pid);
        const std::uint64_t depth = queue.approx_size();
        std::uint64_t cur = queue_peak.load(std::memory_order_relaxed);
        while (depth > cur && !queue_peak.compare_exchange_weak(
                                  cur, depth, std::memory_order_relaxed)) {
        }
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
        if (tlp) tel->registry().add(tel->rejected, pid);
      }
      next_ns += sched.next_gap_ns(static_cast<double>(next_ns) / 1e9, rng);
    }
    producer_done.store(true, std::memory_order_release);
  });

  // Interval emitter: the monitor thread. Samples the shared counters and
  // the coarse bucket histogram on a wall-clock cadence; exact numbers come
  // from the per-worker histograms after the step quiesces.
  std::string interval_jsonl;
  std::thread emitter([&] {
    obs::PeriodicMetricsDelta deltas(opts.emit_metrics ? &metrics : nullptr);
    util::LatencyBucketCounts bprev{};
    Totals tprev;
    while (t0_ns.load(std::memory_order_acquire) == 0 &&
           !emitter_stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::time_point<Clock>(
        std::chrono::nanoseconds(t0_ns.load(std::memory_order_acquire)));
    std::uint64_t tick = 1;
    while (!emitter_stop.load(std::memory_order_acquire)) {
      const auto target =
          t0 + std::chrono::milliseconds(
                   static_cast<std::int64_t>(tick * ol.emit_interval_ms));
      std::this_thread::sleep_until(target);
      if (emitter_stop.load(std::memory_order_acquire)) break;
      const double t_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const Totals cur{arrivals.load(std::memory_order_relaxed),
                       accepted.load(std::memory_order_relaxed),
                       rejected.load(std::memory_order_relaxed),
                       completed.load(std::memory_order_relaxed)};
      if (tel != nullptr) {
        tel->registry().set_gauge(tel->queue_depth, queue.approx_size());
      }
      append_interval_line(
          interval_jsonl, step, t_s, sched.rate_at(t_s), cur, tprev,
          queue.approx_size(), buckets.snapshot(), bprev,
          opts.emit_metrics ? deltas.delta_fields({"rt.", "htm.", "seer."})
                            : std::string());
      ++tick;
    }
  });

  producer.join();
  for (auto& th : threads) th.join();
  emitter_stop.store(true, std::memory_order_release);
  emitter.join();

  if (tel != nullptr) {
    // The per-step registry dies with this frame; an in-flight scrape holds
    // the hub lock until its snapshot completes, so detaching here is safe.
    tel->attach_step_registry(nullptr);
    tel->registry().set_gauge(tel->queue_depth, 0);
  }

  util::LatencyHistogram hist;
  for (const util::LatencyHistogram& h : hists) hist.merge(h);
  Totals totals{arrivals.load(), accepted.load(), rejected.load(),
                completed.load()};
  StepOutput out;
  out.jsonl = std::move(interval_jsonl);
  out.stats = finalize_step(rate, duration_s, totals, hist, queue_peak.load(),
                            sgl_commits.load());
  append_step_line(out.jsonl, step, out.stats);
  return out;
}

}  // namespace

ServeReport run_serve(const Desc& desc, const OpenLoopConfig& ol,
                      const ServeOptions& opts) {
  const double duration_s =
      opts.duration_override_s > 0.0 ? opts.duration_override_s : ol.duration_s;
  const std::vector<double> rates = opts.rate_override > 0.0
                                        ? std::vector<double>{opts.rate_override}
                                        : ol.rates();
  const std::size_t workers = opts.workers_override != 0
                                  ? opts.workers_override
                                  : static_cast<std::size_t>(ol.workers);
  if (desc.topology && workers > desc.topology->hw_threads()) {
    throw ConfigError("workers = " + std::to_string(workers) +
                      " exceeds the configured topology's " +
                      std::to_string(desc.topology->hw_threads()) +
                      " hardware threads");
  }

  if (opts.telemetry != nullptr) {
    opts.telemetry->set_state(ServeTelemetry::State::kRunning);
    opts.telemetry->registry().set_gauge(opts.telemetry->workers, workers);
  }

  ServeReport report;
  std::string& out = report.jsonl;
  out += "{\"kind\": \"serve_header\", \"version\": 1, \"workload\": ";
  append_str(out, desc.name);
  out += ", \"policy\": ";
  append_str(out, rt::to_string(opts.policy.kind));
  out += ", \"mode\": ";
  append_str(out, opts.deterministic ? "deterministic" : "real");
  out += ", \"process\": ";
  append_str(out, to_string(ol.process));
  out += ", \"model\": ";
  append_str(out, to_string(ol.model));
  out += ", \"workers\": ";
  append_u64(out, workers);
  out += ", \"queue_capacity\": ";
  append_u64(out, ol.queue_capacity);
  out += ", \"table_words\": ";
  append_u64(out, ol.table_words);
  out += ", \"rates\": [";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i != 0) out += ", ";
    append_dbl(out, rates[i]);
  }
  out += "], \"duration_s\": ";
  append_dbl(out, duration_s);
  out += ", \"warmup_s\": ";
  append_dbl(out, ol.warmup_s);
  out += ", \"emit_interval_ms\": ";
  append_u64(out, ol.emit_interval_ms);
  out += ", \"seed\": ";
  append_u64(out, opts.seed);
  out += "}\n";

  std::vector<StepOutput> steps;
  if (opts.deterministic) {
    // Steps are independent simulations; fan out and reassemble in step
    // order. parallel_for_indexed keeps the observable result identical to
    // a serial sweep, which is the --jobs byte-identity contract.
    steps = util::parallel_for_indexed(
        opts.jobs, rates.size(), [&](std::size_t i) {
          return run_step_virtual(desc, ol, opts, i, rates[i], duration_s,
                                  workers);
        });
  } else {
    // Real steps share the machine; running two at once would corrupt both
    // measurements. Always serial.
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (stop_requested(opts)) break;  // skip remaining steps, keep the log
      steps.push_back(
          run_step_real(desc, ol, opts, i, rates[i], duration_s, workers));
    }
  }
  report.interrupted = stop_requested(opts);

  Totals grand;
  std::uint64_t worst_p99 = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out += steps[i].jsonl;
    const StepStats& s = steps[i].stats;
    report.steps.push_back(s);
    grand.arrivals += s.arrivals;
    grand.rejected += s.rejected;
    grand.completed += s.completed;
    if (s.p99_ns > worst_p99) worst_p99 = s.p99_ns;
    const bool p99_over =
        ol.knee_p99_ms > 0.0 &&
        static_cast<double>(s.p99_ns) > ol.knee_p99_ms * 1e6;
    const bool shed_over = s.rejected_fraction > ol.knee_rejected_fraction;
    if (!report.saturated && (p99_over || shed_over)) {
      report.saturated = true;
      report.knee_rate = s.offered_rate;
    }
  }
  report.knee_rate = report.saturated ? report.knee_rate : 0.0;

  out += "{\"kind\": \"summary\", \"steps\": ";
  append_u64(out, steps.size());
  out += ", \"knee_rate\": ";
  append_dbl(out, report.knee_rate);
  out += ", \"saturated\": ";
  out += report.saturated ? "true" : "false";
  out += ", \"worst_p99_ns\": ";
  append_u64(out, worst_p99);
  out += ", \"arrivals\": ";
  append_u64(out, grand.arrivals);
  out += ", \"rejected\": ";
  append_u64(out, grand.rejected);
  out += ", \"completed\": ";
  append_u64(out, grand.completed);
  if (report.interrupted) out += ", \"interrupted\": true";
  out += "}\n";

  if (opts.telemetry != nullptr) {
    opts.telemetry->set_state(ServeTelemetry::State::kDone);
  }
  return report;
}

}  // namespace seer::workload
