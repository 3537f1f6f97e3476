#include "workload/serve_driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "htm/soft_htm.hpp"
#include "sim/machine.hpp"
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

// Both backends queue the same request: the instance is sampled at arrival.
struct Request {
  std::uint64_t enqueue_ns = 0;
  bool counted = false;
  sim::TxInstance inst;
};

// --- deterministic backend: open-loop arrivals on sim::Machine --------------
//
// One rate step is one sim::Machine run: `workers` simulated threads execute
// every request as a transaction under the selected policy, with the
// machine's conflicts, aborts, locks and SGL fallback. StepArrivals is the
// machine's arrival actor. It samples each request when it arrives, admits
// it through the same MpmcQueue the real backend uses (single-threaded
// here, same capacity rounding and shed), hands it to an idle thread, and
// records its latency at commit. Virtual time is the machine's cycle clock;
// cycles_per_us converts it to nanoseconds. Output is a pure function of
// (config, policy, seed).
class StepArrivals final : public sim::Arrivals {
 public:
  StepArrivals(sim::Workload& gen, const OpenLoopConfig& ol,
               const ServeOptions& opts, std::size_t step, double rate,
               double duration_s, std::size_t workers)
      : gen_(gen),
        ol_(ol),
        opts_(opts),
        step_(step),
        sched_(ol, rate),
        rng_(step_seed(opts.seed, step)),
        warmup_ns_(seconds_to_ns(ol.warmup_s)),
        end_ns_(seconds_to_ns(ol.warmup_s + duration_s)),
        ns_per_cycle_(1000.0 / ol.cycles_per_us),
        queue_(ol.queue_capacity),
        serving_(workers),
        next_emit_(ol.emit_interval_ms * 1000000ULL) {
    gen_.init(0);
    next_ns_ = sched_.next_gap_ns(0.0, rng_);
    // Lane = step index: concurrent --jobs steps each own a lane, so hub
    // counters stay single-writer. Gauges race across steps (last writer
    // wins), which point-in-time values tolerate by definition.
    if (tel_ != nullptr) {
      tel_->set_offered_rate(rate);
      tel_->registry().set_gauge(tel_->step, step);
      tel_->registry().set_gauge(tel_->workers, workers);
      tel_->registry().set_gauge(tel_->offered_rate_millirps,
                                 static_cast<std::uint64_t>(rate * 1000.0 + 0.5));
    }
  }

  sim::Time next_arrival() override {
    // A stop request ends arrivals; the machine then drains what it holds.
    if (next_ns_ >= end_ns_ || gen_.exhausted(0) || stop_requested(opts_)) {
      return kNone;
    }
    // Rounded up, so no request completes before it arrived.
    return static_cast<sim::Time>(
        std::ceil(static_cast<double>(next_ns_) / ns_per_cycle_));
  }

  bool arrive() override {
    const std::uint64_t now_ns = next_ns_;
    on_event(now_ns);
    Request r;
    gen_.next(0, static_cast<double>(now_ns) / static_cast<double>(end_ns_),
              rng_, r.inst);
    r.enqueue_ns = now_ns;
    r.counted = now_ns >= warmup_ns_;
    next_ns_ = now_ns + sched_.next_gap_ns(static_cast<double>(now_ns) / 1e9, rng_);
    ++totals_.arrivals;
    if (tl_) tel_->registry().add(tel_->arrivals, lane_);
    if (!queue_.try_push(std::move(r))) {
      ++totals_.rejected;
      if (tl_) tel_->registry().add(tel_->rejected, lane_);
      return false;
    }
    ++totals_.accepted;
    if (tl_) tel_->registry().add(tel_->accepted, lane_);
    if (++queue_depth_ > queue_peak_) queue_peak_ = queue_depth_;
    return true;
  }

  bool take(core::ThreadId thread, sim::TxInstance& out) override {
    Request r;
    if (!queue_.try_pop(r)) return false;
    --queue_depth_;
    out = std::move(r.inst);
    serving_[thread] = std::move(r);
    return true;
  }

  void commit(core::ThreadId thread, sim::Time now, rt::CommitMode mode) override {
    const auto done_ns =
        static_cast<std::uint64_t>(static_cast<double>(now) * ns_per_cycle_);
    on_event(done_ns);
    ++totals_.completed;
    if (tl_) tel_->registry().add(tel_->completed, lane_);
    const Request& r = serving_[thread];
    if (!r.counted) return;
    const std::uint64_t lat = done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0;
    hist_.record(lat);
    buckets_.record(lat);
    if (tel_ != nullptr) tel_->latency().record(lat);
    if (mode == rt::CommitMode::kSglFallback) ++sgl_commits_;
  }

  // Emits the interval lines left after the last event (a lightly loaded
  // step quiesces long before its window closes, while the real backend's
  // emitter keeps its cadence to the end) and the step line.
  StepOutput finish(double rate, double duration_s) {
    emit_intervals(end_ns_);
    StepOutput out;
    out.jsonl = std::move(jsonl_);
    out.stats = finalize_step(rate, duration_s, totals_, hist_, queue_peak_,
                              sgl_commits_);
    append_step_line(out.jsonl, step_, out.stats);
    return out;
  }

 private:
  // Arrivals and commits are the only events that change what an interval
  // line reports, so the lines up to each one are flushed lazily before it.
  void on_event(std::uint64_t now_ns) {
    emit_intervals(std::min(now_ns, end_ns_));
    if (tel_ != nullptr && (++events_ & 0xFFF) == 0) {
      const std::uint64_t w = wall_ns();
      tel_->producer_beat(w);
      tel_->worker_beat(w);
      tel_->registry().set_gauge(tel_->queue_depth, queue_depth_);
    }
  }

  // Emits every interval boundary at or before `until_ns`.
  void emit_intervals(std::uint64_t until_ns) {
    const std::uint64_t emit_ns = ol_.emit_interval_ms * 1000000ULL;
    for (; next_emit_ <= until_ns; next_emit_ += emit_ns) {
      const double t_s = static_cast<double>(next_emit_) / 1e9;
      append_interval_line(jsonl_, step_, t_s, sched_.rate_at(t_s), totals_,
                           tprev_, queue_depth_, buckets_.snapshot(), bprev_, "");
    }
  }

  sim::Workload& gen_;
  const OpenLoopConfig& ol_;
  const ServeOptions& opts_;
  std::size_t step_;
  ArrivalSchedule sched_;
  util::Xoshiro256 rng_;
  std::uint64_t warmup_ns_, end_ns_;
  double ns_per_cycle_;
  ServeTelemetry* tel_ = opts_.telemetry;
  bool tl_ = tel_lane_ok(tel_, step_);
  core::ThreadId lane_ = static_cast<core::ThreadId>(step_);

  util::MpmcQueue<Request> queue_;
  std::vector<Request> serving_;  // per thread: the request it runs
  std::uint64_t next_ns_ = 0;     // the pending arrival
  std::uint64_t next_emit_;
  std::uint64_t queue_depth_ = 0, queue_peak_ = 0, sgl_commits_ = 0;
  std::uint64_t events_ = 0;
  Totals totals_, tprev_;
  util::LatencyHistogram hist_;
  util::LatencyBuckets buckets_;
  util::LatencyBucketCounts bprev_{};
  std::string jsonl_;
};

StepOutput run_step_sim(const Desc& desc, const OpenLoopConfig& ol,
                        const ServeOptions& opts, std::size_t step,
                        double rate, double duration_s, std::size_t workers) {
  sim::MachineConfig mc;
  mc.n_threads = workers;
  // As in real mode: the config's topology, else one core per worker.
  mc.topology = desc.topology ? *desc.topology : core::Topology::flat(workers, 1);
  mc.seed = step_seed(opts.seed, step);
  mc.policy = opts.policy;
  mc.policy.seer.seed = mc.seed;
  // One generator lane samples every request; the machine owns it and only
  // reads its type names.
  auto gen = desc.make(1);
  sim::Workload& sampler = *gen;
  sim::Machine machine(mc, std::move(gen));
  StepArrivals arrivals(sampler, ol, opts, step, rate, duration_s, workers);
  (void)machine.run(arrivals);
  return arrivals.finish(rate, duration_s);
}

// --- real backend: wall-clock producer, real transactions -------------------

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
  // Core-slice sizing: the config's topology (which also routes to the
  // scheduler's shard layout), else one core per worker.
  if (desc.topology) {
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
          return run_step_sim(desc, ol, opts, i, rates[i], duration_s, workers);
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
