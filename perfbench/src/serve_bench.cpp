// serve-mixed: real threads in an open loop, Seer on SoftHtm.
//
// One producer samples the spec generator at Poisson arrivals and pushes into
// a bounded util::MpmcQueue, shedding when it is full; kWorkers workers pop
// and run each request through rt::ThreadedExecutor::ThreadHandle::run with a
// MetricsRegistry attached (as `seer_serve --listen` runs). The traffic is
// read-only `lookup`s beside read-modify-write `reserve`s on a 16-line zipf
// hot spot (perfbench/serve_mixed.json). Steps, in order:
//
//   r1, r2     two fixed absolute rates (~30% and ~70% of capacity)  — Seer
//   sat        one rate well above capacity, half-length steps in the
//              order Seer, RTM, RTM, Seer, all with the same arrivals
//
// Latency is timed from each request's *due* time, so producer lateness is
// charged to the requests it delays. Every step checks that the word table
// grew by exactly the committed increments and that every accepted request
// completed exactly once.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/latency_histogram.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rng.hpp"
#include "workload/open_loop.hpp"
#include "workload/registry.hpp"

namespace perfbench {

namespace {

using namespace seer;

// Two workers plus the producer: one core stays free for the kernel and
// everything else on the host, which keeps a stalled thread from stalling
// the service (see perfbench/README.md for the measurements).
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLookup = 0;   // transaction type ids in serve_mixed.json
constexpr std::size_t kReserve = 1;
constexpr std::size_t kMaxReads = 12;  // footprint bounds of serve_mixed.json
constexpr std::size_t kMaxWrites = 8;
constexpr std::uint64_t kSpanSample = 64;  // 1 in 64 requests keeps its spans
// Set-up takes a few milliseconds, so each step times it this many times
// first; the run reports the median over all of them.
constexpr int kSetupReps = 4;
// Latency quantiles are taken per 100 ms window of due times and the median
// over windows is reported: a multi-millisecond host stall spoils a few
// windows' tails, not the whole step's.
constexpr std::uint64_t kWindowNs = 100'000'000;

// A request carries its footprint inline, so the producer allocates nothing
// per request and the queue moves plain bytes.
struct Request {
  std::uint64_t id = 0;
  std::uint64_t due_ns = 0;  // steady clock: when the schedule wanted it sent
  std::uint64_t enq_ns = 0;
  std::uint64_t gen_ns = 0;  // traced: time inside Generator::next
  bool counted = false;      // due after the warm-up
  std::uint8_t type = 0;
  std::uint8_t n_reads = 0;
  std::uint8_t n_writes = 0;
  std::array<std::uint32_t, kMaxReads> reads{};
  std::array<std::uint32_t, kMaxWrites> writes{};
};

// The body the benchmark hands to ThreadHandle::run: every read line a
// tx.read, every write line a read-modify-write increment.
template <typename Tx>
void request_body(Tx& tx, std::span<htm::TmWord> words, const Request& r) {
  for (std::size_t i = 0; i < r.n_reads; ++i) (void)tx.read(words[r.reads[i] % words.size()]);
  for (std::size_t i = 0; i < r.n_writes; ++i) {
    htm::TmWord& w = words[r.writes[i] % words.size()];
    tx.write(w, tx.read(w) + 1);
  }
}

// Times each invocation of the body (one per attempt). `last` ends up as the
// committed attempt's time: run() returns only after a commit.
struct BodyClock {
  std::uint64_t total = 0;
  std::uint64_t last = 0;
  std::uint64_t calls = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>>* sample = nullptr;
};
struct BodyTimer {
  explicit BodyTimer(BodyClock& c) : clock(c) {}
  BodyTimer(const BodyTimer&) = delete;
  BodyTimer& operator=(const BodyTimer&) = delete;
  ~BodyTimer() {  // runs on commit and on the abort exception alike
    const std::uint64_t d = now_ns() - t0;
    clock.total += d;
    clock.last = d;
    ++clock.calls;
    if (clock.sample != nullptr) clock.sample->emplace_back(t0, d);
  }
  BodyClock& clock;
  std::uint64_t t0 = now_ns();
};

struct SpanRecord {  // one sampled request, all its layer boundaries
  std::uint64_t id = 0, type = 0, due = 0, enq = 0, gen_ns = 0, pop = 0, run0 = 0,
                run1 = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> attempts;  // start, dur
};

// What one worker (or, merged, one step) observed. Latency-like figures
// cover counted requests only.
struct Observed {
  std::uint64_t completed = 0;
  std::uint64_t in_window = 0;  // completions inside the measured window
  std::uint64_t writes = 0;     // increments committed requests applied
  std::uint64_t id_sum = 0;     // exactly-once fingerprint (mod 2^64)
  std::uint64_t id_sq_sum = 0;
  std::array<LogHistogram, 2> latency;  // by type, from the due time
  std::vector<LogHistogram> windows;    // all types, by due-time window
  LogHistogram lag;                     // producer lag: enq - due
  // Traced only:
  LogHistogram wait, run;
  std::array<double, 2> n{}, self_ns{}, body_ns{}, body_calls{};
  double wasted_ns = 0.0, body_total_ns = 0.0, residual_ns = 0.0, latency_ns = 0.0;
  std::vector<SpanRecord> spans;

  void merge(Observed& o) {
    completed += o.completed;
    in_window += o.in_window;
    writes += o.writes;
    id_sum += o.id_sum;
    id_sq_sum += o.id_sq_sum;
    for (std::size_t k = 0; k < 2; ++k) {
      latency[k].merge(o.latency[k]);
      n[k] += o.n[k];
      self_ns[k] += o.self_ns[k];
      body_ns[k] += o.body_ns[k];
      body_calls[k] += o.body_calls[k];
    }
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (std::size_t w = 0; w < o.windows.size(); ++w) windows[w].merge(o.windows[w]);
    lag.merge(o.lag);
    wait.merge(o.wait);
    run.merge(o.run);
    wasted_ns += o.wasted_ns;
    body_total_ns += o.body_total_ns;
    residual_ns += o.residual_ns;
    latency_ns += o.latency_ns;
    for (SpanRecord& s : o.spans) spans.push_back(std::move(s));
  }
  [[nodiscard]] LogHistogram all_latency() const {
    LogHistogram h = latency[kLookup];
    h.merge(latency[kReserve]);
    return h;
  }
  // Median over windows of each window's quantile q.
  [[nodiscard]] double windowed(double q) const {
    std::vector<double> v;
    for (const LogHistogram& w : windows) {
      if (w.count() > 0) v.push_back(w.quantile(q));
    }
    return median(v);
  }
};

struct StepResult {
  std::vector<double> setups;  // seconds per Rig construction
  double warmup_s = 0.0;
  double window_s = 0.0;
  std::uint64_t arrivals = 0, accepted = 0, shed = 0, depth_peak = 0;
  double gen_ns = 0.0, gen_calls = 0.0;
  Observed seen;
  rt::ExecutorStats exec;
  obs::MetricsSnapshot metrics;
  std::uint64_t sgl_fallbacks = 0;
  std::vector<std::string> violations;
};

struct StepSpec {
  const char* label;
  rt::PolicyKind policy;
  double rate;
  bool traced;
  std::uint64_t seed;
};

void mix_id(std::uint64_t id, std::uint64_t& sum, std::uint64_t& sq) {
  sum += id;
  sq += id * id;
}

rt::ThreadedExecutor::Options executor_options(std::size_t n_types,
                                               obs::MetricsRegistry* metrics) {
  rt::ThreadedExecutor::Options o;
  o.n_threads = kWorkers;
  o.n_types = n_types;
  o.physical_cores = kWorkers;
  o.metrics = metrics;
  return o;
}

rt::PolicyConfig policy_config(rt::PolicyKind kind) {
  rt::PolicyConfig p;
  p.kind = kind;
  return p;
}

// What a step builds before its threads start: the program under test, its
// word table and the admission queue. Constructing one is the set-up time.
struct Rig {
  Rig(const workload::Desc& desc, const workload::OpenLoopConfig& ol, rt::PolicyKind kind)
      : gen(desc.make(1)),  // one lane: the producer samples every request
        words(ol.table_words),
        registry(kWorkers),
        exec(tm, policy_config(kind), executor_options(gen->n_types(), &registry)),
        queue(ol.queue_capacity) {
    registry.freeze();
    for (std::size_t t = 0; t < kWorkers; ++t) {
      handles.push_back(exec.make_handle(static_cast<core::ThreadId>(t)));
    }
  }
  std::unique_ptr<workload::Generator> gen;
  std::vector<htm::TmWord> words;
  htm::SoftHtm tm;
  obs::MetricsRegistry registry;
  rt::ThreadedExecutor exec;
  std::vector<std::unique_ptr<rt::ThreadedExecutor::ThreadHandle>> handles;
  util::MpmcQueue<Request> queue;
};

// Seconds to construct and tear down a step's Rig.
double rig_setup_s(const workload::Desc& desc, const workload::OpenLoopConfig& ol,
                   rt::PolicyKind kind) {
  const std::uint64_t t0 = now_ns();
  { const Rig rig(desc, ol, kind); }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

StepResult serve_step(const workload::Desc& desc, const workload::OpenLoopConfig& ol,
                      const StepSpec& spec, double measure_s) {
  StepResult res;
  for (int i = 0; i < kSetupReps; ++i) res.setups.push_back(rig_setup_s(desc, ol, spec.policy));
  Rig rig(desc, ol, spec.policy);
  auto& [gen, words, tm, registry, exec, handles, queue] = rig;
  const workload::ArrivalSchedule sched(ol, spec.rate);
  const auto warmup_ns = static_cast<std::uint64_t>(ol.warmup_s * 1e9);
  const auto end_ns = warmup_ns + static_cast<std::uint64_t>(measure_s * 1e9);

  std::vector<Observed> outs(kWorkers);
  for (Observed& o : outs) o.windows.resize((end_ns - warmup_ns + kWindowNs - 1) / kWindowNs);
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<bool> producer_done{false};
  std::uint64_t acc_sum = 0, acc_sq = 0;
  bool oversized = false;

  auto worker = [&](std::size_t t) {
    rt::ThreadedExecutor::ThreadHandle& h = *handles[t];
    Observed& o = outs[t];
    const std::span<htm::TmWord> table(words);
    BodyClock clock;
    ready.fetch_add(1);
    while (t0_ns.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    const std::uint64_t t0 = t0_ns.load();
    const std::uint64_t win0 = t0 + warmup_ns, win1 = t0 + end_ns;
    Request r;
    for (;;) {
      if (!queue.try_pop(r)) {
        // The producer stops pushing before it sets the flag, so a miss
        // after seeing the flag means the queue is drained.
        if (!producer_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
          continue;
        }
        if (!queue.try_pop(r)) break;
      }
      const std::uint64_t pop = now_ns();
      const auto type = static_cast<core::TxTypeId>(r.type);
      const std::size_t k = r.type == kLookup ? kLookup : kReserve;
      std::uint64_t run0 = 0, run1 = 0;
      SpanRecord* span = nullptr;
      if (spec.traced) {
        if (r.counted && r.id % kSpanSample == 0) {
          span = &o.spans.emplace_back();
          clock.sample = &span->attempts;
        }
        clock.total = clock.calls = 0;
        run0 = now_ns();
        (void)h.run(type, [&](auto& tx) {
          const BodyTimer timer(clock);
          request_body(tx, table, r);
        });
        run1 = now_ns();
        clock.sample = nullptr;
      } else {
        (void)h.run(type, [&](auto& tx) { request_body(tx, table, r); });
      }
      const std::uint64_t done = now_ns();
      ++o.completed;
      o.writes += r.n_writes;
      mix_id(r.id, o.id_sum, o.id_sq_sum);
      if (done >= win0 && done < win1) ++o.in_window;
      if (!r.counted) continue;
      const std::uint64_t lat = done - r.due_ns;
      o.latency[k].record(lat);
      o.windows[std::min(o.windows.size() - 1, (r.due_ns - win0) / kWindowNs)].record(lat);
      o.lag.record(r.enq_ns - r.due_ns);
      if (!spec.traced) continue;
      o.wait.record(pop - r.enq_ns);
      o.run.record(run1 - run0);
      o.n[k] += 1.0;
      o.self_ns[k] += static_cast<double>(run1 - run0 - clock.total);
      o.body_ns[k] += static_cast<double>(clock.total);
      o.body_calls[k] += static_cast<double>(clock.calls);
      o.wasted_ns += static_cast<double>(clock.total - clock.last);
      o.body_total_ns += static_cast<double>(clock.total);
      // lag + queue wait + run (= runtime self + body) against the latency.
      o.residual_ns += static_cast<double>(lat - (run1 - run0) - (pop - r.due_ns));
      o.latency_ns += static_cast<double>(lat);
      if (span != nullptr) {
        span->id = r.id;
        span->type = r.type;
        span->due = r.due_ns;
        span->enq = r.enq_ns;
        span->gen_ns = r.gen_ns;
        span->pop = pop;
        span->run0 = run0;
        span->run1 = run1;
      }
    }
  };

  auto producer = [&] {
    util::Xoshiro256 rng(spec.seed);
    sim::TxInstance inst;
    gen->init(0);
    ready.fetch_add(1);
    while (ready.load() < kWorkers + 1) std::this_thread::yield();
    const std::uint64_t t0 = now_ns();
    t0_ns.store(t0, std::memory_order_release);
    // Arrivals follow the schedule; a late producer sends back to back (the
    // lateness lands in each request's latency), and stops at the window end.
    std::uint64_t due = sched.next_gap_ns(0.0, rng);
    while (due < end_ns) {
      const std::uint64_t target = t0 + due;
      std::uint64_t now = now_ns();
      if (now >= t0 + end_ns) break;
      for (; now < target; now = now_ns()) {
        if (target - now > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(target - now - 100'000));
        } else {
          std::this_thread::yield();
        }
      }
      Request r;
      r.id = res.arrivals++;
      r.due_ns = target;
      r.counted = due >= warmup_ns;
      const double progress = static_cast<double>(due) / static_cast<double>(end_ns);
      if (spec.traced) {
        const std::uint64_t g0 = now_ns();
        gen->next(0, progress, rng, inst);
        r.gen_ns = now_ns() - g0;
        res.gen_ns += static_cast<double>(r.gen_ns);
        res.gen_calls += 1.0;
      } else {
        gen->next(0, progress, rng, inst);
      }
      if (inst.reads.size() > kMaxReads || inst.writes.size() > kMaxWrites) {
        oversized = true;
        break;
      }
      r.type = static_cast<std::uint8_t>(inst.type);
      r.n_reads = static_cast<std::uint8_t>(inst.reads.size());
      r.n_writes = static_cast<std::uint8_t>(inst.writes.size());
      std::copy(inst.reads.begin(), inst.reads.end(), r.reads.begin());
      std::copy(inst.writes.begin(), inst.writes.end(), r.writes.begin());
      r.enq_ns = now_ns();
      const std::uint64_t id = r.id;
      if (queue.try_push(std::move(r))) {
        ++res.accepted;
        mix_id(id, acc_sum, acc_sq);
        res.depth_peak = std::max<std::uint64_t>(res.depth_peak, queue.approx_size());
      } else {
        ++res.shed;
      }
      due += sched.next_gap_ns(static_cast<double>(due) / 1e9, rng);
    }
    producer_done.store(true, std::memory_order_release);
  };

  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t) threads.emplace_back(worker, t);
    threads.emplace_back(producer);
  }  // joined here

  res.warmup_s = ol.warmup_s;
  res.window_s = measure_s;
  for (Observed& o : outs) res.seen.merge(o);
  const std::string label(spec.label);
  if (oversized) {
    res.violations.push_back(label + ": a request exceeds " + std::to_string(kMaxReads) +
                             " reads or " + std::to_string(kMaxWrites) + " writes");
  }
  std::uint64_t table_sum = 0;
  for (const htm::TmWord& w : words) table_sum += w.load();
  if (table_sum != res.seen.writes) {
    res.violations.push_back(label + ": word table grew by " + std::to_string(table_sum) +
                             ", committed increments " + std::to_string(res.seen.writes));
  }
  if (res.seen.completed != res.accepted || res.seen.id_sum != acc_sum ||
      res.seen.id_sq_sum != acc_sq) {
    res.violations.push_back(label + ": " + std::to_string(res.accepted) + " accepted, " +
                             std::to_string(res.seen.completed) +
                             " completed, or not each exactly once");
  }
  res.exec = rt::ThreadedExecutor::aggregate(handles);
  res.metrics = registry.snapshot();
  if (core::SeerScheduler* s = exec.policy_shared().seer()) {
    res.sgl_fallbacks = s->sgl_fallbacks();
  }
  return res;
}

double us(double ns) { return ns / 1e3; }

std::uint64_t counter(const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// p99 of a registry histogram (bit_width buckets, the obs-layer convention).
double histogram_p99(const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& h : m.histograms) {
    if (h.name == name) return util::bucket_quantile_estimate(h.buckets, 0.99);
  }
  return 0.0;
}

void write_spans(const RunArgs& args, const StepResult& s) {
  if (args.trace_dir.empty()) return;
  std::ofstream f(args.trace_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
                  ".jsonl");
  for (const SpanRecord& r : s.seen.spans) {
    f << "{\"request\":" << r.id << ",\"type\":" << r.type << ",\"due_ns\":" << r.due
      << ",\"spans\":[{\"name\":\"workload.next\",\"dur_ns\":" << r.gen_ns
      << "},{\"name\":\"util.queue\",\"start_ns\":" << r.enq << ",\"end_ns\":" << r.pop
      << "},{\"name\":\"runtime.run\",\"start_ns\":" << r.run0 << ",\"end_ns\":" << r.run1
      << ",\"children\":[";
    for (std::size_t a = 0; a < r.attempts.size(); ++a) {
      f << (a == 0 ? "" : ",") << "{\"name\":\"htm.body\",\"start_ns\":"
        << r.attempts[a].first << ",\"dur_ns\":" << r.attempts[a].second << "}";
    }
    f << "]}]}\n";
  }
}

void add_info(Outcome& out, const char* fmt, double v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, v);
  out.info.emplace_back(buf);
}

void serve_layers(const StepResult& s, double plain_p50_us, Outcome& out) {
  auto& L = out.layers;
  const Observed& o = s.seen;
  L["bench.trace_overhead.p50"] = us(o.all_latency().quantile(0.5)) - plain_p50_us;
  L["bench.layer_residual"] = o.residual_ns / o.latency_ns;
  L["workload.next_ns"] = s.gen_ns / s.gen_calls;
  L["workload.next_ns.serve-mixed"] = s.gen_ns / s.gen_calls;
  // Share of the producer's time spent generating requests (every next()
  // call is timed, warm-up included, so the warm-up is in the denominator).
  L["workload.next_share"] = s.gen_ns / 1e9 / (s.warmup_s + s.window_s);
  L["workload.producer_lag_p99_us"] = us(o.lag.quantile(0.99));
  L["util.queue.wait_p50_us"] = us(o.wait.quantile(0.5));
  L["util.queue.wait_p99_us"] = us(o.wait.quantile(0.99));
  L["util.queue.depth_peak"] = static_cast<double>(s.depth_peak);
  L["util.queue.shed"] = static_cast<double>(s.shed);
  L["runtime.run_p50_us"] = us(o.run.quantile(0.5));
  L["runtime.run_p99_us"] = us(o.run.quantile(0.99));
  static constexpr const char* kType[] = {"lookup", "reserve"};
  for (std::size_t k = 0; k < 2; ++k) {
    L[std::string("runtime.self_ns.") + kType[k]] = o.self_ns[k] / o.n[k];
    L[std::string("runtime.attempts_per_commit.") + kType[k]] = o.body_calls[k] / o.n[k];
    L[std::string("htm.body_ns.") + kType[k]] = o.body_ns[k] / o.body_calls[k];
  }
  const rt::ExecutorStats& e = s.exec;
  const auto commits = static_cast<double>(e.commits());
  const auto sgl = static_cast<double>(
      e.total.commits_by_mode[static_cast<std::size_t>(rt::CommitMode::kSglFallback)]);
  L["runtime.useful_attempt_ratio"] =
      commits / (static_cast<double>(e.total.hw_attempts) + sgl);
  static constexpr const char* kCause[] = {"conflict", "capacity", "explicit", "other"};
  for (std::size_t c = 0; c < 4; ++c) {
    L[std::string("runtime.aborts_per_commit.") + kCause[c]] =
        static_cast<double>(e.total.aborts_by_cause[c]) / commits;
  }
  L["runtime.mode.htm_no_locks"] = e.mode_fraction(rt::CommitMode::kHtmNoLocks);
  L["runtime.mode.tx_locks"] = e.mode_fraction(rt::CommitMode::kHtmTxLocks);
  L["runtime.mode.core_locks"] = e.mode_fraction(rt::CommitMode::kHtmCoreLock);
  L["runtime.mode.tx_and_core"] = e.mode_fraction(rt::CommitMode::kHtmTxAndCore);
  L["runtime.mode.sgl"] = e.mode_fraction(rt::CommitMode::kSglFallback);
  L["htm.wasted_body_share"] = o.wasted_ns / o.body_total_ns;
  L["core.rebuilds"] = static_cast<double>(counter(s.metrics, "seer.rebuilds"));
  L["core.rebuild_ns_p99"] = histogram_p99(s.metrics, "seer.rebuild.ns");
  L["core.sgl_fallbacks"] = static_cast<double>(s.sgl_fallbacks);

  const double n = o.n[0] + o.n[1];
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "layer sum (mean per request at r2): latency %.3f us = producer lag "
                "%.3f + queue wait %.3f + runtime self %.3f + htm body %.3f + residual "
                "%.3f us (%.2f%%)",
                us(o.latency_ns / n), us(o.lag.mean()), us(o.wait.mean()),
                us((o.self_ns[0] + o.self_ns[1]) / n), us(o.body_total_ns / n),
                us(o.residual_ns / n), 100.0 * o.residual_ns / o.latency_ns);
  out.info.emplace_back(buf);
}

void count_failures(const StepResult& s, bool shed_fails, Outcome& out) {
  out.attempted += shed_fails ? s.arrivals : s.accepted;
  if (shed_fails) out.failed += s.shed;  // shedding below capacity fails a request
  out.failed += s.violations.size();
  for (const auto& v : s.violations) out.violations.push_back(v);
}

}  // namespace

Outcome run_serve_mixed(const RunArgs& args) {
  Outcome out;
  const workload::Desc desc = workload::from_config(args.config);
  if (!desc.open_loop || desc.open_loop->sweep_rates.size() != 3) {
    throw std::runtime_error(args.config +
                             ": open_loop.sweep.rates must be [r1, r2, saturation]");
  }
  const workload::OpenLoopConfig& ol = *desc.open_loop;
  const double r1 = ol.sweep_rates[0], r2 = ol.sweep_rates[1], sat = ol.sweep_rates[2];
  // r1, r2 and saturation share the measured time; every step draws from
  // the same seed, so the saturation steps see identical requests.
  const double measure_s = std::max(0.5, args.seconds / 4.0);
  const std::uint64_t seed = args.seed * 0x9e3779b97f4a7c15ULL + 1;

  if (args.trace) {
    const StepResult plain =
        serve_step(desc, ol, {"r2", rt::PolicyKind::kSeer, r2, false, seed}, measure_s);
    const StepResult traced =
        serve_step(desc, ol, {"r2", rt::PolicyKind::kSeer, r2, true, seed}, measure_s);
    count_failures(plain, true, out);
    count_failures(traced, true, out);
    serve_layers(traced, us(plain.seen.all_latency().quantile(0.5)), out);
    write_spans(args, traced);
    return out;
  }

  const StepResult s1 =
      serve_step(desc, ol, {"r1", rt::PolicyKind::kSeer, r1, false, seed}, measure_s);
  const StepResult s2 =
      serve_step(desc, ol, {"r2", rt::PolicyKind::kSeer, r2, false, seed}, measure_s);
  count_failures(s1, true, out);
  count_failures(s2, true, out);
  // Saturation in Seer, RTM, RTM, Seer order (half a step each), so a host
  // whose speed drifts during the run biases neither policy.
  std::vector<StepResult> sat_steps;
  std::array<double, 2> done{}, window{};  // Seer, RTM
  std::vector<double> setups = s1.setups;
  setups.insert(setups.end(), s2.setups.begin(), s2.setups.end());
  for (const rt::PolicyKind kind : {rt::PolicyKind::kSeer, rt::PolicyKind::kRtm,
                                    rt::PolicyKind::kRtm, rt::PolicyKind::kSeer}) {
    const bool is_seer = kind == rt::PolicyKind::kSeer;
    const char* label = is_seer ? "sat" : "sat-rtm";
    StepResult r = serve_step(desc, ol, {label, kind, sat, false, seed}, measure_s / 2);
    // Completions measure capacity only while the workers are behind: a step
    // that shed nothing measured the producer's rate instead.
    if (r.shed == 0) {
      r.violations.push_back(std::string(label) +
                             ": nothing shed, so the workers were not saturated and "
                             "the step measured the producer");
    }
    count_failures(r, false, out);
    done[is_seer ? 0 : 1] += static_cast<double>(r.seen.in_window);
    window[is_seer ? 0 : 1] += r.window_s;
    setups.insert(setups.end(), r.setups.begin(), r.setups.end());
    sat_steps.push_back(r);
  }
  const double capacity = done[0] / window[0];
  const double rtm_capacity = done[1] / window[1];
  const LogHistogram lat1 = s1.seen.all_latency(), lat2 = s2.seen.all_latency();
  out.e2e["setup_s"] = median(setups);
  out.e2e["tx_per_s"] = capacity;
  out.e2e["seer_vs_rtm"] = capacity / rtm_capacity;

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "serve-mixed: r1 %.0f/s, r2 %.0f/s, saturation %.0f/s offered; %.2f s "
                "measured per step",
                r1, r2, sat, measure_s);
  out.info.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "set-up: %zu repetitions, min %.4f median %.4f max %.4f ms",
                setups.size(), 1e3 * *std::min_element(setups.begin(), setups.end()),
                1e3 * median(setups), 1e3 * *std::max_element(setups.begin(), setups.end()));
  out.info.emplace_back(buf);
  add_info(out, "  serve.p50_us.r1 = %.3f us (window median)", us(s1.seen.windowed(0.5)));
  add_info(out, "  serve.p99_us.r1 = %.3f us (window median)", us(s1.seen.windowed(0.99)));
  add_info(out, "  serve.p50_us.r2 = %.3f us (window median)", us(s2.seen.windowed(0.5)));
  add_info(out, "  serve.p99_us.r2 = %.3f us (window median)", us(s2.seen.windowed(0.99)));
  add_info(out, "  whole-step p99 at r1 = %.3f us", us(lat1.quantile(0.99)));
  add_info(out, "  whole-step p99 at r2 = %.3f us", us(lat2.quantile(0.99)));
  add_info(out, "  serve.lookup_p50_us.r2 = %.3f us",
           us(s2.seen.latency[kLookup].quantile(0.5)));
  add_info(out, "  serve.reserve_p50_us.r2 = %.3f us",
           us(s2.seen.latency[kReserve].quantile(0.5)));
  add_info(out, "  serve.capacity_rps = %.1f completions/s", capacity);
  add_info(out, "  serve.rtm_capacity_rps = %.1f completions/s", rtm_capacity);
  add_info(out, "  serve.p999_us.r2 = %.3f us (not steady; printed only)",
           us(lat2.quantile(0.999)));
  add_info(out, "  producer lag p99 at r2 = %.3f us", us(s2.seen.lag.quantile(0.99)));
  std::uint64_t sat_shed = 0, sat_arrivals = 0;
  for (const StepResult& r : sat_steps) {
    sat_shed += r.shed;
    sat_arrivals += r.arrivals;
  }
  std::snprintf(buf, sizeof buf,
                "  shed: r1 %" PRIu64 ", r2 %" PRIu64 ", saturation %" PRIu64 " of %" PRIu64
                " offered",
                s1.shed, s2.shed, sat_shed, sat_arrivals);
  out.info.emplace_back(buf);
  return out;
}

}  // namespace perfbench
