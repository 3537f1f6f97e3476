// Tests of the benchmark's own code: histogram quantiles, the digest, and the
// pass-through generator wrapper.
#include <gtest/gtest.h>

#include <cmath>

#include "perfbench.hpp"
#include "sim/machine.hpp"
#include "timed_generator.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace perfbench {
namespace {

using namespace seer;

// The histogram's quantile sits within 1% of the exact nearest-rank sample.
TEST(LogHistogram, QuantilesWithinOnePercentOfExact) {
  util::Xoshiro256 rng(11);
  util::LatencyHistogram samples;  // exact nearest-rank reference
  LogHistogram h, a, b;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~50 ns .. ~50 ms, like request latencies.
    const double e = 5.6 + 12.0 * static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
    const auto v = static_cast<std::uint64_t>(std::exp(e));
    samples.record(v);
    h.record(v);
    (i % 2 == 0 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(h.count(), samples.count());
  for (double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    const auto exact = static_cast<double>(samples.quantile(q));
    EXPECT_NEAR(h.quantile(q), exact, 0.01 * exact) << "q=" << q;
    EXPECT_EQ(a.quantile(q), h.quantile(q)) << "merge must not change quantiles";
  }
}

TEST(LogHistogram, SmallValuesExactAndEmpty) {
  LogHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.5), 50.0);
  EXPECT_EQ(h.quantile(0.99), 99.0);
  EXPECT_EQ(h.mean(), 50.5);
  h.record(~std::uint64_t{0});  // clamps into the top bucket
  EXPECT_EQ(h.count(), 101u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0}), 2.5);
}

TEST(Digest, OrderAndBitsMatter) {
  Digest a, b, c;
  a.add(std::uint64_t{1});
  a.add(std::uint64_t{2});
  b.add(std::uint64_t{2});
  b.add(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());
  c.add(0.0);
  Digest d;
  d.add(-0.0);
  EXPECT_NE(c.value(), d.value());
}

// The wrapper forwards every call with the same RNG object, so the instance
// stream and the RNG state after each call are identical to the bare
// generator's.
TEST(TimedGenerator, IdenticalInstanceStream) {
  for (const char* name : {"vacation-high", "intruder", "genome"}) {
    const workload::Desc desc = workload::find(name);
    constexpr std::size_t kThreads = 3;
    for (bool time_calls : {false, true}) {
      GenSpan span;
      auto bare = desc.make(kThreads);
      TimedGenerator wrapped(desc.make(kThreads), &span, time_calls);
      ASSERT_EQ(bare->n_types(), wrapped.n_types());
      for (std::size_t t = 0; t < kThreads; ++t) {
        const auto id = static_cast<core::ThreadId>(t);
        bare->init(id);
        wrapped.init(id);
        util::Xoshiro256 ra(100 + t), rb(100 + t);
        for (int i = 0; i < 500; ++i) {
          ASSERT_EQ(bare->think_time(id, ra), wrapped.think_time(id, rb));
          sim::TxInstance x, y;
          const double progress = i / 500.0;
          bare->next(id, progress, ra, x);
          wrapped.next(id, progress, rb, y);
          ASSERT_EQ(x.type, y.type);
          ASSERT_EQ(x.duration, y.duration);
          ASSERT_EQ(x.reads, y.reads);
          ASSERT_EQ(x.writes, y.writes);
          ASSERT_EQ(ra.next(), rb.next());
        }
      }
      EXPECT_EQ(span.next_calls, time_calls ? 3u * 500u : 0u);
      EXPECT_NE(span.start_ns, 0u);
    }
  }
}

// End to end through the simulator: a wrapped Desc yields bit-identical
// machine statistics, and the span brackets the run.
TEST(TimedGenerator, MachineStatisticsUnchanged) {
  const workload::Desc desc = workload::find("kmeans-high");
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.txs_per_thread = 300;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.seed = 42;
  const sim::MachineStats a = sim::run_machine(cfg, desc.make(cfg.n_threads));

  GenSpan span;
  const workload::Desc timed = timed_desc(desc, [&span] { return &span; }, true);
  const sim::MachineStats b = sim::run_machine(cfg, timed.make(cfg.n_threads));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.hw_attempts, b.hw_attempts);
  EXPECT_EQ(a.aborts_by_cause, b.aborts_by_cause);
  EXPECT_EQ(a.commits_by_mode, b.commits_by_mode);
  EXPECT_EQ(a.gt_conflicts, b.gt_conflicts);
  EXPECT_EQ(a.scheme_rebuilds, b.scheme_rebuilds);
  EXPECT_LE(span.made_ns, span.start_ns);
  EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_GE(span.next_calls, a.commits);  // one instance per transaction
  EXPECT_LE(span.next_ns + span.think_ns, span.end_ns - span.made_ns);
}

}  // namespace
}  // namespace perfbench
