// Model-introspection subsystem: FlightRecorder trigger/ring semantics,
// ModelSnapshot serialization, and the scheduler/machine integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/fault_plan.hpp"
#include "core/seer_scheduler.hpp"
#include "htm/soft_htm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observer.hpp"
#include "obs/snapshot.hpp"
#include "runtime/threaded_executor.hpp"
#include "sim/machine.hpp"
#include "stamp/workloads.hpp"
#include "util/json.hpp"

namespace seer::obs {
namespace {

ModelSnapshot tiny_snapshot(std::uint64_t now, std::uint64_t rebuild) {
  ModelSnapshot s;
  s.now = now;
  s.rebuild = rebuild;
  s.n_types = 2;
  s.aborts = {0, 3, 1, 0};
  s.commit_pairs = {5, 2, 2, 7};
  s.execs = {10, 12};
  s.scheme = {{0, 1}, {0}};
  return s;
}

// One rebuild window worth of feed: `commit_share` of `events` commit.
RebuildSample sample_at(std::uint64_t rebuild, std::uint64_t executions,
                        std::uint64_t commits) {
  return RebuildSample{rebuild * 1000, rebuild, executions, commits};
}

TEST(FlightRecorder, PeriodicCadenceCapturesEveryKthRebuild) {
  FlightRecorderConfig cfg;
  cfg.period = 3;
  cfg.storm.min_window_events = 1u << 20;  // detectors never arm in this test
  FlightRecorder rec(cfg);

  std::vector<std::uint64_t> captured_at;
  for (std::uint64_t r = 1; r <= 10; ++r) {
    if (rec.on_rebuild(sample_at(r, r * 100, r * 90))) {
      captured_at.push_back(r);
      rec.record(tiny_snapshot(r * 1000, r));
    }
  }
  // First rebuild always captures (captured_ == 0), then every `period`.
  EXPECT_EQ(captured_at, (std::vector<std::uint64_t>{1, 4, 7, 10}));
  EXPECT_EQ(rec.captured(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (const ModelSnapshot* s : rec.snapshots()) {
    EXPECT_EQ(s->reason, SnapshotReason::kPeriodic);
  }
}

TEST(FlightRecorder, ZeroPeriodDisablesPeriodicCapture) {
  FlightRecorderConfig cfg;
  cfg.period = 0;
  cfg.storm.min_window_events = 1u << 20;
  FlightRecorder rec(cfg);
  for (std::uint64_t r = 1; r <= 5; ++r) {
    EXPECT_FALSE(rec.on_rebuild(sample_at(r, r * 100, r * 90)));
  }
  rec.record_final(tiny_snapshot(9000, 9));
  EXPECT_EQ(rec.captured(), 1u);
  EXPECT_EQ(rec.snapshots()[0]->reason, SnapshotReason::kFinal);
}

TEST(FlightRecorder, RingOverwritesOldestAndKeepsSeqOrder) {
  FlightRecorderConfig cfg;
  cfg.capacity = 4;
  cfg.period = 1;
  cfg.storm.min_window_events = 1u << 20;
  FlightRecorder rec(cfg);
  for (std::uint64_t r = 1; r <= 10; ++r) {
    ASSERT_TRUE(rec.on_rebuild(sample_at(r, r * 100, r * 90)));
    rec.record(tiny_snapshot(r * 1000, r));
  }
  EXPECT_EQ(rec.captured(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  // Seqs 0..9 were assigned; the ring retains the newest four, seq-ordered.
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i]->seq, 6u + i);
    EXPECT_EQ(snaps[i]->rebuild, 7u + i);  // rebuild r got seq r-1
  }
}

TEST(FlightRecorder, AbortStormOpensOneEpisodeWithHysteresis) {
  FlightRecorderConfig cfg;
  cfg.period = 0;  // isolate the anomaly trigger
  cfg.storm.min_window_events = 64;
  cfg.storm.abort_rate_enter = 0.90;
  cfg.storm.abort_rate_exit = 0.60;
  FlightRecorder rec(cfg);

  std::uint64_t executions = 0;
  std::uint64_t commits = 0;
  std::uint64_t rebuild = 0;
  // First on_rebuild only arms the window (never classified).
  EXPECT_FALSE(rec.on_rebuild(sample_at(++rebuild, executions, commits)));
  // Per-window commit counts (1000 executions each): healthy (abort rate
  // 0.10), storm entry (0.95), still hot (0.92 — hysteresis, no re-capture),
  // hovering above exit (0.65 — episode stays open), recovery (0.20 — closes
  // it), then a second storm (0.95 — new episode, new capture).
  const std::uint64_t window_commits[] = {900, 50, 80, 350, 800, 50};
  std::vector<bool> fired;
  for (const std::uint64_t wc : window_commits) {
    executions += 1000;
    commits += wc;
    fired.push_back(rec.on_rebuild(sample_at(++rebuild, executions, commits)));
    if (fired.back()) rec.record(tiny_snapshot(rebuild * 1000, rebuild));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, false, true}));

  const auto& eps = rec.episodes();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].kind, AnomalyEpisode::Kind::kAbortStorm);
  EXPECT_FALSE(eps[0].open);
  EXPECT_NEAR(eps[0].peak_rate, 0.95, 1e-9);
  EXPECT_GT(eps[0].end_rebuild, eps[0].start_rebuild);
  EXPECT_TRUE(eps[1].open) << "second storm runs hot to the end";
  for (const ModelSnapshot* s : rec.snapshots()) {
    EXPECT_EQ(s->reason, SnapshotReason::kAnomaly);
  }
}

TEST(FlightRecorder, SglStormTracksFallbackRate) {
  FlightRecorderConfig cfg;
  cfg.period = 0;
  cfg.storm.min_window_events = 64;
  cfg.storm.sgl_rate_enter = 0.25;
  cfg.storm.sgl_rate_exit = 0.05;
  FlightRecorder rec(cfg);

  EXPECT_FALSE(rec.on_rebuild(sample_at(1, 0, 0)));  // bootstrap
  // Healthy window: 1000 executions, few fallbacks.
  for (int i = 0; i < 10; ++i) rec.note_sgl_fallback();
  EXPECT_FALSE(rec.on_rebuild(sample_at(2, 1000, 900)));
  // Storm window: 300 fallbacks over 1000 executions = 0.30 >= enter.
  for (int i = 0; i < 300; ++i) rec.note_sgl_fallback();
  ASSERT_TRUE(rec.on_rebuild(sample_at(3, 2000, 1500)));
  rec.record(tiny_snapshot(3000, 3));
  ASSERT_EQ(rec.episodes().size(), 1u);
  EXPECT_EQ(rec.episodes()[0].kind, AnomalyEpisode::Kind::kSglStorm);
  EXPECT_NEAR(rec.episodes()[0].peak_rate, 0.30, 1e-9);
  EXPECT_EQ(rec.sgl_fallbacks(), 310u);
}

TEST(FlightRecorder, RecordFinalClosesOpenEpisodesAtFinalClock) {
  FlightRecorderConfig cfg;
  cfg.period = 0;
  cfg.storm.min_window_events = 64;
  FlightRecorder rec(cfg);
  EXPECT_FALSE(rec.on_rebuild(sample_at(1, 0, 0)));
  ASSERT_TRUE(rec.on_rebuild(sample_at(2, 1000, 10)));  // abort storm
  rec.record(tiny_snapshot(2000, 2));
  ModelSnapshot fin = tiny_snapshot(7777, 9);
  rec.record_final(std::move(fin));
  ASSERT_EQ(rec.episodes().size(), 1u);
  EXPECT_TRUE(rec.episodes()[0].open) << "open flag survives for the dump";
  EXPECT_EQ(rec.episodes()[0].end_now, 7777u);
  EXPECT_EQ(rec.episodes()[0].end_rebuild, 9u);
  EXPECT_EQ(rec.snapshots().back()->reason, SnapshotReason::kFinal);
}

TEST(ModelSnapshot, JsonRoundTripsThroughParser) {
  ModelSnapshot s = tiny_snapshot(123, 7);
  s.seq = 3;
  s.reason = SnapshotReason::kAnomaly;
  s.executions = 22;
  s.commits = 12;
  s.sgl_fallbacks = 4;
  s.th1 = 0.3;
  s.th2 = 0.8;
  s.climber_cur_x = 0.38;
  s.climber_cur_y = 0.8;
  s.climber_best_x = 0.3;
  s.climber_best_y = 0.8;
  s.climber_best_score = 1.5;
  s.climber_epochs = 9;

  std::string text;
  s.append_json(text);
  std::string err;
  const auto v = util::json::parse(text, &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << text;
  EXPECT_EQ(v->u64("seq"), 3u);
  EXPECT_EQ(v->str("reason"), "anomaly");
  EXPECT_EQ(v->u64("now"), 123u);
  EXPECT_EQ(v->u64("rebuild"), 7u);
  EXPECT_EQ(v->u64("executions"), 22u);
  EXPECT_EQ(v->u64("sgl_fallbacks"), 4u);
  EXPECT_DOUBLE_EQ(v->find("params")->num("th1"), 0.3);
  EXPECT_DOUBLE_EQ(v->find("params")->num("th2"), 0.8);
  const util::json::Value* climber = v->find("climber");
  ASSERT_NE(climber, nullptr);
  EXPECT_DOUBLE_EQ(climber->find("cur")->array[0].number, 0.38);
  EXPECT_EQ(climber->u64("epochs"), 9u);
  EXPECT_EQ(v->u64("n_types"), 2u);
  // All four pairs carry joint evidence (aborts or commits), so none are
  // dropped by the sparse-omission rule.
  const util::json::Value* pairs = v->find("pairs");
  ASSERT_NE(pairs, nullptr);
  ASSERT_EQ(pairs->array.size(), 4u);
  const util::json::Value& p01 = pairs->array[1];
  EXPECT_EQ(p01.u64("x"), 0u);
  EXPECT_EQ(p01.u64("y"), 1u);
  EXPECT_EQ(p01.u64("aborts"), 3u);
  EXPECT_EQ(p01.u64("commits"), 2u);
  EXPECT_DOUBLE_EQ(p01.num("p_cond"), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(p01.num("p_conj"), 3.0 / 10.0);
  const util::json::Value* scheme = v->find("scheme");
  ASSERT_NE(scheme, nullptr);
  ASSERT_EQ(scheme->array.size(), 2u);
  EXPECT_EQ(scheme->array[0].array.size(), 2u);
  EXPECT_EQ(scheme->array[1].array[0].as_u64(), 0u);
}

// ------------------------------------------------- scheduler integration ---

TEST(SchedulerIntegration, RebuildFeedsRecorderAndSnapshotsModel) {
  FlightRecorderConfig rcfg;
  rcfg.period = 1;
  rcfg.storm.min_window_events = 1u << 20;
  FlightRecorder rec(rcfg);
  Observer observer(Layer::kSeer, /*seer=*/true, {.recorder = &rec});

  core::SeerConfig cfg;
  cfg.n_threads = 2;
  cfg.n_types = 2;
  cfg.update_period = 8;
  core::SeerScheduler sched(cfg, &observer);

  sched.announce(1, 1);
  for (int i = 0; i < 8; ++i) {
    sched.announce(0, 0);
    sched.record_abort(0, 0);
  }
  EXPECT_TRUE(sched.maybe_update(0, 1000));
  ASSERT_EQ(rec.captured(), 1u);
  const ModelSnapshot* snap = rec.snapshots()[0];
  EXPECT_EQ(snap->rebuild, 1u);
  EXPECT_EQ(snap->now, 1000u);
  EXPECT_EQ(snap->n_types, 2u);
  EXPECT_EQ(snap->executions, sched.executions_seen());
  EXPECT_GT(snap->abort(0, 1), 0u) << "thread 1 was announced as type 1";
  EXPECT_EQ(snap->th1, sched.params().th1);
}

// --------------------------------------------------- machine integration ---

TEST(MachineIntegration, SeerRunFeedsRecorderAndFinalSnapshot) {
  sim::MachineConfig cfg;
  cfg.n_threads = 4;
  cfg.physical_cores = 2;
  cfg.txs_per_thread = 600;
  cfg.seed = 7;
  cfg.policy.kind = rt::PolicyKind::kSeer;
  cfg.policy.seer.update_period = 64;
  FlightRecorder rec;
  cfg.recorder = &rec;

  const sim::MachineStats stats =
      sim::run_machine(cfg, stamp::make_workload("intruder", cfg.n_threads));

  ASSERT_GE(rec.captured(), 1u);
  const auto snaps = rec.snapshots();
  EXPECT_EQ(snaps.back()->reason, SnapshotReason::kFinal);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GT(snaps[i]->seq, snaps[i - 1]->seq);
    EXPECT_GE(snaps[i]->now, snaps[i - 1]->now);
  }
  // The final capture agrees with the machine's own epilogue readings.
  EXPECT_EQ(snaps.back()->scheme, stats.final_scheme);
  EXPECT_EQ(snaps.back()->rebuild, stats.scheme_rebuilds);
  EXPECT_EQ(snaps.back()->th1, stats.final_params.th1);

  // And the dump parses.
  std::string err;
  const auto doc = util::json::parse(rec.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->u64("captured"), rec.captured());
}

// -------------------------------------------------- executor integration ---

TEST(ExecutorIntegration, SglGrantsFeedTheRecorder) {
  // Real mode must count SGL fallbacks where the simulator does: once per
  // grant of the lock. Injected conflicts exhaust the retry budget of a
  // share of the transactions, so some commit in hardware and some on the
  // SGL.
  constexpr std::size_t kThreads = 2;
  constexpr int kTxsPerThread = 200;
  htm::SoftHtm tm;
  FlightRecorder rec;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 2;
  opts.physical_cores = 2;
  opts.recorder = &rec;
  rt::ThreadedExecutor exec(tm, policy, opts);

  std::vector<std::unique_ptr<rt::ThreadedExecutor::ThreadHandle>> handles;
  std::vector<std::unique_ptr<check::FaultPlan>> plans;
  for (std::size_t t = 0; t < kThreads; ++t) {
    handles.push_back(exec.make_handle(static_cast<core::ThreadId>(t)));
    plans.push_back(std::make_unique<check::FaultPlan>(
        check::FaultPlanConfig{.p_conflict = 0.2, .seed = t + 1}));
    handles.back()->set_fault_injector(plans.back().get());
  }
  htm::TmWord counter{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxsPerThread; ++i) {
        (void)handles[t]->run(static_cast<core::TxTypeId>(i % 2), [&](auto& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  const rt::ExecutorStats stats = rt::ThreadedExecutor::aggregate(handles);
  const std::uint64_t sgl_commits =
      stats.total.commits_by_mode[static_cast<std::size_t>(rt::CommitMode::kSglFallback)];
  EXPECT_EQ(counter.load(), kThreads * kTxsPerThread);
  EXPECT_GT(sgl_commits, 0u) << "the fault plans never pushed a tx onto the SGL";
  EXPECT_EQ(rec.sgl_fallbacks(), sgl_commits);
}

}  // namespace
}  // namespace seer::obs
