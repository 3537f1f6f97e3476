// Pass-through generator wrapper: the benchmark's probe at the workload
// layer boundary.
//
// It forwards every call to the wrapped generator unchanged — same
// arguments, same RNG object, same order — so the executor sees the identical
// instance stream and its own RNG draws continue exactly as without it (the
// simulated-statistics digest checks this on every traced run). Around the
// forwarded calls it records one simulator run's span: when its generator was
// made, when the run first touched it, and when the executor released it; in
// call-timing mode also the count and total time of next() and think_time().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "perfbench.hpp"
#include "workload/generator.hpp"
#include "workload/registry.hpp"

namespace perfbench {

// One simulator run as seen through its generator.
struct GenSpan {
  std::uint64_t made_ns = 0;   // Desc::make called (the run is being built)
  std::uint64_t start_ns = 0;  // first init(): Machine::run has begun
  std::uint64_t end_ns = 0;    // wrapper destroyed with its Machine
  std::uint64_t next_calls = 0;
  std::uint64_t next_ns = 0;   // time inside next()
  std::uint64_t think_ns = 0;  // time inside think_time()
};

class TimedGenerator final : public seer::workload::Generator {
 public:
  TimedGenerator(std::unique_ptr<seer::workload::Generator> inner, GenSpan* span,
                 bool time_calls)
      : inner_(std::move(inner)), span_(span), time_calls_(time_calls) {}
  TimedGenerator(const TimedGenerator&) = delete;
  TimedGenerator& operator=(const TimedGenerator&) = delete;
  ~TimedGenerator() override { span_->end_ns = now_ns(); }

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t n_types() const override { return inner_->n_types(); }
  [[nodiscard]] const std::string& type_name(seer::core::TxTypeId t) const override {
    return inner_->type_name(t);
  }
  void init(seer::core::ThreadId thread) override {
    if (span_->start_ns == 0) span_->start_ns = now_ns();
    inner_->init(thread);
  }
  [[nodiscard]] bool exhausted(seer::core::ThreadId thread) const override {
    return inner_->exhausted(thread);
  }
  void next(seer::core::ThreadId thread, double progress, seer::util::Xoshiro256& rng,
            seer::workload::TxInstance& out) override {
    if (!time_calls_) {
      inner_->next(thread, progress, rng, out);
      return;
    }
    const std::uint64_t t0 = now_ns();
    inner_->next(thread, progress, rng, out);
    span_->next_ns += now_ns() - t0;
    ++span_->next_calls;
  }
  [[nodiscard]] std::uint64_t think_time(seer::core::ThreadId thread,
                                         seer::util::Xoshiro256& rng) override {
    if (!time_calls_) return inner_->think_time(thread, rng);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t v = inner_->think_time(thread, rng);
    span_->think_ns += now_ns() - t0;
    return v;
  }

 private:
  std::unique_ptr<seer::workload::Generator> inner_;
  GenSpan* span_;
  bool time_calls_;
};

// `desc` with make() wrapped: each call takes the next GenSpan from
// `slot(n_threads)` and hands back a TimedGenerator recording into it.
// `slot` must return storage that outlives the generator.
[[nodiscard]] inline seer::workload::Desc timed_desc(
    seer::workload::Desc desc, std::function<GenSpan*()> slot, bool time_calls) {
  auto inner = desc.make;
  desc.make = [inner = std::move(inner), slot = std::move(slot),
               time_calls](std::size_t n_threads)
      -> std::unique_ptr<seer::workload::Generator> {
    GenSpan* span = slot();
    span->made_ns = now_ns();
    return std::make_unique<TimedGenerator>(inner(n_threads), span, time_calls);
  };
  return desc;
}

}  // namespace perfbench
