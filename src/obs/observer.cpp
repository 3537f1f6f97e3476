#include "obs/observer.hpp"

#include <utility>

namespace seer::obs {

Observer::Observer(Layer layer, bool seer, const Sinks& sinks)
    : metrics_(sinks.metrics),
      trace_(sinks.trace),
      recorder_(sinks.recorder),
      events_(sinks.events),
      time_rebuilds_(layer == Layer::kRt && sinks.metrics != nullptr) {
  for (std::size_t i = 0; i < kVocabularySize; ++i) {
    const MetricDef& d = kVocabulary[i];
    const bool present = d.layer == layer || (d.layer == Layer::kSeer && seer) ||
                         (d.layer == Layer::kHtm && layer == Layer::kRt);
    if (metrics_ == nullptr || !present) {
      ids_[i] = kNoMetric;
    } else {
      ids_[i] = is_histogram(d.feed) ? metrics_->histogram(d.name)
                                    : metrics_->counter(d.name);
    }
  }
}

void SchedTraceRecorder::record(Event kind, core::ThreadId thread, core::TxTypeId tx,
                                std::uint64_t now) {
  const std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(SchedEvent{kind, thread, tx, now});
}

void SchedTraceRecorder::record(SchedDecision d) {
  const std::lock_guard<std::mutex> lk(mu_);
  decisions_.push_back(std::move(d));
}

std::vector<SchedEvent> SchedTraceRecorder::events() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

std::vector<SchedDecision> SchedTraceRecorder::decisions() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return decisions_;
}

}  // namespace seer::obs
