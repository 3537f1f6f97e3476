#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace seer::obs {

using util::append_fixed6;
using util::append_u64;

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg)
    : cfg_(cfg), detector_(cfg.storm) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  ring_.reserve(cfg_.capacity);
}

bool FlightRecorder::note_transition(AnomalyEpisode::Kind kind,
                                     const core::StormDetector::Transition& t,
                                     const RebuildSample& s) {
  if (t.entered) {
    AnomalyEpisode ep;
    ep.kind = kind;
    ep.start_now = s.now;
    ep.start_rebuild = s.rebuild;
    ep.end_now = s.now;
    ep.end_rebuild = s.rebuild;
    ep.peak_rate = t.rate;
    episodes_.push_back(ep);
    return true;
  }
  if (!t.active && !t.exited) return false;
  // Inside (or just leaving) an episode: extend its bounds and peak.
  for (auto it = episodes_.rbegin(); it != episodes_.rend(); ++it) {
    if (it->kind != kind || !it->open) continue;
    it->end_now = s.now;
    it->end_rebuild = s.rebuild;
    it->peak_rate = std::max(it->peak_rate, t.rate);
    if (t.exited) it->open = false;
    break;
  }
  return false;
}

bool FlightRecorder::on_rebuild(const RebuildSample& s) {
  // Windows below min_window_events keep accumulating inside the detector.
  const core::StormDetector::Result r =
      detector_.on_window(s.executions, s.commits, sgl_fallbacks());
  bool anomaly_entered = false;
  if (r.evaluated) {
    anomaly_entered |=
        note_transition(AnomalyEpisode::Kind::kAbortStorm, r.abort_storm, s);
    anomaly_entered |=
        note_transition(AnomalyEpisode::Kind::kSglStorm, r.sgl_storm, s);
  }

  if (anomaly_entered) {
    pending_reason_ = SnapshotReason::kAnomaly;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  if (cfg_.period != 0 &&
      (captured_ == 0 || s.rebuild - last_capture_rebuild_ >= cfg_.period)) {
    pending_reason_ = SnapshotReason::kPeriodic;
    last_capture_rebuild_ = s.rebuild;
    return true;
  }
  return false;
}

void FlightRecorder::push(ModelSnapshot&& snap) {
  snap.seq = captured_;
  snap.sgl_fallbacks = sgl_fallbacks();
  ModelSnapshot* stored = nullptr;
  if (ring_.size() < cfg_.capacity) {
    ring_.push_back(std::move(snap));
    stored = &ring_.back();
  } else {
    stored = &ring_[static_cast<std::size_t>(captured_ % cfg_.capacity)];
    *stored = std::move(snap);
  }
  ++captured_;
  if (publish_) publish_(*stored);
}

void FlightRecorder::record(ModelSnapshot&& snap) {
  snap.reason = pending_reason_;
  push(std::move(snap));
}

void FlightRecorder::record_final(ModelSnapshot&& snap) {
  snap.reason = SnapshotReason::kFinal;
  // Close still-open episodes at the final clock; `open` stays true in the
  // dump so tools can tell "subsided" from "ran hot to the end".
  for (AnomalyEpisode& ep : episodes_) {
    if (ep.open) {
      ep.end_now = snap.now;
      ep.end_rebuild = snap.rebuild;
    }
  }
  push(std::move(snap));
}

std::vector<const ModelSnapshot*> FlightRecorder::snapshots() const {
  std::vector<const ModelSnapshot*> out;
  out.reserve(ring_.size());
  for (const ModelSnapshot& s : ring_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ModelSnapshot* a, const ModelSnapshot* b) {
              return a->seq < b->seq;
            });
  return out;
}

std::string FlightRecorder::to_json() const {
  std::string out = "{\"version\": ";
  append_u64(out, kModelSnapshotVersion);
  out += ", \"captured\": ";
  append_u64(out, captured_);
  out += ", \"dropped\": ";
  append_u64(out, dropped());
  out += ", \"snapshots\": [";
  bool first = true;
  for (const ModelSnapshot* s : snapshots()) {
    if (!first) out += ", ";
    first = false;
    s->append_json(out);
  }
  out += "], \"anomalies\": [";
  first = true;
  for (const AnomalyEpisode& ep : episodes_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"kind\": \"";
    out += to_string(ep.kind);
    out += "\", \"start_now\": ";
    append_u64(out, ep.start_now);
    out += ", \"start_rebuild\": ";
    append_u64(out, ep.start_rebuild);
    out += ", \"end_now\": ";
    append_u64(out, ep.end_now);
    out += ", \"end_rebuild\": ";
    append_u64(out, ep.end_rebuild);
    out += ", \"peak_rate\": ";
    append_fixed6(out, ep.peak_rate);
    out += ", \"open\": ";
    out += ep.open ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace seer::obs
