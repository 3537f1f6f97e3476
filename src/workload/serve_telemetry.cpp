#include "workload/serve_telemetry.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/prom.hpp"

namespace seer::workload {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_dbl(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

ServeTelemetry::ServeTelemetry(std::size_t lanes)
    : registry_(lanes == 0 ? 1 : lanes) {
  arrivals = registry_.counter("serve.arrivals");
  accepted = registry_.counter("serve.accepted");
  rejected = registry_.counter("serve.rejected");
  completed = registry_.counter("serve.completed");
  queue_depth = registry_.gauge("serve.queue_depth");
  active_workers = registry_.gauge("serve.active_workers");
  step = registry_.gauge("serve.step");
  workers = registry_.gauge("serve.workers");
  offered_rate_millirps = registry_.gauge("serve.offered_rate_millirps");
  registry_.freeze();
}

const char* ServeTelemetry::state_name() const noexcept {
  switch (state()) {
    case State::kIdle: return "idle";
    case State::kRunning: return "running";
    case State::kLinger: return "linger";
    case State::kDone: return "done";
  }
  return "?";
}

void ServeTelemetry::set_offered_rate(double rps) noexcept {
  offered_rate_bits_.store(std::bit_cast<std::uint64_t>(rps),
                           std::memory_order_relaxed);
}

double ServeTelemetry::offered_rate() const noexcept {
  return std::bit_cast<double>(
      offered_rate_bits_.load(std::memory_order_relaxed));
}

void ServeTelemetry::attach_step_registry(const obs::MetricsRegistry* reg) {
  util::SpinGuard g(mu_);
  step_registry_ = reg;
}

void ServeTelemetry::publish_model_json(std::string json) {
  auto next = std::make_shared<const std::string>(std::move(json));
  util::SpinGuard g(mu_);
  model_json_ = std::move(next);
}

std::shared_ptr<const std::string> ServeTelemetry::model_json() const {
  util::SpinGuard g(mu_);
  return model_json_;
}

std::string ServeTelemetry::metrics_exposition() const {
  std::string out = obs::to_prometheus(registry_.snapshot());
  util::SpinGuard g(mu_);
  if (step_registry_ != nullptr) {
    out += obs::to_prometheus(step_registry_->snapshot());
  }
  return out;
}

std::string ServeTelemetry::status_json() const {
  // Snapshot vectors mirror registration order, so the hub's own ids index
  // them directly.
  const obs::MetricsSnapshot snap = registry_.snapshot();
  const util::LatencyBucketCounts lat = latency_.snapshot();
  std::string out = "{\"state\": \"";
  out += state_name();
  out += "\", \"step\": ";
  append_u64(out, snap.gauges[step].value);
  out += ", \"workers\": ";
  append_u64(out, snap.gauges[workers].value);
  out += ", \"offered_rate\": ";
  append_dbl(out, offered_rate());
  out += ", \"arrivals\": ";
  append_u64(out, snap.counters[arrivals].value);
  out += ", \"accepted\": ";
  append_u64(out, snap.counters[accepted].value);
  out += ", \"rejected\": ";
  append_u64(out, snap.counters[rejected].value);
  out += ", \"completed\": ";
  append_u64(out, snap.counters[completed].value);
  out += ", \"queue_depth\": ";
  append_u64(out, snap.gauges[queue_depth].value);
  out += ", \"active_workers\": ";
  append_u64(out, snap.gauges[active_workers].value);
  out += ", \"p50_est_us\": ";
  append_dbl(out, util::bucket_quantile_estimate(lat, 0.5) / 1000.0);
  out += ", \"p99_est_us\": ";
  append_dbl(out, util::bucket_quantile_estimate(lat, 0.99) / 1000.0);
  out += "}\n";
  return out;
}

ServeTelemetry::Health ServeTelemetry::healthz(std::uint64_t now_ns,
                                               std::uint64_t stall_ns) const {
  const std::uint64_t pbeat =
      producer_beat_ns_.load(std::memory_order_relaxed);
  const std::uint64_t wbeat = worker_beat_ns_.load(std::memory_order_relaxed);
  const std::uint64_t page = pbeat != 0 && now_ns > pbeat ? now_ns - pbeat : 0;
  const std::uint64_t wage = wbeat != 0 && now_ns > wbeat ? now_ns - wbeat : 0;
  const std::uint64_t depth = registry_.snapshot().gauges[queue_depth].value;

  Health h;
  const char* verdict = "ok";
  if (state() == State::kRunning) {
    if (pbeat != 0 && page > stall_ns) {
      h.ok = false;
      verdict = "producer_stalled";
    } else if (wbeat != 0 && depth > 0 && wage > stall_ns) {
      h.ok = false;
      verdict = "workers_stalled";
    }
  }
  h.body = "{\"ok\": ";
  h.body += h.ok ? "true" : "false";
  h.body += ", \"verdict\": \"";
  h.body += verdict;
  h.body += "\", \"state\": \"";
  h.body += state_name();
  h.body += "\", \"producer_age_ms\": ";
  append_u64(h.body, page / 1000000);
  h.body += ", \"worker_age_ms\": ";
  append_u64(h.body, wage / 1000000);
  h.body += ", \"queue_depth\": ";
  append_u64(h.body, depth);
  h.body += "}\n";
  return h;
}

}  // namespace seer::workload
