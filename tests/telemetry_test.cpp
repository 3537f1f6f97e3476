// Live telemetry plane (DESIGN.md §13): Prometheus exposition rendering,
// the registry's gauge kind, the ServeTelemetry hub's endpoint bodies, and
// the HttpExporter served over a real loopback socket.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "util/tcp_listener.hpp"
#include "workload/serve_telemetry.hpp"

namespace {

using seer::obs::HistogramSnapshot;
using seer::obs::HttpExporter;
using seer::obs::HttpResponse;
using seer::obs::MetricsRegistry;
using seer::obs::MetricsSnapshot;
using seer::workload::ServeTelemetry;

// --- name sanitizing and escaping ------------------------------------------

TEST(PromFormat, SanitizeMapsInvalidCharsToUnderscore) {
  EXPECT_EQ(seer::obs::prom_sanitize_name("rt.commits"), "rt_commits");
  EXPECT_EQ(seer::obs::prom_sanitize_name("already_fine:name"),
            "already_fine:name");
  EXPECT_EQ(seer::obs::prom_sanitize_name("a-b c/d"), "a_b_c_d");
}

TEST(PromFormat, SanitizePrefixesLeadingDigitAndHandlesEmpty) {
  EXPECT_EQ(seer::obs::prom_sanitize_name("9lives"), "_9lives");
  EXPECT_EQ(seer::obs::prom_sanitize_name(""), "_");
  EXPECT_EQ(seer::obs::prom_sanitize_name("..."), "___");
}

TEST(PromFormat, EscapeHandlesBackslashNewlineQuote) {
  EXPECT_EQ(seer::obs::prom_escape("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
  EXPECT_EQ(seer::obs::prom_escape("plain"), "plain");
}

// --- counter / gauge rendering ---------------------------------------------

TEST(PromFormat, RendersCountersAndGaugesWithTypeLines) {
  MetricsSnapshot snap;
  snap.counters.push_back({"rt.commits", 42});
  snap.gauges.push_back({"serve.queue_depth", 7});
  const std::string text = seer::obs::to_prometheus(snap);
  EXPECT_EQ(text,
            "# TYPE seer_rt_commits counter\n"
            "seer_rt_commits 42\n"
            "# TYPE seer_serve_queue_depth gauge\n"
            "seer_serve_queue_depth 7\n");
}

TEST(PromFormat, EmptySnapshotRendersEmptyExposition) {
  EXPECT_EQ(seer::obs::to_prometheus(MetricsSnapshot{}), "");
}

TEST(PromFormat, PrefixIsConfigurable) {
  MetricsSnapshot snap;
  snap.counters.push_back({"x", 1});
  EXPECT_EQ(seer::obs::to_prometheus(snap, ""), "# TYPE x counter\nx 1\n");
}

// --- histogram rendering ----------------------------------------------------

TEST(PromFormat, HistogramBucketsAreCumulativeWithExactBounds) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "lat";
  h.buckets[0] = 3;  // v == 0
  h.buckets[3] = 2;  // v in [4, 7]
  h.buckets[5] = 1;  // v in [16, 31]
  h.count = 6;
  h.sum = 40;
  snap.histograms.push_back(h);
  const std::string text = seer::obs::to_prometheus(snap, "");
  EXPECT_EQ(text,
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"0\"} 3\n"
            "lat_bucket{le=\"7\"} 5\n"
            "lat_bucket{le=\"31\"} 6\n"
            "lat_bucket{le=\"+Inf\"} 6\n"
            "lat_sum 40\n"
            "lat_count 6\n");
}

TEST(PromFormat, EmptyHistogramStillClosesWithInf) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "lat";
  snap.histograms.push_back(h);
  EXPECT_EQ(seer::obs::to_prometheus(snap, ""),
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"+Inf\"} 0\n"
            "lat_sum 0\n"
            "lat_count 0\n");
}

TEST(PromFormat, TopBucketUsesSaturatedBound) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "big";
  h.buckets[64] = 1;
  h.count = 1;
  h.sum = ~std::uint64_t{0};
  snap.histograms.push_back(h);
  const std::string text = seer::obs::to_prometheus(snap, "");
  EXPECT_NE(text.find("big_bucket{le=\"18446744073709551615\"} 1"),
            std::string::npos);
}

// --- registry gauge kind ----------------------------------------------------

TEST(MetricsGauge, SetOverwritesAndSnapshotReadsLatest) {
  MetricsRegistry reg(2);
  const auto g = reg.gauge("depth");
  const auto g2 = reg.gauge("depth");  // idempotent by name
  EXPECT_EQ(g, g2);
  reg.freeze();
  reg.set_gauge(g, 5);
  reg.set_gauge(g, 3);  // overwrite, not accumulate
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "depth");
  EXPECT_EQ(snap.gauges[0].value, 3u);
}

TEST(MetricsGauge, ToJsonOmitsGaugesKeyWhenNoneRegistered) {
  MetricsRegistry reg(1);
  const auto c = reg.counter("c");
  reg.freeze();
  reg.add(c, 0, 7);
  const std::string json = reg.snapshot().to_json();
  // Pre-gauge byte shape: the bench --metrics stability contract.
  EXPECT_EQ(json, "{\"counters\": {\"c\": 7}, \"histograms\": {}}");
}

TEST(MetricsGauge, ToJsonEmitsGaugesBetweenCountersAndHistograms) {
  MetricsRegistry reg(1);
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  reg.freeze();
  reg.add(c, 0, 1);
  reg.set_gauge(g, 2);
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\"counters\": {\"c\": 1}, \"gauges\": {\"g\": 2}, "
            "\"histograms\": {}}");
}

TEST(MetricsGauge, ConcurrentSettersLeaveOneWrittenValue) {
  MetricsRegistry reg(1);
  const auto g = reg.gauge("racy");
  reg.freeze();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < 1000; ++i) {
        reg.set_gauge(g, static_cast<std::uint64_t>(t) * 1000 + i);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  const std::uint64_t v = reg.snapshot().gauges[0].value;
  EXPECT_LT(v, 4000u);  // some thread's last-ish write, never garbage
}

// --- Prometheus / JSON snapshot equivalence ---------------------------------

TEST(PromFormat, AgreesWithJsonDumpOnTheSameSnapshot) {
  MetricsRegistry reg(2);
  const auto c = reg.counter("rt.commits");
  const auto h = reg.histogram("rt.latency");
  reg.freeze();
  reg.add(c, 0, 10);
  reg.add(c, 1, 5);
  reg.observe(h, 0, 6);   // bucket 3
  reg.observe(h, 1, 20);  // bucket 5
  const MetricsSnapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  const std::string prom = seer::obs::to_prometheus(snap);
  // Same counter total in both renderings.
  EXPECT_NE(json.find("\"rt.commits\": 15"), std::string::npos);
  EXPECT_NE(prom.find("seer_rt_commits 15"), std::string::npos);
  // Same histogram evidence: JSON sparse buckets [3,1],[5,1]; Prometheus
  // cumulative 1-then-2 with the exact upper bounds.
  EXPECT_NE(json.find("\"buckets\": [[3, 1], [5, 1]]"), std::string::npos);
  EXPECT_NE(prom.find("seer_rt_latency_bucket{le=\"7\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("seer_rt_latency_bucket{le=\"31\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("seer_rt_latency_sum 26"), std::string::npos);
  EXPECT_NE(prom.find("seer_rt_latency_count 2"), std::string::npos);
}

// --- ServeTelemetry hub -----------------------------------------------------

TEST(ServeTelemetryTest, CountersSumAcrossLanes) {
  ServeTelemetry tel(3);
  tel.registry().add(tel.arrivals, 0, 2);
  tel.registry().add(tel.arrivals, 1, 3);
  tel.registry().add(tel.arrivals, 2, 5);
  const MetricsSnapshot snap = tel.registry().snapshot();
  EXPECT_EQ(snap.counters[tel.arrivals].value, 10u);
}

TEST(ServeTelemetryTest, StatusJsonCarriesCountersGaugesAndEstimates) {
  ServeTelemetry tel(1);
  tel.set_state(ServeTelemetry::State::kRunning);
  tel.set_offered_rate(1500.0);
  tel.registry().add(tel.arrivals, 0, 4);
  tel.registry().add(tel.accepted, 0, 3);
  tel.registry().add(tel.rejected, 0, 1);
  tel.registry().set_gauge(tel.queue_depth, 2);
  tel.registry().set_gauge(tel.workers, 8);
  tel.latency().record(1000);
  const std::string s = tel.status_json();
  EXPECT_NE(s.find("\"state\": \"running\""), std::string::npos);
  EXPECT_NE(s.find("\"offered_rate\": 1500"), std::string::npos);
  EXPECT_NE(s.find("\"arrivals\": 4"), std::string::npos);
  EXPECT_NE(s.find("\"accepted\": 3"), std::string::npos);
  EXPECT_NE(s.find("\"rejected\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"queue_depth\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"workers\": 8"), std::string::npos);
  EXPECT_NE(s.find("\"p50_est_us\""), std::string::npos);
}

TEST(ServeTelemetryTest, HealthzFlagsStalledProducerOnlyWhileRunning) {
  ServeTelemetry tel(1);
  const std::uint64_t stall = 1000;  // 1us threshold for the test
  tel.producer_beat(100);
  // Idle: stale beats are fine — nothing is supposed to be producing.
  EXPECT_TRUE(tel.healthz(1000000, stall).ok);
  tel.set_state(ServeTelemetry::State::kRunning);
  const ServeTelemetry::Health bad = tel.healthz(1000000, stall);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.body.find("producer_stalled"), std::string::npos);
  // A fresh beat clears it.
  tel.producer_beat(999999);
  EXPECT_TRUE(tel.healthz(1000000, stall).ok);
  // Linger is healthy regardless of beat age.
  tel.set_state(ServeTelemetry::State::kLinger);
  tel.producer_beat(100);
  EXPECT_TRUE(tel.healthz(1000000, stall).ok);
}

TEST(ServeTelemetryTest, HealthzFlagsStalledWorkersOnlyWithQueuedWork) {
  ServeTelemetry tel(1);
  const std::uint64_t stall = 1000;
  tel.set_state(ServeTelemetry::State::kRunning);
  tel.producer_beat(999999);
  tel.worker_beat(100);
  // Stale workers with an empty queue: just an idle service.
  EXPECT_TRUE(tel.healthz(1000000, stall).ok);
  tel.registry().set_gauge(tel.queue_depth, 5);
  const ServeTelemetry::Health bad = tel.healthz(1000000, stall);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.body.find("workers_stalled"), std::string::npos);
}

TEST(ServeTelemetryTest, ModelJsonSwapsAtomically) {
  ServeTelemetry tel(1);
  EXPECT_EQ(tel.model_json(), nullptr);
  tel.publish_model_json("{\"a\": 1}");
  const auto p1 = tel.model_json();
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(*p1, "{\"a\": 1}");
  tel.publish_model_json("{\"a\": 2}");
  // The old shared_ptr stays valid — scrapers holding it are unaffected.
  EXPECT_EQ(*p1, "{\"a\": 1}");
  EXPECT_EQ(*tel.model_json(), "{\"a\": 2}");
}

TEST(ServeTelemetryTest, MetricsExpositionIncludesAttachedStepRegistry) {
  ServeTelemetry tel(1);
  MetricsRegistry step_reg(1);
  const auto c = step_reg.counter("rt.commits");
  step_reg.freeze();
  step_reg.add(c, 0, 9);
  EXPECT_EQ(tel.metrics_exposition().find("seer_rt_commits"),
            std::string::npos);
  tel.attach_step_registry(&step_reg);
  EXPECT_NE(tel.metrics_exposition().find("seer_rt_commits 9"),
            std::string::npos);
  tel.attach_step_registry(nullptr);
  EXPECT_EQ(tel.metrics_exposition().find("seer_rt_commits"),
            std::string::npos);
}

// --- HttpExporter over a real loopback socket -------------------------------

TEST(HttpExporterTest, ServesRoutedPathsAnd404sUnknown) {
  HttpExporter exporter;
  exporter.route("/ping", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  std::string err;
  ASSERT_TRUE(exporter.start(0, &err)) << err;
  ASSERT_NE(exporter.port(), 0);

  auto res = seer::util::http_get("127.0.0.1", exporter.port(), "/ping", &err);
  ASSERT_TRUE(res.has_value()) << err;
  EXPECT_EQ(res->status, 200);
  EXPECT_EQ(res->body, "pong\n");

  res = seer::util::http_get("127.0.0.1", exporter.port(), "/nope", &err);
  ASSERT_TRUE(res.has_value()) << err;
  EXPECT_EQ(res->status, 404);

  // Query strings are stripped before route matching.
  res = seer::util::http_get("127.0.0.1", exporter.port(), "/ping?x=1", &err);
  ASSERT_TRUE(res.has_value()) << err;
  EXPECT_EQ(res->status, 200);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

TEST(HttpExporterTest, RejectsNonGetWith405) {
  HttpExporter exporter;
  exporter.route("/x", [] { return HttpResponse{200, "text/plain", "ok"}; });
  std::string err;
  ASSERT_TRUE(exporter.start(0, &err)) << err;

  seer::util::SocketFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  ASSERT_TRUE(seer::util::write_all(
      fd.get(), "POST /x HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::string raw;
  ASSERT_TRUE(seer::util::read_until_eof(fd.get(), raw, 1 << 16, 5000));
  EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 405"), 0) << raw;
  exporter.stop();
}

TEST(HttpExporterTest, ConcurrentScrapesUnderLiveBumpsSeeValidCounts) {
  // A writer hammers the hub while scrapers pull /metrics: every scraped
  // value must parse and be monotonically plausible (<= the final total).
  ServeTelemetry tel(1);
  HttpExporter exporter;
  exporter.route("/metrics", [&tel] {
    return HttpResponse{200, "text/plain", tel.metrics_exposition()};
  });
  std::string err;
  ASSERT_TRUE(exporter.start(0, &err)) << err;

  constexpr std::uint64_t kBumps = 20000;
  std::thread writer([&tel] {
    for (std::uint64_t i = 0; i < kBumps; ++i) {
      tel.registry().add(tel.arrivals, 0);
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const auto res =
        seer::util::http_get("127.0.0.1", exporter.port(), "/metrics", &err);
    ASSERT_TRUE(res.has_value()) << err;
    const std::string needle = "seer_serve_arrivals ";
    const std::size_t pos = res->body.find(needle);
    ASSERT_NE(pos, std::string::npos);
    const std::uint64_t v = std::strtoull(
        res->body.c_str() + pos + needle.size(), nullptr, 10);
    EXPECT_GE(v, last);  // single scraper: totals never go backwards
    last = v;
  }
  writer.join();
  EXPECT_LE(last, kBumps);
  const auto res =
      seer::util::http_get("127.0.0.1", exporter.port(), "/metrics", &err);
  ASSERT_TRUE(res.has_value()) << err;
  EXPECT_NE(res->body.find("seer_serve_arrivals 20000\n"), std::string::npos);
  exporter.stop();
}

}  // namespace
