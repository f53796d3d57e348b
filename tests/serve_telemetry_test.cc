// Serving-plane telemetry coverage (DESIGN.md §14): every response class —
// 2xx, 4xx, 5xx, and requests the transport layer rejected before routing
// (HttpLimits violations) — lands in the per-endpoint latency histograms
// and the response-class counters; /metrics exports the rolling windowed
// quantiles; /statusz carries the windows table; /tracez and /slowz serve
// the tail sampler's rings.
//
// The metrics registry is process-global, so every check is a before/after
// delta (each gtest TEST runs as its own ctest process, but tests still
// avoid assuming absolute counter values).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/windowed_histogram.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "util/json.h"
#include "util/net.h"

namespace tdg::serve {
namespace {

std::string EnrollBody(const std::string& id, int participants) {
  std::string body = "{\"id\":\"" + id +
                     "\",\"config\":{\"group_size\":3,\"policy\":\"star\"},"
                     "\"participants\":[";
  for (int i = 0; i < participants; ++i) {
    if (i > 0) body += ",";
    body += "{\"key\":\"" + id + "-p" + std::to_string(i) +
            "\",\"skill\":" + std::to_string(i + 1) + ".0}";
  }
  return body + "]}";
}

int64_t HistogramCount(const std::string& name) {
  return obs::MetricsRegistry::Global().GetHistogram(name).Count();
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

int64_t WindowedCount(const std::string& name) {
  // The widest window (5m) sees everything a test just recorded.
  const obs::WindowedHistogramStats stats =
      obs::MetricsRegistry::Global().GetWindowed(name).Snapshot();
  return stats.windows.back().count;
}

// The server files a request's telemetry after the response bytes are on
// the wire (so total_micros includes the write phase), which means a
// client that just read its response can race the bookkeeping by a hair.
// Poll with a deadline before asserting exact deltas.
template <typename Predicate>
bool Eventually(Predicate pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// The per-endpoint serve/latency/* histograms and serve/responses/*
// counters are instrumentation: cohort_server.cc compiles them out under
// TDG_OBS_DISABLED, where they must stay at their before-values. The
// windowed serve/latency_seconds/* families are product surface and rise
// in both builds.
#if defined(TDG_OBS_DISABLED)
constexpr int64_t kInstrumented = 0;
#else
constexpr int64_t kInstrumented = 1;
#endif

class ServeTelemetryTest : public testing::Test {
 protected:
  void StartServer(CohortServer::Options options = {}) {
    auto manager = CohortManager::Open({});
    ASSERT_TRUE(manager.ok()) << manager.status();
    manager_ = std::move(manager).value();
    options.num_workers = 2;
    auto server = CohortServer::Start(manager_.get(), std::move(options));
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  int port() const { return server_->port(); }

  std::unique_ptr<CohortManager> manager_;
  std::unique_ptr<CohortServer> server_;
};

TEST_F(ServeTelemetryTest, SuccessfulRequestsRecordLatencyAndResponseClass) {
  StartServer();
  const int64_t hist_before = HistogramCount("serve/latency/healthz");
  const int64_t windowed_before =
      WindowedCount("serve/latency_seconds/healthz");
  const int64_t ok_before = CounterValue("serve/responses/2xx");

  for (int i = 0; i < 3; ++i) {
    auto response = util::net::HttpGet(port(), "/healthz");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(*util::net::HttpStatusCode(*response), 200);
  }

  EXPECT_TRUE(Eventually([&] {
    return HistogramCount("serve/latency/healthz") ==
               hist_before + 3 * kInstrumented &&
           WindowedCount("serve/latency_seconds/healthz") ==
               windowed_before + 3 &&
           CounterValue("serve/responses/2xx") ==
               ok_before + 3 * kInstrumented;
  }));
  EXPECT_EQ(HistogramCount("serve/latency/healthz"),
            hist_before + 3 * kInstrumented);
  EXPECT_EQ(WindowedCount("serve/latency_seconds/healthz"),
            windowed_before + 3);
  EXPECT_EQ(CounterValue("serve/responses/2xx"),
            ok_before + 3 * kInstrumented);
}

TEST_F(ServeTelemetryTest, ErrorResponsesAreRecordedNotDropped) {
  StartServer();
  const int64_t cohort_before = HistogramCount("serve/latency/cohort");
  const int64_t other_before = HistogramCount("serve/latency/other");
  const int64_t err4_before = CounterValue("serve/responses/4xx");
  const int64_t win_cohort_before =
      WindowedCount("serve/latency_seconds/cohort");
  const int64_t win_other_before =
      WindowedCount("serve/latency_seconds/other");

  // 404 on a routed endpoint (unknown cohort) and on an unknown path.
  auto missing = util::net::HttpGet(port(), "/cohorts/no-such-cohort");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(*util::net::HttpStatusCode(*missing), 404);
  auto unknown = util::net::HttpGet(port(), "/no/such/path");
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(*util::net::HttpStatusCode(*unknown), 404);

  EXPECT_TRUE(Eventually([&] {
    return HistogramCount("serve/latency/cohort") ==
               cohort_before + kInstrumented &&
           HistogramCount("serve/latency/other") ==
               other_before + kInstrumented &&
           CounterValue("serve/responses/4xx") ==
               err4_before + 2 * kInstrumented &&
           WindowedCount("serve/latency_seconds/cohort") ==
               win_cohort_before + 1 &&
           WindowedCount("serve/latency_seconds/other") ==
               win_other_before + 1;
  }));
  EXPECT_EQ(HistogramCount("serve/latency/cohort"),
            cohort_before + kInstrumented);
  EXPECT_EQ(HistogramCount("serve/latency/other"),
            other_before + kInstrumented);
  EXPECT_EQ(CounterValue("serve/responses/4xx"),
            err4_before + 2 * kInstrumented);
  EXPECT_EQ(WindowedCount("serve/latency_seconds/other"),
            win_other_before + 1);
  // The windowed histogram marks them as errors.
  EXPECT_EQ(WindowedCount("serve/latency_seconds/cohort"),
            win_cohort_before + 1);
  const auto stats = obs::MetricsRegistry::Global()
                         .GetWindowed("serve/latency_seconds/cohort")
                         .Snapshot();
  EXPECT_GT(stats.windows.back().errors, 0);
}

TEST_F(ServeTelemetryTest, LimitRejectedRequestsStillHitTheHistograms) {
  // Requests the transport layer refuses before routing (HttpLimits) must
  // not vanish from telemetry: they get the "unreadable" endpoint label.
  CohortServer::Options options;
  options.limits.max_body_bytes = 64;
  StartServer(std::move(options));
  const int64_t unreadable_before = HistogramCount("serve/latency/unreadable");
  const int64_t win_before = WindowedCount("serve/latency_seconds/unreadable");
  const int64_t err4_before = CounterValue("serve/responses/4xx");

  // Declares a body over the limit; the server rejects (413) after reading
  // only the head, before any body bytes exist to route.
  auto client = util::net::ConnectLoopback(port(), /*timeout_ms=*/5000);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client
                  ->WriteAll("POST /cohorts HTTP/1.1\r\n"
                             "Content-Length: 1000\r\n\r\n")
                  .ok());
  auto response = client->ReadToEof(1 << 20, /*timeout_ms=*/10000);
  ASSERT_TRUE(response.ok()) << response.status();
  auto code = util::net::HttpStatusCode(*response);
  ASSERT_TRUE(code.ok());
  EXPECT_GE(*code, 400);
  EXPECT_LT(*code, 500);

  EXPECT_TRUE(Eventually([&] {
    return HistogramCount("serve/latency/unreadable") ==
               unreadable_before + kInstrumented &&
           WindowedCount("serve/latency_seconds/unreadable") ==
               win_before + 1 &&
           CounterValue("serve/responses/4xx") ==
               err4_before + kInstrumented;
  }));
  EXPECT_EQ(HistogramCount("serve/latency/unreadable"),
            unreadable_before + kInstrumented);
  EXPECT_EQ(WindowedCount("serve/latency_seconds/unreadable"), win_before + 1);
  EXPECT_EQ(CounterValue("serve/responses/4xx"),
            err4_before + kInstrumented);
}

TEST_F(ServeTelemetryTest, MetricsExportRollingQuantilesPerEndpoint) {
  StartServer();
  ASSERT_EQ(*util::net::HttpStatusCode(
                *util::net::HttpGet(port(), "/healthz")),
            200);
  // The healthz record lands moments after its response; poll until the
  // windowed family shows up in the export.
  std::string body;
  ASSERT_TRUE(Eventually([&] {
    auto response = util::net::HttpGet(port(), "/metrics");
    if (!response.ok()) return false;
    auto got = util::net::HttpBody(*response);
    if (!got.ok()) return false;
    body = *got;
    return body.find("tdg_serve_latency_seconds{") != std::string::npos;
  })) << "windowed latency family never appeared on /metrics";
  // The rolling windows render as a labeled gauge family with qps and
  // error-rate companions.
  EXPECT_NE(body.find("tdg_serve_latency_seconds{"), std::string::npos);
  EXPECT_NE(body.find("endpoint=\"healthz\""), std::string::npos);
  EXPECT_NE(body.find("window=\"10s\""), std::string::npos);
  EXPECT_NE(body.find("window=\"1m\""), std::string::npos);
  EXPECT_NE(body.find("window=\"5m\""), std::string::npos);
  EXPECT_NE(body.find("quantile=\"p50\""), std::string::npos);
  EXPECT_NE(body.find("quantile=\"p95\""), std::string::npos);
  EXPECT_NE(body.find("quantile=\"p99\""), std::string::npos);
  EXPECT_NE(body.find("tdg_serve_latency_seconds_qps{"), std::string::npos);
  EXPECT_NE(body.find("tdg_serve_latency_seconds_error_rate{"),
            std::string::npos);
}

TEST_F(ServeTelemetryTest, StatuszCarriesTheWindowsTable) {
  StartServer();
  ASSERT_EQ(*util::net::HttpStatusCode(
                *util::net::HttpGet(port(), "/healthz")),
            200);
  // Same post-write race as /metrics: poll until the healthz window lands.
  std::string body;
  ASSERT_TRUE(Eventually([&] {
    auto response = util::net::HttpGet(port(), "/statusz");
    if (!response.ok()) return false;
    auto got = util::net::HttpBody(*response);
    if (!got.ok()) return false;
    body = *got;
    auto probe = util::JsonValue::Parse(body);
    if (!probe.ok()) return false;
    auto probe_windows = probe->GetField("windows");
    return probe_windows.ok() && probe_windows->GetField("healthz").ok();
  })) << "healthz window never appeared on /statusz";
  auto json = util::JsonValue::Parse(body);
  ASSERT_TRUE(json.ok()) << json.status();
  auto windows = json->GetField("windows");
  ASSERT_TRUE(windows.ok()) << windows.status();
  auto healthz = windows->GetField("healthz");
  ASSERT_TRUE(healthz.ok()) << "statusz windows: "
                            << windows->Serialize();
  auto one_minute = healthz->GetField("1m");
  ASSERT_TRUE(one_minute.ok());
  EXPECT_GE(one_minute->GetField("count")->AsNumber(), 1.0);
  EXPECT_TRUE(one_minute->GetField("p99").ok());
  EXPECT_TRUE(one_minute->GetField("qps").ok());
  EXPECT_TRUE(one_minute->GetField("error_rate").ok());
}

TEST_F(ServeTelemetryTest, TracezAndSlowzServeTheSampledTraces) {
  CohortServer::Options options;
  options.tail.slow_threshold_micros = 0;  // keep everything
  StartServer(std::move(options));
  ASSERT_EQ(*util::net::HttpStatusCode(*util::net::HttpDo(
                port(), "POST", "/cohorts", EnrollBody("tele", 6))),
            201);
  ASSERT_EQ(*util::net::HttpStatusCode(*util::net::HttpDo(
                port(), "POST", "/cohorts/tele/advance", "{}")),
            200);

  // Both the enroll's and the advance's traces are filed after their
  // responses; poll until both are visible.
  std::string tracez_body;
  ASSERT_TRUE(Eventually([&] {
    auto tracez = util::net::HttpGet(port(), "/tracez");
    if (!tracez.ok() || *util::net::HttpStatusCode(*tracez) != 200) {
      return false;
    }
    auto got = util::net::HttpBody(*tracez);
    if (!got.ok()) return false;
    tracez_body = *got;
    auto probe = util::JsonValue::Parse(tracez_body);
    if (!probe.ok()) return false;
    auto probe_traces = probe->GetField("traces");
    return probe_traces.ok() && probe_traces->AsArray().size() >= 2 &&
           tracez_body.find("\"endpoint\":\"advance\"") != std::string::npos;
  })) << "advance trace never appeared on /tracez";
  auto tracez_json = util::JsonValue::Parse(tracez_body);
  ASSERT_TRUE(tracez_json.ok()) << tracez_json.status();
  auto traces = tracez_json->GetField("traces");
  ASSERT_TRUE(traces.ok());
  ASSERT_GE(traces->AsArray().size(), 2u);  // enroll + advance at least
  bool saw_advance = false;
  for (const util::JsonValue& trace : traces->AsArray()) {
    EXPECT_NE(trace.GetField("trace_id")->AsNumber(), 0.0);
    if (trace.GetField("endpoint")->AsString() == "advance") {
      saw_advance = true;
      EXPECT_EQ(trace.GetField("status")->AsNumber(), 200.0);
    }
  }
  EXPECT_TRUE(saw_advance);

  auto slowz = util::net::HttpGet(port(), "/slowz");
  ASSERT_TRUE(slowz.ok()) << slowz.status();
  ASSERT_EQ(*util::net::HttpStatusCode(*slowz), 200);
  auto slowz_body = util::net::HttpBody(*slowz);
  ASSERT_TRUE(slowz_body.ok());
  // Per-phase breakdown: the advance's trace carries the lock-wait,
  // journal-fsync, and compute spans by name.
  EXPECT_NE(slowz_body->find("\"endpoint\":\"advance\""), std::string::npos);
  EXPECT_NE(slowz_body->find("lock_wait_micros"), std::string::npos);
  EXPECT_NE(slowz_body->find("journal_fsync_micros"), std::string::npos);
  EXPECT_NE(slowz_body->find("compute_micros"), std::string::npos);
  EXPECT_NE(slowz_body->find("serialize_micros"), std::string::npos);
  // Each line parses as JSON.
  size_t start = 0;
  int lines = 0;
  while (start < slowz_body->size()) {
    size_t end = slowz_body->find('\n', start);
    if (end == std::string::npos) break;
    auto line = util::JsonValue::Parse(slowz_body->substr(start, end - start));
    EXPECT_TRUE(line.ok()) << slowz_body->substr(start, end - start);
    ++lines;
    start = end + 1;
  }
  EXPECT_GE(lines, 2);

  // POSTs to the read-only telemetry endpoints are rejected.
  EXPECT_EQ(*util::net::HttpStatusCode(
                *util::net::HttpDo(port(), "POST", "/tracez", "{}")),
            405);
  EXPECT_EQ(*util::net::HttpStatusCode(
                *util::net::HttpDo(port(), "POST", "/slowz", "{}")),
            405);
}

}  // namespace
}  // namespace tdg::serve
