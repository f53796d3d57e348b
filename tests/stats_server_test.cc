// Tests for the embedded HTTP stats server: ephemeral binds + port files,
// each endpoint's contract, malformed-request handling, concurrent
// scraping (exercised under tsan by ci/check.sh monitor), and the headline
// guarantee that serving monitoring traffic never perturbs sweep outputs.

#include "obs/stats_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/net.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

std::unique_ptr<StatsServer> StartServer(StatsServer::Options options = {}) {
  auto server = StatsServer::Start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(server).value() : nullptr;
}

std::string Get(int port, const std::string& path) {
  auto response = util::net::HttpGet(port, path);
  EXPECT_TRUE(response.ok()) << path << ": " << response.status();
  return response.ok() ? response.value() : std::string();
}

TEST(StatsServerTest, BindsEphemeralPortAndWritesPortFile) {
  const std::string port_file =
      test::MakeScratchDir() + "/stats.port";
  StatsServer::Options options;
  options.port = 0;
  options.port_file = port_file;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);

  auto content = util::ReadFileToString(port_file);
  ASSERT_TRUE(content.ok()) << content.status();
  auto parsed = util::ParseInt(util::Trim(content.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(static_cast<int>(parsed.value()), server->port());
}

TEST(StatsServerTest, HealthzAnswersOk) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const std::string response = Get(server->port(), "/healthz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200"));
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "ok\n");
}

TEST(StatsServerTest, HealthzDegradesOnStaleOrTornHeartbeat) {
  const std::string dir = test::MakeScratchDir();
  const std::string fresh_path = dir + "/fresh.heartbeat";
  const std::string stale_path = dir + "/stale.heartbeat";
  const std::string torn_path = dir + "/torn.heartbeat";

  Heartbeat fresh;
  fresh.name = "healthz-test";
  fresh.shard_cells = 8;
  fresh.cells_done = 1;
  fresh.updated_unix_ms = UnixMillis();
  ASSERT_TRUE(WriteHeartbeat(fresh_path, fresh).ok());

  // A fresh heartbeat plus one that does not exist yet: still healthy (the
  // missing shard may simply not have started).
  {
    StatsServer::Options options;
    options.heartbeat_paths = {fresh_path, dir + "/not-yet.heartbeat"};
    auto server = StartServer(std::move(options));
    ASSERT_NE(server, nullptr);
    const std::string response = Get(server->port(), "/healthz");
    EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200")) << response;
  }

  // One shard stopped beating 10 minutes ago: degraded, and the body names
  // the offender.
  Heartbeat stale = fresh;
  stale.updated_unix_ms = UnixMillis() - 10 * 60 * 1000;
  ASSERT_TRUE(WriteHeartbeat(stale_path, stale).ok());
  {
    StatsServer::Options options;
    options.heartbeat_paths = {fresh_path, stale_path};
    auto server = StartServer(std::move(options));
    ASSERT_NE(server, nullptr);
    const std::string response = Get(server->port(), "/healthz");
    EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 503")) << response;
    auto body = util::net::HttpBody(response);
    ASSERT_TRUE(body.ok());
    EXPECT_TRUE(util::StartsWith(body.value(), "degraded\n")) << *body;
    EXPECT_NE(body->find(stale_path + ": stale"), std::string::npos)
        << *body;
    EXPECT_EQ(body->find(fresh_path), std::string::npos) << *body;
  }

  // A torn heartbeat (crashed host mid-write) also degrades.
  ASSERT_TRUE(util::WriteFileAtomic(torn_path, "{\"schema\": \"tdg.he").ok());
  {
    StatsServer::Options options;
    options.heartbeat_paths = {torn_path};
    auto server = StartServer(std::move(options));
    ASSERT_NE(server, nullptr);
    const std::string response = Get(server->port(), "/healthz");
    EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 503")) << response;
    auto body = util::net::HttpBody(response);
    ASSERT_TRUE(body.ok());
    EXPECT_NE(body->find(torn_path + ": torn"), std::string::npos) << *body;
  }
}

TEST(StatsServerTest, BlackboxzTailsTheDump) {
  const std::string path = test::MakeScratchDir() + "/server.blackbox";
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options recorder_options;
  recorder_options.path = path;
  ASSERT_TRUE(recorder.Start(recorder_options).ok());
  for (int i = 0; i < 8; ++i) {
    recorder.Record(BlackboxEventType::kRoundEnd,
                    {static_cast<double>(i), 1.0, static_cast<double>(i)});
  }

  StatsServer::Options options;
  options.blackbox_path = path;
  options.blackbox_tail = 3;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  // Live tail: the recorder has NOT stopped — /blackboxz reads the file
  // bytes the mapping already pushed to the page cache.
  const std::string response = Get(server->port(), "/blackboxz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200")) << response;
  EXPECT_NE(response.find("application/jsonl"), std::string::npos);
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  // Only the newest 3 of 8 events, one JSON object per line, oldest first.
  std::size_t lines = 0;
  for (char c : body.value()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(body->find("\"event\":\"round_end\""), std::string::npos)
      << *body;
  EXPECT_EQ(body->find("\"round\":4,"), std::string::npos) << *body;
  EXPECT_NE(body->find("\"round\":7,"), std::string::npos) << *body;
  recorder.Stop();
}

TEST(StatsServerTest, BlackboxzReportsUnreadableDumpAs503) {
  StatsServer::Options options;
  options.blackbox_path = test::MakeScratchDir() + "/never-written.bin";
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  const std::string response = Get(server->port(), "/blackboxz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 503")) << response;
}

TEST(StatsServerTest, UnknownPathIs404) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/nope"),
                               "HTTP/1.1 404"));
  // Query strings are stripped before routing.
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz?x=1"),
                               "HTTP/1.1 200"));
}

TEST(StatsServerTest, MalformedRequestIs400AndServerSurvives) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  for (const char* garbage :
       {"not an http request\r\n\r\n", "GET\r\n\r\n",
        "GET /healthz SMTP/1.0\r\n\r\n", "GET noslash HTTP/1.1\r\n\r\n"}) {
    auto client = util::net::ConnectLoopback(server->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->WriteAll(garbage).ok());
    auto response = client->ReadToEof(64 * 1024, /*timeout_ms=*/5000);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(util::StartsWith(response.value(), "HTTP/1.1 400"))
        << "request: " << garbage << "\nresponse: " << response.value();
  }
  // A well-formed request still works after the garbage ones.
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz"),
                               "HTTP/1.1 200"));
}

TEST(StatsServerTest, NonGetMethodIs405) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = util::net::ConnectLoopback(server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->WriteAll("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  auto response = client->ReadToEof(64 * 1024, /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(util::StartsWith(response.value(), "HTTP/1.1 405"));
}

TEST(StatsServerTest, MetricsServesPrometheusExposition) {
  MetricsRegistry::Global()
      .GetCounter("stats_server_test/scrapes")
      .Add(3);
  InstallBuildInfoMetrics();
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  const std::string response = Get(server->port(), "/metrics");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200"));
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(
      body->find("tdg_stats_server_test_scrapes_total"),
      std::string::npos);
  EXPECT_NE(body->find("tdg_build_info{"), std::string::npos);
  // Every scrape refreshes the process uptime gauge.
  EXPECT_NE(body->find("tdg_process_uptime_seconds"), std::string::npos);
}

TEST(StatsServerTest, StatuszServesManifestAndUptime) {
  StatsServer::Options options;
  options.manifest = RunManifest::Capture(/*seed=*/99);
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  auto body = util::net::HttpBody(Get(server->port(), "/statusz"));
  ASSERT_TRUE(body.ok());
  auto json = util::JsonValue::Parse(body.value());
  ASSERT_TRUE(json.ok()) << json.status();
  auto manifest = json->GetField("manifest");
  ASSERT_TRUE(manifest.ok());
  auto roundtrip = RunManifest::FromJson(manifest.value());
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status();
  EXPECT_EQ(roundtrip->seed, 99u);
  EXPECT_GE(json->GetField("uptime_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(static_cast<int>(json->GetField("port")->AsNumber()),
            server->port());
}

TEST(StatsServerTest, ProgresszServesTrackerSnapshot) {
  ProgressTracker tracker;
  tracker.SetEnabled(true);
  tracker.BeginRun("progressz-test", 8, 2);
  tracker.RecordCell("cell-2", 1000.0);

  StatsServer::Options options;
  options.progress = &tracker;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  auto body = util::net::HttpBody(Get(server->port(), "/progressz"));
  ASSERT_TRUE(body.ok());
  auto json = util::JsonValue::Parse(body.value());
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(json->GetField("name")->AsString(), "progressz-test");
  EXPECT_EQ(
      static_cast<long long>(json->GetField("cells_total")->AsNumber()), 8);
  EXPECT_EQ(
      static_cast<long long>(json->GetField("cells_done")->AsNumber()), 3);
  EXPECT_GE(json->GetField("eta_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(json->GetField("current_cell")->AsString(), "cell-2");
}

TEST(StatsServerTest, ConcurrentScrapesAllSucceed) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([port = server->port(), &ok_count] {
      const char* paths[] = {"/healthz", "/metrics", "/statusz",
                             "/progressz"};
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto response = util::net::HttpGet(port, paths[i % 4]);
        if (response.ok() &&
            util::StartsWith(response.value(), "HTTP/1.1 200")) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequestsPerThread);
  EXPECT_GE(server->requests_served(), kThreads * kRequestsPerThread);
}

TEST(StatsServerTest, StopIsIdempotentAndPortCloses) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const int port = server->port();
  server->Stop();
  server->Stop();  // second call is a no-op
  auto client = util::net::ConnectLoopback(port, /*timeout_ms=*/500);
  EXPECT_FALSE(client.ok());
}

// Satellite of the obs-off CI config: with TDG_OBS_DISABLED the macros
// compile to nothing while the explicit APIs (FlightRecorder::Record,
// every HTTP endpoint) keep working — scrapes degrade to smaller outputs,
// never crashes. The
// same test runs in normal builds, where it additionally pins the macro
// counts, so a skew between the two paths fails exactly one config.
TEST(StatsServerTest, ObsDisabledBuildDegradesCleanly) {
  const std::string dir = test::MakeScratchDir();

  // Flight recorder: macro + explicit record.
  const std::string blackbox = dir + "/events.blackbox";
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options recorder_options;
  recorder_options.path = blackbox;
  ASSERT_TRUE(recorder.Start(recorder_options).ok());
  TDG_BLACKBOX(BlackboxEventType::kNote, 1.0);
  recorder.Record(BlackboxEventType::kNote, {2.0});

  // Endpoints answer while the recorder is live.
  StatsServer::Options options;
  options.blackbox_path = blackbox;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz"),
                               "HTTP/1.1 200"));
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/metrics"),
                               "HTTP/1.1 200"));
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/blackboxz"),
                               "HTTP/1.1 200"));
  server->Stop();
  recorder.Stop();

  auto dump = ReadBlackbox(blackbox);
  ASSERT_TRUE(dump.ok()) << dump.status();
#if defined(TDG_OBS_DISABLED)
  ASSERT_EQ(dump->events.size(), 1u);
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 2.0);
#else
  ASSERT_EQ(dump->events.size(), 2u);
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(dump->events[1].values[0], 2.0);
#endif
}

TEST(StatsServerTest, SweepOutputsAreByteIdenticalWithServerOn) {
  // The monitoring plane's headline contract: a live server being scraped
  // mid-sweep (tracker enabled, /metrics + /progressz polled from another
  // thread) must not change a single output byte.
  test::MetricsOffGuard metrics_off;
  const exp::SweepConfig config = test::TinyConfig();

  auto baseline = exp::RunSweep(config);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  const bool tracker_was_enabled = ProgressTracker::Global().enabled();
  ProgressTracker::Global().SetEnabled(true);
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  std::atomic<bool> stop_scraping{false};
  std::thread scraper([port = server->port(), &stop_scraping] {
    while (!stop_scraping.load(std::memory_order_relaxed)) {
      (void)util::net::HttpGet(port, "/metrics");
      (void)util::net::HttpGet(port, "/progressz");
    }
  });

  auto monitored = exp::RunSweep(config);

  stop_scraping.store(true, std::memory_order_relaxed);
  scraper.join();
  server->Stop();
  ProgressTracker::Global().SetEnabled(tracker_was_enabled);

  ASSERT_TRUE(monitored.ok()) << monitored.status();
  EXPECT_GT(server->requests_served(), 0);
  EXPECT_EQ(test::CsvBytes(baseline.value()),
            test::CsvBytes(monitored.value()));
  EXPECT_EQ(test::JsonBytes(baseline.value()),
            test::JsonBytes(monitored.value()));
}

}  // namespace
}  // namespace tdg::obs
