// Admission control on the server's one bounded queue (DESIGN.md §13):
// with every worker pinned and every queue slot taken, the next client gets
// a prompt 503 with Retry-After from the accept thread instead of waiting
// behind the backlog; the queue never grows past its bound; the shed
// request is accounted under its own endpoint label; and once the backlog
// clears, the server answers normally again.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/windowed_histogram.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "util/net.h"

namespace tdg::serve {
namespace {

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

int64_t WindowedCount(const std::string& name) {
  return obs::MetricsRegistry::Global()
      .GetWindowed(name)
      .Snapshot()
      .windows.back()
      .count;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// serve/responses/* counters compile out under TDG_OBS_DISABLED; the
// windows are product surface and count in both builds.
#if defined(TDG_OBS_DISABLED)
constexpr int64_t kInstrumented = 0;
#else
constexpr int64_t kInstrumented = 1;
#endif

TEST(ServeOverloadTest, FullQueueShedsPromptlyWith503AndRetryAfterThenServerRecovers) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  constexpr int kWorkers = 2;
  constexpr int kReadTimeoutMs = 30000;
  CohortServer::Options options;
  options.num_workers = kWorkers;
  // Each idle client holds its worker in ReadHttpRequest this long.
  options.limits.read_timeout_ms = kReadTimeoutMs;
  auto server = CohortServer::Start(manager->get(), std::move(options));
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();
  const size_t capacity = (*server)->queue_stats().capacity;
  ASSERT_EQ(capacity, kWorkers * obs::HttpServer::kQueueSlotsPerWorker);

  const int64_t shed_before = WindowedCount("serve/latency_seconds/shed");
  const int64_t err5_before = CounterValue("serve/responses/5xx");

  // Idle clients connect and never send a byte.
  std::vector<util::net::Socket> idle;
  auto open_idle = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      auto client = util::net::ConnectLoopback(port);
      ASSERT_TRUE(client.ok()) << client.status();
      idle.push_back(std::move(client).value());
    }
  };
  // Pin every worker: accepted and taken off the queue.
  open_idle(kWorkers);
  ASSERT_TRUE(Eventually([&] {
    const obs::HttpServer::QueueStats q = (*server)->queue_stats();
    return q.accepted == kWorkers && q.depth == 0;
  })) << "workers never picked up the idle clients";
  // Fill every queue slot.
  open_idle(capacity);
  ASSERT_TRUE(Eventually([&] {
    const obs::HttpServer::QueueStats q = (*server)->queue_stats();
    return q.accepted == static_cast<int64_t>(kWorkers + capacity) &&
           q.depth == capacity;
  })) << "queue never filled";

  // The next request is shed by the accept thread, well inside the read
  // timeout that pins the workers.
  const auto begin = std::chrono::steady_clock::now();
  auto shed = util::net::HttpGet(port, "/healthz", /*timeout_ms=*/10000);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(*util::net::HttpStatusCode(*shed), 503) << *shed;
  EXPECT_NE(shed->find("\r\nRetry-After: "), std::string::npos) << *shed;
  EXPECT_LT(elapsed_ms, kReadTimeoutMs / 6);

  const obs::HttpServer::QueueStats full = (*server)->queue_stats();
  EXPECT_EQ(full.depth, capacity);
  EXPECT_LE(full.peak, capacity);

  // The shed request is accounted: its own window, and a 5xx.
  EXPECT_TRUE(Eventually([&] {
    return WindowedCount("serve/latency_seconds/shed") == shed_before + 1 &&
           CounterValue("serve/responses/5xx") ==
               err5_before + kInstrumented;
  }));

  // The idle clients hang up; the workers drain the queue and the server
  // answers normally again.
  idle.clear();
  EXPECT_TRUE(Eventually([&] {
    auto response = util::net::HttpGet(port, "/healthz");
    return response.ok() && util::net::HttpStatusCode(*response).ok() &&
           *util::net::HttpStatusCode(*response) == 200;
  })) << "server never recovered after the idle clients closed";
  EXPECT_LE((*server)->queue_stats().peak, capacity);
  (*server)->Stop();
}

}  // namespace
}  // namespace tdg::serve
