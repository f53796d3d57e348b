#ifndef TDG_OBS_HTTP_SERVER_H_
#define TDG_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/run_manifest.h"
#include "obs/tail_sampler.h"
#include "util/json.h"
#include "util/net.h"
#include "util/status.h"

namespace tdg::obs {

/// The one embedded HTTP/1.1 server (DESIGN.md §9, §13, §14);
/// obs::StatsServer and serve::CohortServer are route tables on it. One
/// accept thread (127.0.0.1 only, ~100 ms stop poll) feeds `num_workers`
/// handler threads through one queue of kQueueSlotsPerWorker × num_workers
/// connections; when it is full the accept thread answers 503 with
/// Retry-After itself. Stop() drains the queue, so every accepted client
/// gets a response. Each request is traced (RequestContext, parse and
/// serialize phases, tail sampler) and counted per endpoint label in the
/// `serve/latency_seconds/`, `serve/latency/` and `serve/responses/`
/// families; unreadable requests are labelled `unreadable`, shed ones
/// `shed`, unrouted ones `other`. Shared GET endpoints: /healthz, /metrics,
/// /statusz, /tracez, /slowz. Unknown paths are 404, known paths with
/// another method 405, both with an {"error": message} JSON body.
class HttpServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    int port = 0;
    /// When non-empty, the bound port is written here (atomic replace).
    std::string port_file;
    /// Provenance served on /statusz; captured at start when left default.
    RunManifest manifest;
    /// Per-request read bounds.
    util::net::HttpLimits limits;
  };

  /// Answers one request; `args` are the path segments the route's '*'
  /// wildcards matched, in order.
  using Handler = std::function<std::string(
      const util::net::HttpRequest& request,
      const std::vector<std::string>& args)>;

  struct Route {
    std::string method;    // "GET" or "POST"
    std::string path;      // "/a/*/b": '*' matches one non-empty segment
    std::string endpoint;  // telemetry label; names registry families
    Handler handler;
  };

  /// What a server adds to the shared part.
  struct Routes {
    std::vector<Route> routes;
    /// Lines that degrade /healthz to 503; "" is healthy.
    std::function<std::string()> health_problems;
    /// Point-in-time gauges: `serve/<name>` on /metrics, `<name>` on
    /// /statusz.
    std::function<std::vector<std::pair<std::string, double>>()> gauges;
    /// Whether requests get trace ids stamped into the flight recorder. Off
    /// when the black box is another job's timeline; requests are still
    /// timed, sampled and counted, under trace id 0.
    bool trace_to_blackbox = true;
  };

  static constexpr size_t kQueueSlotsPerWorker = 4;

  struct QueueStats {
    size_t capacity = 0;   // the bound
    size_t depth = 0;      // connections waiting for a worker now
    size_t peak = 0;       // the most that ever waited at once
    int64_t accepted = 0;  // connections taken off the listener
  };

  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The actually bound port (resolves port 0 requests).
  int port() const { return listener_.port(); }

  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  QueueStats queue_stats() const;

  /// Stops accepting, drains queued connections, joins all threads.
  /// Idempotent.
  void Stop();

 protected:
  HttpServer(Options options, Routes routes, int num_workers,
             TailSampler::Options tail = {});

  /// Binds, writes the port file, and starts the threads. Call once.
  util::Status Listen();

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Answers one connection (a shed one with 503, unread) and files the
  /// request's telemetry.
  void Serve(util::net::Socket connection, bool shed);
  std::string Dispatch(const util::net::HttpRequest& request,
                       std::string* endpoint);
  std::string Healthz() const;
  std::string Metrics() const;
  std::string Statusz() const;

  Options options_;
  Routes routes_;  // the shared endpoints first, then the server's own
  const int num_workers_;
  const size_t queue_capacity_;
  TailSampler tail_sampler_;
  util::net::ServerSocket listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_served_{0};
  int64_t start_micros_ = 0;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<util::net::Socket> queue_;
  bool draining_ = false;  // set by Stop() once the accept thread is gone
  size_t queue_peak_ = 0;
  int64_t accepted_ = 0;
};

/// A response whose body is {"error": message}.
std::string JsonErrorResponse(int code, std::string_view reason,
                              std::string_view message);

/// A response carrying `json` compact and newline-terminated.
std::string JsonResponse(const util::JsonValue& json, int code = 200,
                         std::string_view reason = "OK");

}  // namespace tdg::obs

#endif  // TDG_OBS_HTTP_SERVER_H_
