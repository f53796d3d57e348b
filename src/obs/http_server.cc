#include "obs/http_server.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "obs/request_context.h"
#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

// Poll granularity of the accept loop — the latency ceiling on Stop().
constexpr int kAcceptPollMs = 100;

/// Whether the split `path` fits `pattern`; '*' segments go to `args`.
bool MatchPath(std::string_view pattern, const std::vector<std::string>& path,
               std::vector<std::string>* args) {
  const std::vector<std::string> want = util::Split(pattern, '/');
  if (want.size() != path.size()) return false;
  args->clear();
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == "*" && !path[i].empty()) {
      args->push_back(path[i]);
    } else if (want[i] != path[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string JsonErrorResponse(int code, std::string_view reason,
                              std::string_view message) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("error", std::string(message));
  return JsonResponse(json, code, reason);
}

std::string JsonResponse(const util::JsonValue& json, int code,
                         std::string_view reason) {
  return util::net::BuildHttpResponse(code, reason, "application/json",
                                      json.Serialize() + "\n");
}

HttpServer::HttpServer(Options options, Routes routes, int num_workers,
                       TailSampler::Options tail)
    : options_(std::move(options)),
      routes_(std::move(routes)),
      num_workers_(num_workers),
      queue_capacity_(kQueueSlotsPerWorker *
                      static_cast<size_t>(std::max(num_workers, 1))),
      tail_sampler_(tail) {
  routes_.routes.insert(
      routes_.routes.begin(),
      {{"GET", "/healthz", "healthz", [this](auto&&...) { return Healthz(); }},
       {"GET", "/metrics", "metrics", [this](auto&&...) { return Metrics(); }},
       {"GET", "/statusz", "statusz", [this](auto&&...) { return Statusz(); }},
       {"GET", "/tracez", "tracez",
        [this](auto&&...) {
          return JsonResponse(tail_sampler_.RecentTracesJson());
        }},
       {"GET", "/slowz", "slowz", [this](auto&&...) {
          return util::net::BuildHttpResponse(200, "OK", "application/x-ndjson",
                                              tail_sampler_.SlowTracesJsonl());
        }}});
}

util::Status HttpServer::Listen() {
  if (num_workers_ < 1) {
    return util::Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options_.manifest.git_sha.empty()) {
    options_.manifest = RunManifest::Capture();
  }
  TDG_ASSIGN_OR_RETURN(listener_,
                       util::net::ServerSocket::Listen(options_.port));
  if (!options_.port_file.empty()) {
    TDG_RETURN_IF_ERROR(util::WriteFileAtomic(
        options_.port_file, std::to_string(listener_.port()) + "\n"));
  }
  start_micros_ = util::MonotonicMicros();
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::OK();
}

HttpServer::QueueStats HttpServer::queue_stats() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return {queue_capacity_, queue_.size(), queue_peak_, accepted_};
}

void HttpServer::Stop() {
  if (!accept_thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  accept_thread_.join();
  {
    // Workers exit once the accept thread is gone and the queue is empty,
    // so every connection it accepted gets a response.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  listener_.Close();
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto connection = listener_.AcceptWithTimeout(kAcceptPollMs);
    if (!connection.ok()) return;  // listener broke; workers drain and stop
    if (!connection->is_open()) continue;  // poll timeout — check stop flag
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      ++accepted_;
      if (queue_.size() < queue_capacity_) {
        queue_.push_back(std::move(connection).value());
        queue_peak_ = std::max(queue_peak_, queue_.size());
        queued = true;
      }
    }
    if (queued) {
      queue_cv_.notify_one();
    } else {
      Serve(std::move(connection).value(), /*shed=*/true);
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    util::net::Socket connection;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;
      connection = std::move(queue_.front());
      queue_.pop_front();
    }
    Serve(std::move(connection), /*shed=*/false);
  }
}

void HttpServer::Serve(util::net::Socket connection, bool shed) {
  // One trace per accepted connection: the context rides a thread-local
  // down through the handler (phase spans) and its id is stamped into
  // every flight-recorder record the request emits, so a /tracez id
  // resolves to the request's causal path in a tdg_blackbox dump.
  RequestContext context;
  context.trace_id = routes_.trace_to_blackbox ? MintTraceId() : 0;
  ScopedRequestContext bind_context(context);
  std::string response;
  if (shed) {
    // Every worker busy and every slot taken: answer now, unread, rather
    // than after the backlog.
    context.endpoint = "shed";
    response = util::net::BuildHttpResponse(
        503, "Service Unavailable", "application/json",
        "{\"error\":\"server overloaded; retry shortly\"}\n",
        "Retry-After: 1\r\n");
  } else {
    util::StatusOr<util::net::HttpRequest> request = [&] {
      ScopedRequestPhase parse_phase(RequestPhase::kParse);
      return util::net::ReadHttpRequest(connection, options_.limits);
    }();
    // Transport/limit rejections (408/413/400/...) are requests too: they
    // get the "unreadable" endpoint label and flow through the same
    // telemetry as routed traffic.
    context.endpoint = "unreadable";
    response = request.ok()
                   ? Dispatch(*request, &context.endpoint)
                   : util::net::BuildHttpErrorResponse(request.status());
  }
  // Counted before the write, so a client that read its response sees it.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  {
    ScopedRequestPhase serialize_phase(RequestPhase::kSerialize);
    (void)connection.WriteAll(response);  // peer may have hung up
    connection.CloseAfterResponse();
  }
  auto code = util::net::HttpStatusCode(response);
  const int status = code.ok() ? *code : 500;
  FinishRequest(context, status);
  tail_sampler_.Offer(context);
  // Rolling windows are product surface (/statusz, servectl stats), like
  // the tail sampler: explicit registry API, alive even under
  // TDG_OBS_DISABLED. Label sets are bounded by the route tables, so
  // dynamic names cannot grow the registry without bound.
  MetricsRegistry::Global()
      .GetWindowed("serve/latency_seconds/" + context.endpoint,
                   /*output_scale=*/1e-6)
      .Record(static_cast<double>(context.total_micros),
              /*error=*/status >= 400);
  TDG_OBS_COUNTER_ADD("serve/requests", 1);
#if !defined(TDG_OBS_DISABLED)
  MetricsRegistry::Global()
      .GetHistogram("serve/latency/" + context.endpoint)
      .Record(static_cast<double>(context.total_micros));
  const int klass = status / 100;
  MetricsRegistry::Global()
      .GetCounter(klass == 2 || klass == 4 || klass == 5
                      ? util::StrFormat("serve/responses/%dxx", klass)
                      : std::string("serve/responses/other"))
      .Add(1);
#endif
}

std::string HttpServer::Dispatch(const util::net::HttpRequest& request,
                                 std::string* endpoint) {
  *endpoint = "other";
  const std::string method =
      request.method == "HEAD" ? "GET" : request.method;
  const std::vector<std::string> path = util::Split(request.path, '/');
  std::vector<std::string> args;
  bool known_path = false;
  for (const Route& route : routes_.routes) {
    if (!MatchPath(route.path, path, &args)) continue;
    known_path = true;
    *endpoint = route.endpoint;
    if (route.method == method) return route.handler(request, args);
  }
  if (known_path) {
    return JsonErrorResponse(405, "Method Not Allowed",
                             "method not allowed on this endpoint");
  }
  return JsonErrorResponse(404, "Not Found", "no such endpoint");
}

std::string HttpServer::Healthz() const {
  const std::string problems =
      routes_.health_problems ? routes_.health_problems() : std::string();
  if (problems.empty()) {
    return util::net::BuildHttpResponse(200, "OK", "text/plain", "ok\n");
  }
  return util::net::BuildHttpResponse(503, "Service Unavailable",
                                      "text/plain", "degraded\n" + problems);
}

std::string HttpServer::Metrics() const {
  // Refresh the process gauges (uptime, peak RSS) so every scrape carries
  // them. Gauge::Set is a no-op under SetMetricsEnabled(false) — exactly
  // the runs that demand byte-stable outputs.
  RefreshProcessGauges();
#if !defined(TDG_OBS_DISABLED)
  if (routes_.gauges) {
    for (const auto& [name, value] : routes_.gauges()) {
      MetricsRegistry::Global().GetGauge("serve/" + name).Set(value);
    }
  }
#endif
  return util::net::BuildHttpResponse(
      200, "OK", kPrometheusContentType,
      RenderPrometheusText(MetricsRegistry::Global().Snapshot()));
}

std::string HttpServer::Statusz() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("manifest", options_.manifest.ToJson());
  json.Set("uptime_seconds",
           static_cast<double>(util::MonotonicMicros() - start_micros_) /
               1e6);
  json.Set("peak_rss_bytes", static_cast<long long>(ProcessPeakRssBytes()));
  json.Set("requests_served", static_cast<long long>(requests_served()));
  json.Set("port", port());
  if (routes_.gauges) {
    for (const auto& [name, value] : routes_.gauges()) json.Set(name, value);
  }
  // Rolling latency windows per endpoint: {"advance": {"1m": {qps, p50,
  // p95, p99, error_rate, count}, ...}, ...}. Latencies in seconds.
  util::JsonValue windows_json = util::JsonValue::MakeObject();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  constexpr std::string_view kWindowedPrefix = "serve/latency_seconds/";
  for (const auto& [name, stats] : snapshot.windowed) {
    if (!util::StartsWith(name, kWindowedPrefix)) continue;
    util::JsonValue per_endpoint = util::JsonValue::MakeObject();
    for (const WindowStats& w : stats.windows) {
      util::JsonValue entry = util::JsonValue::MakeObject();
      entry.Set("count", static_cast<long long>(w.count));
      entry.Set("qps", w.qps);
      entry.Set("error_rate", w.error_rate);
      entry.Set("p50", w.p50);
      entry.Set("p95", w.p95);
      entry.Set("p99", w.p99);
      per_endpoint.Set(w.label, std::move(entry));
    }
    windows_json.Set(name.substr(kWindowedPrefix.size()),
                     std::move(per_endpoint));
  }
  json.Set("windows", std::move(windows_json));
  return JsonResponse(json);
}

}  // namespace tdg::obs
