#include "serve/cohort_server.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::serve {
namespace {

// Poll granularity of the accept loop — the latency ceiling on Stop().
constexpr int kAcceptPollMs = 100;

std::string JsonBody(const util::JsonValue& json) {
  return json.Serialize() + "\n";
}

std::string OkJson(const util::JsonValue& json) {
  return util::net::BuildHttpResponse(200, "OK", "application/json",
                                      JsonBody(json));
}

util::JsonValue ErrorJson(const util::Status& status) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("error", status.message());
  return json;
}

/// Application-level status → HTTP. (Transport-level read failures go
/// through util::net::BuildHttpErrorResponse instead.)
std::string AppErrorResponse(const util::Status& status) {
  int code = 500;
  const char* reason = "Internal Server Error";
  switch (status.code()) {
    case util::StatusCode::kNotFound:
      code = 404;
      reason = "Not Found";
      break;
    case util::StatusCode::kFailedPrecondition:
      code = 409;
      reason = "Conflict";
      break;
    case util::StatusCode::kInvalidArgument:
      code = 400;
      reason = "Bad Request";
      break;
    default:
      break;
  }
  return util::net::BuildHttpResponse(code, reason, "application/json",
                                      JsonBody(ErrorJson(status)));
}

std::string MethodNotAllowed() {
  return util::net::BuildHttpResponse(
      405, "Method Not Allowed", "application/json",
      JsonBody(ErrorJson(util::Status::InvalidArgument(
          "method not allowed on this endpoint"))));
}

util::JsonValue SummaryJson(const CohortManager::Summary& summary) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("config", summary.config.ToJson());
  json.Set("id", summary.id);
  json.Set("participants", summary.participants);
  json.Set("rounds", summary.rounds);
  return json;
}

/// Splits "/cohorts/<id>[/<verb>[/<arg>]]" into its path segments after
/// "/cohorts/". Returns false when the path is not under /cohorts/.
bool SplitCohortPath(std::string_view path,
                     std::vector<std::string>* segments) {
  constexpr std::string_view kPrefix = "/cohorts/";
  if (path.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view rest = path.substr(kPrefix.size());
  segments->clear();
  while (!rest.empty()) {
    const size_t slash = rest.find('/');
    if (slash == std::string_view::npos) {
      segments->push_back(std::string(rest));
      break;
    }
    segments->push_back(std::string(rest.substr(0, slash)));
    rest = rest.substr(slash + 1);
  }
  // "/cohorts//x" produces an empty segment; treat as not found.
  for (const std::string& segment : *segments) {
    if (segment.empty()) return false;
  }
  return !segments->empty();
}

}  // namespace

util::StatusOr<std::unique_ptr<CohortServer>> CohortServer::Start(
    CohortManager* manager, Options options) {
  if (manager == nullptr) {
    return util::Status::InvalidArgument(
        "CohortServer needs a CohortManager");
  }
  if (options.num_workers < 1) {
    return util::Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.manifest.git_sha.empty()) {
    options.manifest = obs::RunManifest::Capture();
  }
  std::unique_ptr<CohortServer> server(
      new CohortServer(manager, std::move(options)));
  TDG_ASSIGN_OR_RETURN(
      server->listener_,
      util::net::ServerSocket::Listen(server->options_.port));
  if (!server->options_.port_file.empty()) {
    TDG_RETURN_IF_ERROR(util::WriteFileAtomic(
        server->options_.port_file,
        std::to_string(server->listener_.port()) + "\n"));
  }
  server->start_micros_ = util::MonotonicMicros();
  server->workers_.reserve(static_cast<size_t>(server->options_.num_workers));
  for (int i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  server->accept_thread_ =
      std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

void CohortServer::Stop() {
  if (!accept_thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  listener_.Close();
}

void CohortServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto connection = listener_.AcceptWithTimeout(kAcceptPollMs);
    if (!connection.ok()) return;  // listener broke; workers drain and stop
    if (!connection->is_open()) continue;  // poll timeout — check stop flag
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(std::move(connection).value());
    }
    queue_cv_.notify_one();
  }
}

void CohortServer::WorkerLoop() {
  for (;;) {
    util::net::Socket connection;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stop_.load(std::memory_order_relaxed);
      });
      // Drain what was accepted before stopping: every accepted client
      // gets a response even across shutdown.
      if (queue_.empty()) return;
      connection = std::move(queue_.front());
      queue_.pop_front();
    }
    HandleConnection(std::move(connection));
  }
}

void CohortServer::HandleConnection(util::net::Socket connection) {
  // One trace per accepted connection: the context rides a thread-local
  // down through CohortManager/Cohort (phase spans) and its id is stamped
  // into every flight-recorder record the request emits, so a /tracez id
  // resolves to the request's causal path in a tdg_blackbox dump.
  obs::RequestContext context;
  context.trace_id = obs::MintTraceId();
  obs::ScopedRequestContext bind_context(context);

  util::StatusOr<util::net::HttpRequest> request = [&] {
    obs::ScopedRequestPhase parse_phase(obs::RequestPhase::kParse);
    return util::net::ReadHttpRequest(connection, options_.limits);
  }();
  std::string endpoint_label = "other";
  std::string response;
  if (!request.ok()) {
    // Transport/limit rejections (408/413/400/...) are requests too: they
    // get the "unreadable" endpoint label and flow through the same
    // latency histograms and response-class counters as routed traffic.
    response = util::net::BuildHttpErrorResponse(request.status());
    endpoint_label = "unreadable";
  } else {
    response = Route(*request, &endpoint_label);
  }
  {
    obs::ScopedRequestPhase serialize_phase(obs::RequestPhase::kSerialize);
    (void)connection.WriteAll(response);
    connection.Close();
  }

  requests_served_.fetch_add(1, std::memory_order_relaxed);
  auto code = util::net::HttpStatusCode(response);
  const int status = code.ok() ? *code : 500;
  context.endpoint = endpoint_label;
  obs::FinishRequest(context, status);
  tail_sampler_.Offer(context);
  // Rolling windows are product surface (/statusz, servectl stats), like
  // the tail sampler: explicit registry API, alive even under
  // TDG_OBS_DISABLED. Label sets are bounded by the router, so dynamic
  // names cannot grow the registry without bound.
  obs::MetricsRegistry::Global()
      .GetWindowed("serve/latency_seconds/" + endpoint_label,
                   /*output_scale=*/1e-6)
      .Record(static_cast<double>(context.total_micros),
              /*error=*/status >= 400);
  TDG_OBS_COUNTER_ADD("serve/requests", 1);
#if !defined(TDG_OBS_DISABLED)
  // Dynamic metric names need the registry API (the macros cache one
  // handle per site).
  obs::MetricsRegistry::Global()
      .GetHistogram("serve/latency/" + endpoint_label)
      .Record(static_cast<double>(context.total_micros));
  const int klass = status / 100;
  if (klass == 2) {
    TDG_OBS_COUNTER_ADD("serve/responses/2xx", 1);
  } else if (klass == 4) {
    TDG_OBS_COUNTER_ADD("serve/responses/4xx", 1);
  } else if (klass == 5) {
    TDG_OBS_COUNTER_ADD("serve/responses/5xx", 1);
  } else {
    TDG_OBS_COUNTER_ADD("serve/responses/other", 1);
  }
#endif
}

std::string CohortServer::Route(const util::net::HttpRequest& request,
                                std::string* endpoint_label) {
  const std::string& method = request.method;
  const std::string& path = request.path;
  const bool get = method == "GET" || method == "HEAD";
  const bool post = method == "POST";
  if (!get && !post) {
    *endpoint_label = "other";
    return MethodNotAllowed();
  }

  if (path == "/healthz") {
    *endpoint_label = "healthz";
    if (!get) return MethodNotAllowed();
    return util::net::BuildHttpResponse(200, "OK", "text/plain", "ok\n");
  }

  if (path == "/metrics") {
    *endpoint_label = "metrics";
    if (!get) return MethodNotAllowed();
    obs::RefreshProcessGauges();
    TDG_OBS_GAUGE_SET("serve/cohorts",
                      static_cast<double>(manager_->num_cohorts()));
    TDG_OBS_GAUGE_SET(
        "serve/resident_participants",
        static_cast<double>(manager_->total_participants()));
    return util::net::BuildHttpResponse(
        200, "OK", "text/plain; version=0.0.4",
        obs::RenderPrometheusText(
            obs::MetricsRegistry::Global().Snapshot()));
  }

  if (path == "/statusz") {
    *endpoint_label = "statusz";
    if (!get) return MethodNotAllowed();
    util::JsonValue json = util::JsonValue::MakeObject();
    json.Set("cohorts", manager_->num_cohorts());
    json.Set("manifest", options_.manifest.ToJson());
    json.Set("requests_served",
             static_cast<long long>(
                 requests_served_.load(std::memory_order_relaxed)));
    json.Set("resident_participants",
             static_cast<long long>(manager_->total_participants()));
    json.Set("uptime_seconds",
             static_cast<double>(util::MonotonicMicros() - start_micros_) /
                 1e6);
    // Rolling latency windows per endpoint: {"advance": {"1m": {qps, p50,
    // p95, p99, error_rate, count}, ...}, ...}. Latencies in seconds.
    util::JsonValue windows_json = util::JsonValue::MakeObject();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    constexpr std::string_view kWindowedPrefix = "serve/latency_seconds/";
    for (const auto& [name, stats] : snapshot.windowed) {
      if (name.substr(0, kWindowedPrefix.size()) != kWindowedPrefix) {
        continue;
      }
      util::JsonValue per_endpoint = util::JsonValue::MakeObject();
      for (const obs::WindowStats& w : stats.windows) {
        util::JsonValue entry = util::JsonValue::MakeObject();
        entry.Set("count", static_cast<long long>(w.count));
        entry.Set("qps", w.qps);
        entry.Set("error_rate", w.error_rate);
        entry.Set("p50", w.p50);
        entry.Set("p95", w.p95);
        entry.Set("p99", w.p99);
        per_endpoint.Set(w.label, std::move(entry));
      }
      windows_json.Set(std::string(name.substr(kWindowedPrefix.size())),
                       std::move(per_endpoint));
    }
    json.Set("windows", std::move(windows_json));
    return OkJson(json);
  }

  if (path == "/tracez") {
    *endpoint_label = "tracez";
    if (!get) return MethodNotAllowed();
    return OkJson(tail_sampler_.RecentTracesJson());
  }

  if (path == "/slowz") {
    *endpoint_label = "slowz";
    if (!get) return MethodNotAllowed();
    return util::net::BuildHttpResponse(200, "OK", "application/x-ndjson",
                                        tail_sampler_.SlowTracesJsonl());
  }

  if (path == "/cohorts") {
    *endpoint_label = "cohorts";
    if (get) {
      util::JsonValue cohorts = util::JsonValue::MakeArray();
      for (const std::string& id : manager_->CohortIds()) {
        auto summary = manager_->GetSummary(id);
        if (summary.ok()) cohorts.Append(SummaryJson(*summary));
      }
      util::JsonValue json = util::JsonValue::MakeObject();
      json.Set("cohorts", std::move(cohorts));
      return OkJson(json);
    }
    // POST /cohorts — enroll.
    auto body = util::JsonValue::Parse(request.body);
    if (!body.ok()) return AppErrorResponse(body.status());
    auto id = body->GetField("id");
    auto config_json = body->GetField("config");
    auto participants_json = body->GetField("participants");
    if (!id.ok() || !(*id)->is_string() || !config_json.ok() ||
        !participants_json.ok()) {
      return AppErrorResponse(util::Status::InvalidArgument(
          "enroll body needs 'id', 'config', and 'participants'"));
    }
    auto config = CohortConfig::FromJson(**config_json);
    if (!config.ok()) return AppErrorResponse(config.status());
    auto participants = ParticipantsFromJson(**participants_json);
    if (!participants.ok()) return AppErrorResponse(participants.status());
    util::Status enrolled =
        manager_->Enroll((*id)->AsString(), *config, *participants);
    if (!enrolled.ok()) return AppErrorResponse(enrolled);
    util::JsonValue json = util::JsonValue::MakeObject();
    json.Set("id", (*id)->AsString());
    json.Set("participants",
             static_cast<long long>(participants->size()));
    return util::net::BuildHttpResponse(201, "Created", "application/json",
                                        JsonBody(json));
  }

  std::vector<std::string> segments;
  if (SplitCohortPath(path, &segments)) {
    const std::string& id = segments[0];
    if (segments.size() == 1) {
      *endpoint_label = "cohort";
      if (!get) return MethodNotAllowed();
      auto summary = manager_->GetSummary(id);
      if (!summary.ok()) return AppErrorResponse(summary.status());
      return OkJson(SummaryJson(*summary));
    }
    if (segments.size() == 2 && segments[1] == "advance") {
      *endpoint_label = "advance";
      if (!post) return MethodNotAllowed();
      auto gain = manager_->Advance(id);
      if (!gain.ok()) return AppErrorResponse(gain.status());
      auto summary = manager_->GetSummary(id);
      util::JsonValue json = util::JsonValue::MakeObject();
      json.Set("gain", *gain);
      json.Set("round", summary.ok() ? summary->rounds - 1 : -1);
      return OkJson(json);
    }
    if (segments.size() == 3 && segments[1] == "rounds") {
      *endpoint_label = "round";
      if (!get) return MethodNotAllowed();
      auto round_index = util::ParseInt(segments[2]);
      if (!round_index.ok() || *round_index < 0 ||
          *round_index > 1000000000) {
        return AppErrorResponse(util::Status::InvalidArgument(
            "round index must be a non-negative integer"));
      }
      auto round = manager_->GetRound(id, static_cast<int>(*round_index));
      if (!round.ok()) return AppErrorResponse(round.status());
      return OkJson(
          CohortRoundToJson(*round, static_cast<int>(*round_index)));
    }
    if (segments.size() == 2 &&
        (segments[1] == "join" || segments[1] == "leave")) {
      *endpoint_label = segments[1];
      if (!post) return MethodNotAllowed();
      auto body = util::JsonValue::Parse(request.body);
      if (!body.ok()) return AppErrorResponse(body.status());
      auto key = body->GetField("key");
      if (!key.ok() || !(*key)->is_string()) {
        return AppErrorResponse(util::Status::InvalidArgument(
            "body needs a string 'key'"));
      }
      util::Status applied = util::Status::OK();
      if (segments[1] == "join") {
        auto skill = body->GetField("skill");
        if (!skill.ok() || !(*skill)->is_number()) {
          return AppErrorResponse(util::Status::InvalidArgument(
              "join body needs a number 'skill'"));
        }
        applied =
            manager_->Join(id, (*key)->AsString(), (*skill)->AsNumber());
      } else {
        applied = manager_->Leave(id, (*key)->AsString());
      }
      if (!applied.ok()) return AppErrorResponse(applied);
      auto summary = manager_->GetSummary(id);
      util::JsonValue json = util::JsonValue::MakeObject();
      json.Set("id", id);
      json.Set("participants",
               summary.ok() ? summary->participants : -1);
      return OkJson(json);
    }
  }

  *endpoint_label = "other";
  return util::net::BuildHttpResponse(
      404, "Not Found", "application/json",
      JsonBody(ErrorJson(util::Status::NotFound("no such endpoint"))));
}

}  // namespace tdg::serve
