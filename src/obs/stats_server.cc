#include "obs/stats_server.h"

#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

// Scrapes are cheap reads; two workers keep one slow /blackboxz from
// stalling a /metrics scrape.
constexpr int kWorkers = 2;

HttpServer::Routes SweepRoutes(const StatsServer::Options& options) {
  HttpServer::Routes routes;
  // The flight recorder's dump is the sweep's run timeline; scrapes stay
  // out of it and out of the ring slots its workers claim.
  routes.trace_to_blackbox = false;
  const ProgressTracker* progress = options.progress != nullptr
                                        ? options.progress
                                        : &ProgressTracker::Global();
  routes.routes.push_back(
      {"GET", "/progressz", "progressz",
       [progress](auto&&...) {
         return util::net::BuildHttpResponse(
             200, "OK", "application/json",
             progress->Snapshot().ToJson().SerializePretty() + "\n");
       }});
  routes.routes.push_back(
      {"GET", "/blackboxz", "blackboxz",
       [path = options.blackbox_path, tail = options.blackbox_tail](auto&&...) {
         const std::string blackbox_path =
             !path.empty() ? path : FlightRecorder::Global().path();
         if (blackbox_path.empty()) {
           return util::net::BuildHttpResponse(404, "Not Found", "text/plain",
                                               "no flight recorder active\n");
         }
         // Tail the *file*, never the live mapping: a fresh read has no
         // data race with the writers, and the decoder skips in-flight
         // records by magic validation. One JSON object per line, oldest
         // first.
         auto dump = ReadBlackbox(blackbox_path);
         if (!dump.ok()) {
           return util::net::BuildHttpResponse(
               503, "Service Unavailable", "text/plain",
               dump.status().ToString() + "\n");
         }
         const std::size_t total = dump->events.size();
         const std::size_t served =
             tail > 0 && static_cast<std::size_t>(tail) < total
                 ? static_cast<std::size_t>(tail)
                 : total;
         std::string body;
         for (std::size_t i = total - served; i < total; ++i) {
           body += BlackboxEventToJson(dump->events[i]).Serialize();
           body += '\n';
         }
         return util::net::BuildHttpResponse(200, "OK", "application/jsonl",
                                             body);
       }});
  // Liveness alone is not health: stale (writer stopped beating) or torn
  // (crashed host mid-write) heartbeats degrade the probe so an
  // orchestrator restarts or reschedules the worker; "missing" stays ok.
  routes.health_problems = [paths = options.heartbeat_paths] {
    std::string problems;
    for (const HeartbeatStatus& status : CollectHeartbeats(
             paths, UnixMillis(), StatsServer::kHeartbeatStaleAfterMs)) {
      if (status.state == "stale" || status.state == "torn") {
        problems += util::StrFormat("%s: %s\n", status.path.c_str(),
                                    status.state.c_str());
      }
    }
    return problems;
  };
  return routes;
}

}  // namespace

util::StatusOr<std::unique_ptr<StatsServer>> StatsServer::Start(
    Options options) {
  std::unique_ptr<StatsServer> server(
      new StatsServer(options, SweepRoutes(options), kWorkers));
  TDG_RETURN_IF_ERROR(server->Listen());
  return server;
}

}  // namespace tdg::obs
