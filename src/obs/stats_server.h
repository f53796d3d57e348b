#ifndef TDG_OBS_STATS_SERVER_H_
#define TDG_OBS_STATS_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/http_server.h"
#include "obs/progress.h"
#include "util/statusor.h"

namespace tdg::obs {

/// The sweep's live-monitoring server (DESIGN.md §9): obs::HttpServer with
/// the sweep's route table. Off by default; when not started it costs
/// nothing, and when started it only *reads* the metrics registry /
/// progress tracker, so sweep outputs are byte-identical with and without
/// it (asserted by StatsServerTest.SweepOutputsAreByteIdenticalWithServerOn).
///
/// On top of the shared endpoints (/healthz /metrics /statusz /tracez
/// /slowz, see http_server.h):
///   /healthz    503 "degraded" when any registered shard heartbeat is
///               stale or torn
///   /progressz  JSON: ProgressTracker snapshot (cells done/total, EWMA
///               latency, ETA, current grid coordinates)
///   /blackboxz  JSONL tail of the flight recorder's live dump (see
///               obs/flight_recorder.h)
class StatsServer : public HttpServer {
 public:
  /// A heartbeat updated longer ago than this degrades /healthz.
  static constexpr long long kHeartbeatStaleAfterMs = 15000;

  struct Options : HttpServer::Options {
    /// Progress source for /progressz; the global tracker when null.
    const ProgressTracker* progress = nullptr;
    /// Heartbeat files /healthz folds into its verdict: "ok" while every
    /// present heartbeat is fresh, "degraded" (HTTP 503) once any is stale
    /// or torn. A heartbeat that does not exist yet counts as ok — the
    /// shard may simply not have started. Empty (the default) keeps
    /// /healthz unconditional.
    std::vector<std::string> heartbeat_paths;
    /// Dump file tailed by /blackboxz; the global FlightRecorder's active
    /// path when empty.
    std::string blackbox_path;
    /// Events served per /blackboxz request (the newest ones).
    int blackbox_tail = 256;
  };

  /// Binds, writes the port file, and launches the server.
  static util::StatusOr<std::unique_ptr<StatsServer>> Start(
      Options options);

 private:
  using HttpServer::HttpServer;
};

}  // namespace tdg::obs

#endif  // TDG_OBS_STATS_SERVER_H_
