#ifndef TDG_SERVE_COHORT_SERVER_H_
#define TDG_SERVE_COHORT_SERVER_H_

#include <memory>

#include "obs/http_server.h"
#include "obs/tail_sampler.h"
#include "serve/cohort_manager.h"
#include "util/statusor.h"

namespace tdg::serve {

/// The grouping-as-a-service front end (DESIGN.md §13): obs::HttpServer
/// with the cohort route table over a CohortManager. Cohort operations take
/// locks and write journals, so the server runs `num_workers` handler
/// threads and one slow request does not head-of-line-block the monitoring
/// scrapes.
///
/// Endpoints (JSON in, JSON out), on top of the shared /healthz /metrics
/// /statusz /tracez /slowz (see obs/http_server.h; /metrics and /statusz
/// add the `cohorts` and `resident_participants` gauges):
///   GET  /cohorts                    {"cohorts":[summary...]}
///   POST /cohorts                    {"id","config","participants"} → 201
///   GET  /cohorts/<id>               one summary
///   POST /cohorts/<id>/advance       {} → {"gain","round"}
///   GET  /cohorts/<id>/rounds/<t>    the canonical round JSON
///                                    (CohortRoundToJson)
///   POST /cohorts/<id>/join          {"key","skill"}
///   POST /cohorts/<id>/leave         {"key"}
///
/// Error mapping: application errors map NotFound → 404,
/// FailedPrecondition → 409, InvalidArgument → 400, anything else → 500,
/// each with an {"error": message} JSON body.
class CohortServer : public obs::HttpServer {
 public:
  struct Options : obs::HttpServer::Options {
    /// Handler threads. Up to HttpServer::kQueueSlotsPerWorker per worker
    /// wait in the queue when all are busy; beyond that, 503.
    int num_workers = 4;
    /// Tail-sampling knobs for /slowz and /tracez (threshold, 1-in-N
    /// sample, ring capacities).
    obs::TailSampler::Options tail;
  };

  /// Binds, writes the port file, and launches the accept loop + workers.
  /// `manager` is borrowed and must outlive the server.
  static util::StatusOr<std::unique_ptr<CohortServer>> Start(
      CohortManager* manager, Options options);

 private:
  using obs::HttpServer::HttpServer;
};

}  // namespace tdg::serve

#endif  // TDG_SERVE_COHORT_SERVER_H_
