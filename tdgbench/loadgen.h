#ifndef TDGBENCH_LOADGEN_H_
#define TDGBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"
#include "util/statusor.h"

namespace tdgbench {

/// One HTTP request, fully serialized before the load starts so the
/// generator does no encoding work while it is timing.
struct Request {
  std::string text;  // request line + headers + body
  std::string body;  // the body alone (enroll bodies are parsed in traces)
};

Request BuildRequest(const std::string& method, const std::string& path,
                     const std::string& body = "");

/// The request that carries `op` (enroll bodies come from the cohort spec).
Request RequestForOp(const Op& op, const Schedule& schedule);

/// The POST /cohorts body for `cohort`.
std::string EnrollBody(const CohortSpec& cohort);

/// What the client saw for one op. Times are microseconds from the start
/// of the load.
struct OpResult {
  int status = 0;        // HTTP status; 0 when the transport failed
  double due_us = 0;     // open loop: arrival time; closed loop: = start_us
  double ready_us = 0;   // max(due, the op's lane became free)
  double start_us = 0;   // connect began
  double end_us = 0;     // response fully read
  double connect_us = 0;
  bool connected = false;  // the connect succeeded
  uint64_t body_hash = 0;  // FNV-1a of the response body
  size_t body_bytes = 0;

  bool ok() const { return status >= 200 && status < 300; }
  /// Latency the user sees: from the due time in an open loop (so a stall
  /// also charges the requests queued behind it), from the send otherwise.
  double latency_us() const { return end_us - due_us; }
  /// Time on the wire and in the server: the ladder's socket rung.
  double service_us() const { return end_us - start_us; }
};

/// Sends one request over a fresh loopback connection (the server closes
/// every connection after one response).
OpResult Send(int port, const Request& request);

struct LoadResult {
  std::vector<OpResult> results;  // indexed like Schedule::ops
  int max_in_flight = 0;
  int64_t connections = 0;  // successful connects
};

/// Drives `schedule` against 127.0.0.1:`port` with `threads` senders.
/// Closed loop: thread i sends lane i's ops back to back. Open loop: each
/// op is sent at its due time by any free thread, but never before the
/// previous op of its lane has returned.
LoadResult RunLoad(int port, const Schedule& schedule,
                   const std::vector<Request>& requests, int threads,
                   bool open_loop);

}  // namespace tdgbench

#endif  // TDGBENCH_LOADGEN_H_
