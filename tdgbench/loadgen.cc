#include "loadgen.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/json.h"
#include "util/net.h"
#include "util/string_util.h"

namespace tdgbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

constexpr int kTimeoutMs = 60000;
constexpr size_t kMaxResponseBytes = 64u << 20;

OpResult Execute(int port, const Request& request, Clock::time_point origin) {
  OpResult result;
  result.start_us = MicrosSince(origin);
  auto socket = tdg::util::net::ConnectLoopback(port, kTimeoutMs);
  result.connect_us = MicrosSince(origin) - result.start_us;
  result.connected = socket.ok();
  if (socket.ok()) {
    // Close with a reset once the response is read. The server has already
    // closed its end, so this only skips TIME_WAIT: one client making tens
    // of thousands of loopback connections a run would otherwise exhaust
    // the ephemeral ports and slow every later connect (and later runs).
    const linger abort_on_close{1, 0};
    setsockopt(socket->fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof(abort_on_close));
  }
  if (socket.ok() && socket->WriteAll(request.text).ok()) {
    auto raw = socket->ReadToEof(kMaxResponseBytes, kTimeoutMs);
    if (raw.ok()) {
      auto code = tdg::util::net::HttpStatusCode(*raw);
      auto body = tdg::util::net::HttpBody(*raw);
      if (code.ok() && body.ok()) {
        result.status = *code;
        result.body_hash = tdg::util::Fnv1a64(*body);
        result.body_bytes = body->size();
      }
    }
  }
  result.end_us = MicrosSince(origin);
  return result;
}

}  // namespace

Request BuildRequest(const std::string& method, const std::string& path,
                     const std::string& body) {
  Request request;
  request.text = tdg::util::StrFormat(
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "Content-Length: %zu\r\nConnection: close\r\n\r\n",
      method.c_str(), path.c_str(), body.size());
  request.text += body;
  request.body = body;
  return request;
}

std::string EnrollBody(const CohortSpec& cohort) {
  tdg::util::JsonValue participants = tdg::util::JsonValue::MakeArray();
  for (const auto& participant : cohort.participants) {
    tdg::util::JsonValue entry = tdg::util::JsonValue::MakeObject();
    entry.Set("key", participant.key);
    entry.Set("skill", participant.skill);
    participants.Append(std::move(entry));
  }
  tdg::util::JsonValue body = tdg::util::JsonValue::MakeObject();
  body.Set("config", cohort.config.ToJson());
  body.Set("id", cohort.id);
  body.Set("participants", std::move(participants));
  return body.Serialize();
}

Request RequestForOp(const Op& op, const Schedule& schedule) {
  const std::string cohort_path =
      op.cohort >= 0
          ? "/cohorts/" + schedule.cohorts[static_cast<size_t>(op.cohort)].id
          : "";
  switch (op.kind) {
    case OpKind::kAdvance:
      return BuildRequest("POST", cohort_path + "/advance", "{}");
    case OpKind::kJoin: {
      tdg::util::JsonValue body = tdg::util::JsonValue::MakeObject();
      body.Set("key", op.key);
      body.Set("skill", op.skill);
      return BuildRequest("POST", cohort_path + "/join", body.Serialize());
    }
    case OpKind::kLeave: {
      tdg::util::JsonValue body = tdg::util::JsonValue::MakeObject();
      body.Set("key", op.key);
      return BuildRequest("POST", cohort_path + "/leave", body.Serialize());
    }
    case OpKind::kSummary:
      return BuildRequest("GET", cohort_path);
    case OpKind::kRoundRead:
      return BuildRequest("GET",
                          cohort_path + "/rounds/" + std::to_string(op.round));
    case OpKind::kMetrics:
      return BuildRequest("GET", "/metrics");
    case OpKind::kEnroll:
      return BuildRequest(
          "POST", "/cohorts",
          EnrollBody(schedule.cohorts[static_cast<size_t>(op.cohort)]));
  }
  return BuildRequest("GET", "/healthz");
}

OpResult Send(int port, const Request& request) {
  return Execute(port, request, Clock::now());
}

LoadResult RunLoad(int port, const Schedule& schedule,
                   const std::vector<Request>& requests, int threads,
                   bool open_loop) {
  const size_t num_ops = schedule.ops.size();
  LoadResult load;
  load.results.resize(num_ops);

  // Per-lane op queues, in schedule order.
  std::vector<std::vector<size_t>> lanes(
      static_cast<size_t>(schedule.num_lanes));
  for (size_t i = 0; i < num_ops; ++i) {
    lanes[static_cast<size_t>(schedule.ops[i].lane)].push_back(i);
  }

  std::mutex mutex;  // guards the lane state below
  std::condition_variable changed;
  std::vector<size_t> next(lanes.size(), 0);
  std::vector<bool> busy(lanes.size(), false);
  std::vector<double> free_at_us(lanes.size(), 0.0);
  int in_flight = 0;

  const Clock::time_point origin = Clock::now();
  auto closed_worker = [&](size_t lane) {
    for (size_t index : lanes[lane]) {
      OpResult result = Execute(port, requests[index], origin);
      result.due_us = result.ready_us = result.start_us;
      load.results[index] = result;
    }
  };
  auto open_worker = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      // The earliest-ready head among idle lanes.
      size_t best = lanes.size();
      double best_ready = 0;
      bool pending = false;
      for (size_t lane = 0; lane < lanes.size(); ++lane) {
        if (next[lane] >= lanes[lane].size()) continue;
        pending = true;
        if (busy[lane]) continue;
        const Op& op = schedule.ops[lanes[lane][next[lane]]];
        const double ready = std::max(op.due_s * 1e6, free_at_us[lane]);
        if (best == lanes.size() || ready < best_ready) {
          best = lane;
          best_ready = ready;
        }
      }
      if (!pending) return;
      if (best == lanes.size()) {
        changed.wait(lock);
        continue;
      }
      const auto ready_time =
          origin + std::chrono::microseconds(static_cast<int64_t>(best_ready));
      if (Clock::now() < ready_time) {
        changed.wait_until(lock, ready_time);
        continue;  // re-evaluate: another lane may have become ready first
      }
      const size_t index = lanes[best][next[best]++];
      busy[best] = true;
      load.max_in_flight = std::max(load.max_in_flight, ++in_flight);
      lock.unlock();

      OpResult result = Execute(port, requests[index], origin);
      result.due_us = schedule.ops[index].due_s * 1e6;
      result.ready_us = best_ready;
      load.results[index] = result;

      lock.lock();
      --in_flight;
      busy[best] = false;
      free_at_us[best] = result.end_us;
      changed.notify_all();
    }
  };

  std::vector<std::thread> senders;
  if (open_loop) {
    for (int t = 0; t < threads; ++t) senders.emplace_back(open_worker);
  } else {
    load.max_in_flight = static_cast<int>(lanes.size());
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      senders.emplace_back(closed_worker, lane);
    }
  }
  for (std::thread& sender : senders) sender.join();
  for (const OpResult& result : load.results) {
    load.connections += result.connected;
  }
  return load;
}

}  // namespace tdgbench
