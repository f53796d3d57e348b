#include "obs/heartbeat.h"

#include <chrono>
#include <utility>

#include "util/file_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tdg::obs {
namespace {

util::StatusOr<double> RequireNumber(const util::JsonValue& json,
                                     const char* key) {
  auto field = json.GetField(key);
  if (!field.ok() || !(*field)->is_number()) {
    return util::Status::InvalidArgument(
        util::StrFormat("heartbeat field \"%s\" missing or not a number",
                        key));
  }
  return (*field)->AsNumber();
}

}  // namespace

long long UnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

util::JsonValue Heartbeat::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("schema", schema);
  json.Set("name", name);
  json.Set("shard_index", shard_index);
  json.Set("shard_count", shard_count);
  json.Set("cells_total", cells_total);
  json.Set("shard_cells", shard_cells);
  json.Set("cells_done", cells_done);
  json.Set("pid", pid);
  json.Set("updated_unix_ms", updated_unix_ms);
  json.Set("last_cell_unix_ms", last_cell_unix_ms);
  json.Set("cells_per_second", cells_per_second);
  return json;
}

util::StatusOr<Heartbeat> Heartbeat::FromJson(const util::JsonValue& json) {
  if (!json.is_object()) {
    return util::Status::InvalidArgument("heartbeat must be a JSON object");
  }
  auto schema = json.GetField("schema");
  if (!schema.ok() || !(*schema)->is_string()) {
    return util::Status::InvalidArgument("heartbeat missing \"schema\"");
  }
  if ((*schema)->AsString() != kHeartbeatSchema) {
    return util::Status::InvalidArgument("unsupported heartbeat schema: " +
                                         (*schema)->AsString());
  }
  Heartbeat heartbeat;
  auto name = json.GetField("name");
  if (name.ok() && (*name)->is_string()) heartbeat.name = (*name)->AsString();
  TDG_ASSIGN_OR_RETURN(double shard_index,
                       RequireNumber(json, "shard_index"));
  TDG_ASSIGN_OR_RETURN(double shard_count,
                       RequireNumber(json, "shard_count"));
  TDG_ASSIGN_OR_RETURN(double cells_total,
                       RequireNumber(json, "cells_total"));
  TDG_ASSIGN_OR_RETURN(double shard_cells,
                       RequireNumber(json, "shard_cells"));
  TDG_ASSIGN_OR_RETURN(double cells_done, RequireNumber(json, "cells_done"));
  TDG_ASSIGN_OR_RETURN(double pid, RequireNumber(json, "pid"));
  TDG_ASSIGN_OR_RETURN(double updated, RequireNumber(json, "updated_unix_ms"));
  TDG_ASSIGN_OR_RETURN(double last_cell,
                       RequireNumber(json, "last_cell_unix_ms"));
  TDG_ASSIGN_OR_RETURN(heartbeat.cells_per_second,
                       RequireNumber(json, "cells_per_second"));
  heartbeat.shard_index = static_cast<int>(shard_index);
  heartbeat.shard_count = static_cast<int>(shard_count);
  heartbeat.cells_total = static_cast<long long>(cells_total);
  heartbeat.shard_cells = static_cast<long long>(shard_cells);
  heartbeat.cells_done = static_cast<long long>(cells_done);
  heartbeat.pid = static_cast<long long>(pid);
  heartbeat.updated_unix_ms = static_cast<long long>(updated);
  heartbeat.last_cell_unix_ms = static_cast<long long>(last_cell);
  return heartbeat;
}

util::Status WriteHeartbeat(const std::string& path,
                            const Heartbeat& heartbeat) {
  return util::WriteFileAtomic(path, heartbeat.ToJson().Serialize() + "\n");
}

util::StatusOr<Heartbeat> ReadHeartbeat(const std::string& path) {
  if (!util::FileExists(path)) {
    return util::Status::NotFound("no heartbeat at " + path);
  }
  TDG_ASSIGN_OR_RETURN(std::string content, util::ReadFileToString(path));
  auto json = util::JsonValue::Parse(util::Trim(content));
  if (!json.ok()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: unparseable heartbeat (torn write?): %s", path.c_str(),
        json.status().message().c_str()));
  }
  return Heartbeat::FromJson(json.value());
}

void HeartbeatWriter::Start(std::string path, int period_ms,
                            std::function<Heartbeat()> sampler) {
  Stop();
  path_ = std::move(path);
  sampler_ = std::move(sampler);
  stop_ = false;
  // First beat lands before any cell runs, so the watcher sees the shard
  // as soon as it starts. Write errors are deliberately swallowed: a
  // monitoring hiccup must never kill the experiment it watches.
  (void)WriteHeartbeat(path_, sampler_());
  thread_ = std::thread([this, period_ms] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      wake_.wait_for(lock, std::chrono::milliseconds(period_ms),
                     [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      (void)WriteHeartbeat(path_, sampler_());
      lock.lock();
    }
  });
}

void HeartbeatWriter::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // Final beat captures the end state (e.g. cells_done == shard_cells).
  (void)WriteHeartbeat(path_, sampler_());
}

std::vector<HeartbeatStatus> CollectHeartbeats(
    const std::vector<std::string>& paths, long long now_unix_ms,
    long long stale_after_ms) {
  std::vector<HeartbeatStatus> fleet;
  fleet.reserve(paths.size());
  for (const std::string& path : paths) {
    HeartbeatStatus status;
    status.path = path;
    auto heartbeat = ReadHeartbeat(path);
    if (!heartbeat.ok()) {
      status.present = util::FileExists(path);
      status.state = status.present ? "torn" : "missing";
      fleet.push_back(std::move(status));
      continue;
    }
    status.present = true;
    status.parseable = true;
    status.heartbeat = std::move(heartbeat).value();
    status.age_seconds =
        static_cast<double>(now_unix_ms -
                            status.heartbeat.updated_unix_ms) /
        1e3;
    if (status.heartbeat.cells_done >= status.heartbeat.shard_cells &&
        status.heartbeat.shard_cells > 0) {
      status.state = "done";
    } else if (now_unix_ms - status.heartbeat.updated_unix_ms >
               stale_after_ms) {
      status.state = "stale";
    } else {
      status.state = "running";
    }
    fleet.push_back(std::move(status));
  }
  return fleet;
}

std::string RenderHeartbeatTable(
    const std::vector<HeartbeatStatus>& fleet) {
  util::TablePrinter table(
      {"shard", "state", "cells", "%", "cells/s", "beat age", "file"});
  long long done = 0;
  long long owned = 0;
  double live_rate = 0;
  for (const HeartbeatStatus& status : fleet) {
    if (!status.parseable) {
      table.AddRow({"?", status.state, "-", "-", "-", "-", status.path});
      continue;
    }
    const Heartbeat& heartbeat = status.heartbeat;
    done += heartbeat.cells_done;
    owned += heartbeat.shard_cells;
    if (status.state == "running") live_rate += heartbeat.cells_per_second;
    const double percent =
        heartbeat.shard_cells > 0
            ? 100.0 * static_cast<double>(heartbeat.cells_done) /
                  static_cast<double>(heartbeat.shard_cells)
            : 0.0;
    table.AddRow({util::StrFormat("%d/%d", heartbeat.shard_index,
                                  heartbeat.shard_count),
                  status.state,
                  util::StrFormat("%lld/%lld", heartbeat.cells_done,
                                  heartbeat.shard_cells),
                  util::FormatDouble(percent, 1),
                  util::FormatDouble(heartbeat.cells_per_second, 2),
                  util::StrFormat("%.1fs", status.age_seconds),
                  status.path});
  }
  std::string out = table.ToString();
  const long long remaining = owned - done;
  std::string eta = "?";
  if (remaining == 0 && owned > 0) {
    eta = "done";
  } else if (live_rate > 0) {
    eta = util::StrFormat("%.0fs", static_cast<double>(remaining) /
                                       live_rate);
  }
  out += util::StrFormat("fleet: %lld/%lld cells done, eta %s\n", done,
                         owned, eta.c_str());
  return out;
}

}  // namespace tdg::obs
