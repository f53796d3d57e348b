#include "serve/cohort_server.h"

#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/string_util.h"

namespace tdg::serve {
namespace {

using Args = std::vector<std::string>;
using Request = util::net::HttpRequest;

/// Application-level status → HTTP. (Transport-level read failures go
/// through util::net::BuildHttpErrorResponse instead.)
std::string AppErrorResponse(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kNotFound:
      return obs::JsonErrorResponse(404, "Not Found", status.message());
    case util::StatusCode::kFailedPrecondition:
      return obs::JsonErrorResponse(409, "Conflict", status.message());
    case util::StatusCode::kInvalidArgument:
      return obs::JsonErrorResponse(400, "Bad Request", status.message());
    default:
      return obs::JsonErrorResponse(500, "Internal Server Error",
                                    status.message());
  }
}

util::JsonValue SummaryJson(const CohortManager::Summary& summary) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("config", summary.config.ToJson());
  json.Set("id", summary.id);
  json.Set("participants", summary.participants);
  json.Set("rounds", summary.rounds);
  return json;
}

std::string ListCohorts(CohortManager* manager, const Request&, const Args&) {
  util::JsonValue cohorts = util::JsonValue::MakeArray();
  for (const std::string& id : manager->CohortIds()) {
    auto summary = manager->GetSummary(id);
    if (summary.ok()) cohorts.Append(SummaryJson(*summary));
  }
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("cohorts", std::move(cohorts));
  return obs::JsonResponse(json);
}

std::string Enroll(CohortManager* manager, const Request& request,
                   const Args&) {
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
      manager->Enroll((*id)->AsString(), *config, *participants);
  if (!enrolled.ok()) return AppErrorResponse(enrolled);
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("id", (*id)->AsString());
  json.Set("participants", static_cast<long long>(participants->size()));
  return obs::JsonResponse(json, 201, "Created");
}

std::string Summary(CohortManager* manager, const Request&,
                    const Args& args) {
  auto summary = manager->GetSummary(args[0]);
  if (!summary.ok()) return AppErrorResponse(summary.status());
  return obs::JsonResponse(SummaryJson(*summary));
}

std::string Advance(CohortManager* manager, const Request&,
                    const Args& args) {
  auto gain = manager->Advance(args[0]);
  if (!gain.ok()) return AppErrorResponse(gain.status());
  auto summary = manager->GetSummary(args[0]);
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("gain", *gain);
  json.Set("round", summary.ok() ? summary->rounds - 1 : -1);
  return obs::JsonResponse(json);
}

std::string Round(CohortManager* manager, const Request&, const Args& args) {
  auto round_index = util::ParseInt(args[1]);
  if (!round_index.ok() || *round_index < 0 || *round_index > 1000000000) {
    return AppErrorResponse(util::Status::InvalidArgument(
        "round index must be a non-negative integer"));
  }
  auto round = manager->GetRound(args[0], static_cast<int>(*round_index));
  if (!round.ok()) return AppErrorResponse(round.status());
  return obs::JsonResponse(
      CohortRoundToJson(*round, static_cast<int>(*round_index)));
}

/// POST /cohorts/<id>/join {"key","skill"} or /leave {"key"}.
std::string Churn(CohortManager* manager, const Request& request,
                  const Args& args) {
  const std::string& id = args[0];
  auto body = util::JsonValue::Parse(request.body);
  if (!body.ok()) return AppErrorResponse(body.status());
  auto key = body->GetField("key");
  if (!key.ok() || !(*key)->is_string()) {
    return AppErrorResponse(
        util::Status::InvalidArgument("body needs a string 'key'"));
  }
  util::Status applied = util::Status::OK();
  if (util::EndsWith(request.path, "/join")) {
    auto skill = body->GetField("skill");
    if (!skill.ok() || !(*skill)->is_number()) {
      return AppErrorResponse(util::Status::InvalidArgument(
          "join body needs a number 'skill'"));
    }
    applied = manager->Join(id, (*key)->AsString(), (*skill)->AsNumber());
  } else {
    applied = manager->Leave(id, (*key)->AsString());
  }
  if (!applied.ok()) return AppErrorResponse(applied);
  auto summary = manager->GetSummary(id);
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("id", id);
  json.Set("participants", summary.ok() ? summary->participants : -1);
  return obs::JsonResponse(json);
}

}  // namespace

util::StatusOr<std::unique_ptr<CohortServer>> CohortServer::Start(
    CohortManager* manager, Options options) {
  if (manager == nullptr) {
    return util::Status::InvalidArgument(
        "CohortServer needs a CohortManager");
  }
  using Handler = std::string (*)(CohortManager*, const Request&,
                                  const Args&);
  auto bind = [manager](Handler handler) -> obs::HttpServer::Handler {
    return [manager, handler](const Request& request, const Args& args) {
      return handler(manager, request, args);
    };
  };
  Routes routes;
  routes.routes = {
      {"GET", "/cohorts", "cohorts", bind(ListCohorts)},
      {"POST", "/cohorts", "cohorts", bind(Enroll)},
      {"GET", "/cohorts/*", "cohort", bind(Summary)},
      {"POST", "/cohorts/*/advance", "advance", bind(Advance)},
      {"GET", "/cohorts/*/rounds/*", "round", bind(Round)},
      {"POST", "/cohorts/*/join", "join", bind(Churn)},
      {"POST", "/cohorts/*/leave", "leave", bind(Churn)},
  };
  routes.gauges = [manager] {
    return std::vector<std::pair<std::string, double>>{
        {"cohorts", static_cast<double>(manager->num_cohorts())},
        {"resident_participants",
         static_cast<double>(manager->total_participants())}};
  };
  std::unique_ptr<CohortServer> server(new CohortServer(
      options, std::move(routes), options.num_workers, options.tail));
  TDG_RETURN_IF_ERROR(server->Listen());
  return server;
}

}  // namespace tdg::serve
