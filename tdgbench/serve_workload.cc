#include "serve_workload.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/variable_groups.h"
#include "loadgen.h"
#include "proc_stats.h"
#include "random/rng.h"
#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "stats.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tdgbench {
namespace {

using Clock = std::chrono::steady_clock;
using tdg::serve::Cohort;
using tdg::serve::CohortManager;
using tdg::serve::CohortServer;
using tdg::util::JsonValue;

/// A generator that sends later than the schedule asked (beyond waiting
/// for the previous op of its lane) by more than this at p99 has fallen
/// behind: the run is invalid, not slow.
constexpr double kMaxLatenessMsP99 = 10.0;
constexpr int kHealthzProbes = 500;
constexpr size_t kMaxSetups = 11;
/// Set-up repeats at least three times and until its repetitions have taken
/// this long; recovery repeats unless one replay takes long enough that
/// three would exceed it.
constexpr double kRepeatBudgetS = 3.0;
constexpr int kRenderProbes = 20;
/// An op kind enters latency_ms_p10 with at least this many samples in a
/// chunk (serve_small's 1% of /metrics scrapes never does, so every chunk
/// has the same kinds).
constexpr size_t kMinKindSamples = 20;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool IsChurn(OpKind kind) {
  return kind == OpKind::kJoin || kind == OpKind::kLeave;
}

bool Mutates(OpKind kind) {
  return kind == OpKind::kAdvance || IsChurn(kind) || kind == OpKind::kEnroll;
}

std::string Body(const JsonValue& json) { return json.Serialize() + "\n"; }

JsonValue IdCount(const std::string& id, int participants) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("id", id);
  json.Set("participants", participants);
  return json;
}

bool SameState(const Cohort& a, const Cohort& b) {
  return a.id() == b.id() &&
         a.config().ToJson().Serialize() == b.config().ToJson().Serialize() &&
         a.participants() == b.participants() && a.rounds() == b.rounds();
}

double HistoryBytes(const Cohort& cohort) {
  double bytes = 0;
  for (const tdg::serve::CohortRound& round : cohort.rounds()) {
    bytes += sizeof(round) +
             static_cast<double>(round.keys.capacity() * sizeof(std::string) +
                                 round.assignment.capacity() * sizeof(int));
    for (const std::string& key : round.keys) {
      if (key.capacity() > 15) bytes += static_cast<double>(key.capacity() + 1);
    }
  }
  return bytes;
}

double DirBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// A manager and the server over it; the server borrows the manager.
struct Live {
  std::unique_ptr<CohortManager> manager;
  std::unique_ptr<CohortServer> server;  // destroyed first

  void Reset() {
    server.reset();
    manager.reset();
  }
};

tdg::util::StatusOr<Live> StartLive(const std::string& dir) {
  Live live;
  TDG_ASSIGN_OR_RETURN(live.manager, CohortManager::Open({dir}));
  CohortServer::Options options;
  options.num_workers = 4;
  TDG_ASSIGN_OR_RETURN(live.server,
                       CohortServer::Start(live.manager.get(), options));
  return live;
}

/// The run's full operation history: set-up ops (enroll, then one advance,
/// per base cohort) followed by the schedule's load ops.
struct History {
  std::vector<Op> ops;
  std::vector<Request> requests;
  std::vector<OpResult> results;
  size_t setup_ops = 0;
};

History BuildHistory(const Schedule& schedule) {
  History history;
  for (int c = 0; c < schedule.num_base_cohorts; ++c) {
    Op enroll;
    enroll.kind = OpKind::kEnroll;
    enroll.cohort = c;
    history.ops.push_back(enroll);
  }
  for (int c = 0; c < schedule.num_base_cohorts; ++c) {
    Op advance;
    advance.kind = OpKind::kAdvance;
    advance.cohort = c;
    history.ops.push_back(advance);
  }
  history.setup_ops = history.ops.size();
  history.ops.insert(history.ops.end(), schedule.ops.begin(),
                     schedule.ops.end());
  for (size_t i = 0; i < history.ops.size(); ++i) {
    history.ops[i].id = static_cast<int64_t>(i);
    history.requests.push_back(RequestForOp(history.ops[i], schedule));
  }
  history.results.resize(history.ops.size());
  return history;
}

/// Replays each cohort's acknowledged ops offline through serve::Cohort and
/// byte-compares every response the server sent; then compares the final
/// offline state with the live one. Returns the number of wrong-bytes ops;
/// `participant_rounds` receives Σ residents over acked advances.
int64_t CheckAgainstOffline(const Schedule& schedule, const History& history,
                            const CohortManager& live, int threads,
                            Report* report, double* participant_rounds,
                            double* history_mb) {
  std::vector<std::vector<size_t>> by_cohort(schedule.cohorts.size());
  for (size_t i = 0; i < history.ops.size(); ++i) {
    const Op& op = history.ops[i];
    if (op.cohort >= 0 && history.results[i].ok()) {
      by_cohort[static_cast<size_t>(op.cohort)].push_back(i);
    }
  }
  std::mutex mutex;  // guards wrong, the totals and report
  int64_t wrong = 0;
  tdg::util::ThreadPool pool(threads);
  tdg::util::ParallelFor(pool, static_cast<int>(schedule.cohorts.size()),
                         [&](int index) {
    const size_t c = static_cast<size_t>(index);
    if (by_cohort[c].empty()) return;
    int64_t cohort_wrong = 0;
    double cohort_rounds = 0;
    const CohortSpec& spec = schedule.cohorts[c];
    std::optional<Cohort> cohort;
    for (size_t i : by_cohort[c]) {
      const Op& op = history.ops[i];
      std::string expected;
      switch (op.kind) {
        case OpKind::kEnroll: {
          auto created =
              Cohort::Create(spec.id, spec.config, spec.participants);
          if (!created.ok()) break;
          cohort.emplace(std::move(created).value());
          expected = Body(IdCount(spec.id, cohort->num_participants()));
          break;
        }
        case OpKind::kAdvance: {
          if (!cohort) break;
          cohort_rounds += cohort->num_participants();
          auto gain = cohort->Advance();
          if (!gain.ok()) break;
          JsonValue json = JsonValue::MakeObject();
          json.Set("gain", *gain);
          json.Set("round", cohort->rounds_advanced() - 1);
          expected = Body(json);
          break;
        }
        case OpKind::kJoin:
        case OpKind::kLeave: {
          if (!cohort) break;
          const auto status = op.kind == OpKind::kJoin
                                  ? cohort->Join(op.key, op.skill)
                                  : cohort->Leave(op.key);
          if (!status.ok()) break;
          expected = Body(IdCount(spec.id, cohort->num_participants()));
          break;
        }
        case OpKind::kSummary: {
          if (!cohort) break;
          JsonValue json = JsonValue::MakeObject();
          json.Set("config", cohort->config().ToJson());
          json.Set("id", spec.id);
          json.Set("participants", cohort->num_participants());
          json.Set("rounds", cohort->rounds_advanced());
          expected = Body(json);
          break;
        }
        case OpKind::kRoundRead:
          if (!cohort || op.round >= cohort->rounds_advanced()) break;
          expected = Body(tdg::serve::CohortRoundToJson(
              cohort->rounds()[static_cast<size_t>(op.round)], op.round));
          break;
        case OpKind::kMetrics:
          break;
      }
      const OpResult& result = history.results[i];
      if (expected.size() != result.body_bytes ||
          tdg::util::Fnv1a64(expected) != result.body_hash) {
        ++cohort_wrong;
      }
    }
    auto snapshot = live.SnapshotCohort(spec.id);
    std::lock_guard<std::mutex> lock(mutex);
    wrong += cohort_wrong;
    *participant_rounds += cohort_rounds;
    if (!cohort || !snapshot.ok() || !SameState(*cohort, *snapshot)) {
      report->Fail("cohort " + spec.id +
                   ": live state differs from the offline replay of its "
                   "acknowledged ops");
    } else {
      *history_mb += HistoryBytes(*snapshot) / 1e6;
    }
  });
  if (wrong > 0) {
    report->Fail(tdg::util::StrFormat(
        "%lld responses differ from the offline serve::Cohort replay",
        static_cast<long long>(wrong)));
  }
  return wrong;
}

/// Rung-5 mirror of one cohort: the residents' keys and skills, driven by
/// the sized grouping constructions and ApplyRound directly.
struct CoreMirror {
  tdg::serve::CohortConfig config;
  std::vector<std::string> keys;
  tdg::SkillVector skills;
  tdg::random::Rng rng{1};
};

/// Replays the acked ops at rungs 2..5 (socket = rung 1 comes from the
/// load itself) and derives every per-layer metric of the served path.
void RunLadder(const ServeSpec& spec, const Schedule& schedule,
               const History& history, const RunOptions& opts,
               Report* report) {
  const Clock::time_point origin = Clock::now();
  auto now_us = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
  };
  std::vector<size_t> acked;
  for (size_t i = 0; i < history.ops.size(); ++i) {
    if (history.results[i].ok() && history.ops[i].kind != OpKind::kMetrics) {
      acked.push_back(i);
    }
  }
  std::vector<Span> spans;
  spans.reserve(acked.size() * 6);
  for (size_t i : acked) {
    spans.push_back({static_cast<int64_t>(i), 1, "entry",
                     history.results[i].start_us, history.results[i].end_us});
  }
  auto id_of = [&](const Op& op) -> const std::string& {
    return schedule.cohorts[static_cast<size_t>(op.cohort)].id;
  };

  // Rungs 2 and 3: CohortManager with and without journals.
  double journal_bytes = 0;
  int64_t journaled_ops = 0;
  for (int rung : {2, 3}) {
    const std::string dir =
        rung == 2 ? opts.state_root + "/" + spec.name + "-ladder" : "";
    if (!dir.empty()) ResetDir(dir);
    auto manager = CohortManager::Open({dir});
    if (!manager.ok()) {
      report->Fail("ladder: " + manager.status().message());
      return;
    }
    CohortManager& m = **manager;
    bool ok = true;
    for (size_t i : acked) {
      const Op& op = history.ops[i];
      const std::string& id = id_of(op);
      const double start = now_us();
      switch (op.kind) {
        case OpKind::kEnroll: {
          const CohortSpec& cohort =
              schedule.cohorts[static_cast<size_t>(op.cohort)];
          ok &= m.Enroll(id, cohort.config, cohort.participants).ok();
          break;
        }
        case OpKind::kAdvance:
          ok &= m.Advance(id).ok() && m.GetSummary(id).ok();
          break;
        case OpKind::kJoin:
          ok &= m.Join(id, op.key, op.skill).ok() && m.GetSummary(id).ok();
          break;
        case OpKind::kLeave:
          ok &= m.Leave(id, op.key).ok() && m.GetSummary(id).ok();
          break;
        case OpKind::kSummary:
          ok &= m.GetSummary(id).ok();
          break;
        case OpKind::kRoundRead:
          ok &= m.GetRound(id, op.round).ok();
          break;
        case OpKind::kMetrics:
          break;
      }
      spans.push_back(
          {static_cast<int64_t>(i), rung, "entry", start, now_us()});
      if (rung == 2 && Mutates(op.kind)) ++journaled_ops;
    }
    if (!ok) report->Fail("ladder: an acked op failed at the manager rung");
    if (!dir.empty()) {
      journal_bytes = DirBytes(dir);
      manager->reset();
      std::filesystem::remove_all(dir);
    }
  }

  // Rung 4: serve::Cohort alone. Its gains are kept to check rung 5.
  std::vector<double> parse_ms;
  std::vector<double> encode_us;
  std::map<size_t, double> cohort_gain;
  bool diverged = false;
  {
    std::map<int, Cohort> cohorts;
    for (size_t i : acked) {
      const Op& op = history.ops[i];
      const int64_t sid = static_cast<int64_t>(i);
      const CohortSpec& cohort_spec =
          schedule.cohorts[static_cast<size_t>(op.cohort)];
      if (op.kind == OpKind::kEnroll) {
        double start = now_us();
        auto parsed = JsonValue::Parse(history.requests[i].body);
        parse_ms.push_back((now_us() - start) / 1000.0);
        diverged |= !parsed.ok();
        start = now_us();
        auto created = Cohort::Create(cohort_spec.id, cohort_spec.config,
                                      cohort_spec.participants);
        spans.push_back({sid, 4, "entry", start, now_us()});
        if (created.ok()) {
          cohorts.emplace(op.cohort, std::move(created).value());
        } else {
          diverged = true;
        }
        continue;
      }
      Cohort& cohort = cohorts.at(op.cohort);
      const double start = now_us();
      switch (op.kind) {
        case OpKind::kAdvance: {
          auto gain = cohort.Advance();
          spans.push_back({sid, 4, "entry", start, now_us()});
          if (gain.ok()) {
            cohort_gain[i] = *gain;
          } else {
            diverged = true;
          }
          break;
        }
        case OpKind::kJoin:
          diverged |= !cohort.Join(op.key, op.skill).ok();
          spans.push_back({sid, 4, "entry", start, now_us()});
          break;
        case OpKind::kLeave:
          diverged |= !cohort.Leave(op.key).ok();
          spans.push_back({sid, 4, "entry", start, now_us()});
          break;
        case OpKind::kSummary:
          diverged |= cohort.num_participants() < 0;
          spans.push_back({sid, 4, "entry", start, now_us()});
          break;
        case OpKind::kRoundRead: {
          const tdg::serve::CohortRound& round =
              cohort.rounds()[static_cast<size_t>(op.round)];
          spans.push_back({sid, 4, "entry", start, now_us()});
          const double encode_start = now_us();
          const std::string body =
              tdg::serve::CohortRoundToJson(round, op.round).Serialize();
          encode_us.push_back(now_us() - encode_start);
          diverged |= body.empty();
          break;
        }
        case OpKind::kEnroll:
        case OpKind::kMetrics:
          break;
      }
    }
  }

  // Rung 5: the sized grouping constructions and ApplyRound on a mirror of
  // the same residents; joins, leaves and reads have nothing below rung 4.
  std::map<int, CoreMirror> mirrors;
  double core_us = 0, core_participant_rounds = 0;
  for (size_t i : acked) {
    const Op& op = history.ops[i];
    const int64_t sid = static_cast<int64_t>(i);
    switch (op.kind) {
      case OpKind::kEnroll: {
        const CohortSpec& cohort_spec =
            schedule.cohorts[static_cast<size_t>(op.cohort)];
        CoreMirror mirror;
        mirror.config = cohort_spec.config;
        mirror.rng = tdg::random::Rng(cohort_spec.config.seed);
        for (const auto& p : cohort_spec.participants) {
          mirror.keys.push_back(p.key);
          mirror.skills.push_back(p.skill);
        }
        mirrors.emplace(op.cohort, std::move(mirror));
        break;
      }
      case OpKind::kAdvance: {
        CoreMirror& mirror = mirrors.at(op.cohort);
        const double entry = now_us();
        auto sizes = Cohort::SizeProfileFor(
            static_cast<int>(mirror.skills.size()), mirror.config.group_size);
        tdg::util::StatusOr<tdg::Grouping> grouping =
            tdg::util::Status::Internal("no sizes");
        if (sizes.ok()) {
          switch (mirror.config.policy) {
            case tdg::serve::CohortPolicy::kStar:
              grouping = tdg::DyGroupsStarLocalSized(mirror.skills, *sizes);
              break;
            case tdg::serve::CohortPolicy::kClique:
              grouping = tdg::DyGroupsCliqueLocalSized(mirror.skills, *sizes);
              break;
            case tdg::serve::CohortPolicy::kRandom:
              grouping =
                  tdg::RandomGroupingSized(mirror.skills, *sizes, mirror.rng);
              break;
          }
        }
        const double grouped = now_us();
        auto linear = tdg::LinearGain::Create(mirror.config.learning_rate);
        tdg::util::StatusOr<double> core_gain =
            tdg::util::Status::Internal("no grouping");
        if (grouping.ok() && linear.ok()) {
          core_gain = tdg::ApplyRound(mirror.config.mode, *grouping, *linear,
                                      mirror.skills);
        }
        const double applied = now_us();
        spans.push_back({sid, 5, "entry", entry, applied});
        spans.push_back({sid, 5, "grouping", entry, grouped});
        spans.push_back({sid, 5, "apply", grouped, applied});
        core_us += applied - entry;
        core_participant_rounds += static_cast<double>(mirror.skills.size());
        auto expected = cohort_gain.find(i);
        diverged |= !core_gain.ok() || expected == cohort_gain.end() ||
                    *core_gain != expected->second;
        break;
      }
      case OpKind::kJoin: {
        CoreMirror& mirror = mirrors.at(op.cohort);
        mirror.keys.push_back(op.key);
        mirror.skills.push_back(op.skill);
        break;
      }
      case OpKind::kLeave: {
        CoreMirror& mirror = mirrors.at(op.cohort);
        for (size_t k = 0; k < mirror.keys.size(); ++k) {
          if (mirror.keys[k] == op.key) {
            const auto at = static_cast<std::ptrdiff_t>(k);
            mirror.keys.erase(mirror.keys.begin() + at);
            mirror.skills.erase(mirror.skills.begin() + at);
            break;
          }
        }
        break;
      }
      case OpKind::kSummary:
      case OpKind::kRoundRead:
      case OpKind::kMetrics:
        break;
    }
  }
  if (diverged) {
    report->Fail("ladder: serve::Cohort and the core rung disagree on an op");
  }

  // Per-op self times, grouped by op class.
  auto ops_where = [&](auto predicate) {
    std::vector<int64_t> ids;
    for (size_t i : acked) {
      if (predicate(history.ops[i])) ids.push_back(static_cast<int64_t>(i));
    }
    return ids;
  };
  auto ops_of = [&](OpKind kind) {
    return ops_where([kind](const Op& op) { return op.kind == kind; });
  };
  const auto advance_ops = ops_of(OpKind::kAdvance);
  const auto churn_ops =
      ops_where([](const Op& op) { return IsChurn(op.kind); });
  const auto round_ops = ops_of(OpKind::kRoundRead);
  const auto enroll_ops = ops_of(OpKind::kEnroll);
  const auto mutating_ops = ops_where([](const Op& op) {
    return op.kind == OpKind::kAdvance || IsChurn(op.kind);
  });
  // Self time between two rungs at percentile p over `ids`.
  auto self = [&](const std::string& name, int upper, int lower,
                  const std::vector<int64_t>& ids, double p) {
    const auto by_op = LadderSelfTimes(spans, upper, lower);
    std::vector<double> samples;
    for (int64_t id : ids) {
      auto it = by_op.find(id);
      if (it != by_op.end()) samples.push_back(it->second);
    }
    report->SetPercentile(name, samples, p, 1, "us");
  };
  // Median duration of the spans `span` at `rung` over `ids`.
  auto median = [&](const std::string& name, int rung, const char* span,
                    const std::vector<int64_t>& ids, double scale,
                    const char* unit) {
    report->SetPercentile(name, SpanDurations(spans, rung, span, ids), 50,
                          scale, unit);
  };

  const std::string srv = "serve.cohort_server.";
  self(srv + "self_us_p50.advance", 1, 2, advance_ops, 50);
  self(srv + "self_us_p99.advance", 1, 2, advance_ops, 99);
  self(srv + "self_us_p50.churn", 1, 2, churn_ops, 50);
  self(srv + "self_us_p99.churn", 1, 2, churn_ops, 99);
  self(srv + "self_us_p50.round_read", 1, 2, round_ops, 50);
  self(srv + "self_us_p50.enroll", 1, 2, enroll_ops, 50);

  const std::string mgr = "serve.cohort_manager.";
  self(mgr + "self_us_p50.advance", 3, 4, advance_ops, 50);
  self(mgr + "self_us_p50.churn", 3, 4, churn_ops, 50);
  self(mgr + "self_us_p50.round_read", 3, 4, round_ops, 50);
  self(mgr + "journal_us_p50", 2, 3, mutating_ops, 50);
  self(mgr + "journal_us_p99", 2, 3, mutating_ops, 99);
  if (journaled_ops > 0) {
    report->Set(mgr + "journal_bytes_per_op",
                journal_bytes / static_cast<double>(journaled_ops), "B");
  }

  self("serve.cohort.self_us_p50.advance", 4, 5, advance_ops, 50);
  // The core metrics every workload reports: the grouping kernel's cost
  // per participant-round, and the share of serve::Cohort::Advance spent
  // outside it.
  if (core_participant_rounds > 0) {
    report->Set("core.ns_per_participant_round",
                core_us * 1e3 / core_participant_rounds, "ns");
  }
  double cohort_advance_us = 0;
  for (double us : SpanDurations(spans, 4, "entry", advance_ops)) {
    cohort_advance_us += us;
  }
  if (cohort_advance_us > 0) {
    report->Set("core.caller_overhead_share", 1.0 - core_us / cohort_advance_us,
                "share");
  }
  median("serve.cohort.join_us_p50", 4, "entry", ops_of(OpKind::kJoin), 1,
         "us");
  median("serve.cohort.leave_us_p50", 4, "entry", ops_of(OpKind::kLeave), 1,
         "us");
  median("serve.cohort.create_ms_p50", 4, "entry", enroll_ops, 1e-3, "ms");
  for (auto policy :
       {tdg::serve::CohortPolicy::kStar, tdg::serve::CohortPolicy::kClique}) {
    const auto ids = ops_where([&](const Op& op) {
      return op.kind == OpKind::kAdvance &&
             schedule.cohorts[static_cast<size_t>(op.cohort)].config.policy ==
                 policy;
    });
    const std::string name(tdg::serve::CohortPolicyName(policy));
    median("core.sized_grouping_us_p50." + name, 5, "grouping", ids, 1, "us");
    median("core.apply_round_us_p50." + name, 5, "apply", ids, 1, "us");
  }

  report->SetPercentile("util.json.parse_ms_p50.enroll", parse_ms, 50, 1,
                        "ms");
  report->SetPercentile("util.json.encode_us_p50.round", encode_us, 50, 1,
                        "us");

  // Spans stay in memory during the run; written once, here.
  std::ofstream out(opts.trace_dir + "/spans-" + spec.name + ".csv");
  out << "op,kind,rung,name,start_us,end_us\n";
  for (const Span& span : spans) {
    out << span.op << ','
        << OpKindName(history.ops[static_cast<size_t>(span.op)].kind) << ','
        << span.rung << ',' << span.name << ','
        << tdg::util::StrFormat("%.3f,%.3f\n", span.start_us, span.end_us);
  }
}

}  // namespace

void RunServeWorkload(const ServeSpec& spec, const RunOptions& opts,
                      Report* report) {
  const Schedule schedule = MakeSchedule(spec, opts.seed, opts.seconds);
  History history = BuildHistory(schedule);
  const std::vector<Request> load_requests(
      history.requests.begin() + static_cast<std::ptrdiff_t>(history.setup_ops),
      history.requests.end());

  // Set-up, several times (up to eleven, at least three, within the repeat
  // budget); the last one stays up for the load.
  const std::string dir = opts.state_root + "/" + spec.name;
  std::vector<double> setup_s;
  Live live;
  std::vector<double> setup_enroll_ms;
  while (setup_s.size() < kMaxSetups) {
    live.Reset();
    ResetDir(dir);
    const Clock::time_point start = Clock::now();
    auto started = StartLive(dir);
    if (!started.ok()) {
      report->Fail("set-up: " + started.status().message());
      return;
    }
    live = std::move(started).value();
    for (size_t i = 0; i < history.setup_ops; ++i) {
      history.results[i] = Send(live.server->port(), history.requests[i]);
    }
    setup_s.push_back(SecondsSince(start));
    for (size_t i = 0; i < history.setup_ops; ++i) {
      if (history.ops[i].kind == OpKind::kEnroll && history.results[i].ok()) {
        setup_enroll_ms.push_back(history.results[i].service_us() / 1000.0);
      }
    }
    double total_s = 0;
    for (double s : setup_s) total_s += s;
    if (setup_s.size() >= 3 && total_s > kRepeatBudgetS) break;
  }
  report->Set("setup_s", Median(setup_s), "s");

  const ProcSample before = ProcSample::Now();
  LoadResult load = RunLoad(live.server->port(), schedule, load_requests,
                            spec.threads, spec.open_loop);
  const ProcSample used = ProcSample::Now() - before;
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::copy(load.results.begin(), load.results.end(),
            history.results.begin() +
                static_cast<std::ptrdiff_t>(history.setup_ops));

  if (opts.trace) {
    std::vector<double> healthz_us;
    const Request healthz = BuildRequest("GET", "/healthz");
    for (int i = 0; i < kHealthzProbes; ++i) {
      const OpResult probe = Send(live.server->port(), healthz);
      if (probe.ok()) healthz_us.push_back(probe.service_us());
    }
    report->SetPercentile("util.net.healthz_rtt_us_p50", healthz_us, 50, 1,
                          "us");
    const RegistryProbe registry = ProbeMetricsRegistry(kRenderProbes);
    report->Set("obs.metrics_render_ms_p50", registry.render_ms_p50, "ms");
    report->Set("obs.registry_families", registry.families, "count");
  }
  live.server->Stop();

  // Latency by op class, as the user saw it, in completion order.
  const double n_load = static_cast<double>(schedule.ops.size());
  std::vector<size_t> by_end(history.ops.size() - history.setup_ops);
  for (size_t i = 0; i < by_end.size(); ++i) by_end[i] = history.setup_ops + i;
  std::sort(by_end.begin(), by_end.end(), [&](size_t a, size_t b) {
    return history.results[a].end_us < history.results[b].end_us;
  });
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<std::pair<std::string, double>> service_ms;
  std::vector<double> connect_us, lateness_ms, round_kb, end_s;
  int64_t failed = 0;
  for (size_t i = 0; i < history.setup_ops; ++i) {
    if (!history.results[i].ok()) ++failed;
  }
  for (size_t i : by_end) {
    const OpResult& result = history.results[i];
    if (!result.ok()) {
      ++failed;
      continue;
    }
    const OpKind kind = history.ops[i].kind;
    const std::string label =
        IsChurn(kind) ? "churn" : std::string(OpKindName(kind));
    latency_ms[label].push_back(result.latency_us() / 1000.0);
    service_ms.emplace_back(std::string(OpKindName(kind)),
                            result.service_us() / 1000.0);
    connect_us.push_back(result.connect_us);
    lateness_ms.push_back((result.start_us - result.ready_us) / 1000.0);
    end_s.push_back(result.end_us / 1e6);
    if (kind == OpKind::kRoundRead) {
      round_kb.push_back(static_cast<double>(result.body_bytes) / 1024.0);
    }
  }
  // Enrolls: every one the run sent, set-up included (serve_small's load
  // has none; serve_large's has six in a 10 s run).
  latency_ms["enroll"].insert(latency_ms["enroll"].end(),
                              setup_enroll_ms.begin(), setup_enroll_ms.end());
  report->Set("serve.ops_per_s", ChunkedRate(end_s), "1/s");
  // The metrics every workload reports: the load's rate, and the typical
  // latency of an op of each kind. A percentile over all ops lands between
  // the modes of the kinds, so each kind (with enough samples) counts once
  // with its p10 of send-to-last-byte time: host interference (a shared
  // disk under the journal fsyncs, shared CPUs) only slows an op, and a low
  // percentile follows the program through it. The open loop's wait in
  // front of a busy cohort follows the seeded arrival order as much as the
  // server; the per-kind p50s above include it.
  report->Set("throughput_per_s", ChunkedRate(end_s), "1/s");
  report->Set("latency_ms_p10",
              ChunkedKindPercentile(service_ms, 10, kMinKindSamples), "ms");
  for (const char* op : {"advance", "churn", "round_read"}) {
    const std::string name = std::string("serve.") + op;
    report->SetPercentile(name + "_ms_p50", latency_ms[op], 50, 1, "ms");
    report->SetPercentile(name + "_ms_p99", latency_ms[op], 99, 1, "ms");
  }
  report->SetPercentile("serve.enroll_ms_p50", latency_ms["enroll"], 50, 1,
                        "ms");

  const double lateness_p99 = spec.open_loop ? TailValue(lateness_ms) : 0.0;
  if (lateness_p99 > kMaxLatenessMsP99) {
    report->Fail(tdg::util::StrFormat(
        "run invalid: the load generator fell behind (lateness p99 %.2f ms "
        "> %.0f ms)", lateness_p99, kMaxLatenessMsP99));
  }

  // Restart recovery: replay the run's journals (three times when that is
  // quick), then compare with the live state.
  std::vector<double> recovery_runs;
  tdg::util::StatusOr<std::unique_ptr<CohortManager>> recovered =
      tdg::util::Status::Internal("not recovered");
  do {
    if (recovered.ok()) recovered->reset();
    const Clock::time_point recover_start = Clock::now();
    recovered = CohortManager::Open({dir});
    recovery_runs.push_back(SecondsSince(recover_start));
  } while (recovered.ok() && recovery_runs.size() < 3 &&
           recovery_runs.front() * 3 <= kRepeatBudgetS);
  const double recovery_s = BestQuartile(recovery_runs, false);
  report->Set("recovery_s", recovery_s, "s");
  if (!recovered.ok()) {
    report->Fail("recovery: " + recovered.status().message());
  } else {
    if ((*recovered)->CohortIds() != live.manager->CohortIds()) {
      report->Fail("recovery: the recovered cohort set differs from the live "
                   "one");
    }
    for (const std::string& id : live.manager->CohortIds()) {
      auto a = live.manager->SnapshotCohort(id);
      auto b = (*recovered)->SnapshotCohort(id);
      if (!a.ok() || !b.ok() || !SameState(*a, *b)) {
        report->Fail("recovery: cohort " + id + " differs after Open()");
      }
    }
  }
  if (recovered.ok()) recovered->reset();  // release before the replay

  double participant_rounds = 0;
  double history_mb = 0;
  const int64_t wrong = CheckAgainstOffline(schedule, history, *live.manager,
                                            opts.threads, report,
                                            &participant_rounds, &history_mb);
  live.Reset();
  report->attempted += static_cast<int64_t>(history.ops.size());
  report->failed += failed + wrong;

  if (!opts.trace) return;
  int64_t journaled = 0;
  for (size_t i = 0; i < history.ops.size(); ++i) {
    if (history.results[i].ok() && Mutates(history.ops[i].kind)) ++journaled;
  }
  report->Set("serve.cohort_manager.replay_ops_per_s",
              static_cast<double>(journaled) / recovery_s, "1/s");
  report->Set("serve.cohort.history_mb", history_mb, "MB");
  report->SetPercentile("util.net.connect_us_p50", connect_us, 50, 1, "us");
  report->Set("util.net.connections_per_op",
              static_cast<double>(load.connections) / n_load, "count");
  report->SetPercentile("util.json.round_kb_p50", round_kb, 50, 1, "KB");
  report->Set("loadgen.lateness_ms_p99", lateness_p99, "ms");
  report->Set("loadgen.max_in_flight", load.max_in_flight, "count");
  report->Set("serve.failed_share",
              static_cast<double>(failed + wrong) /
                  static_cast<double>(history.ops.size()),
              "share");
  for (const char* op : {"advance", "churn", "round_read"}) {
    report->SetPercentile(std::string("trace.socket_ms_p50.") + op,
                          latency_ms[op], 50, 1, "ms");
  }
  report->Set("proc.cpu_ms_per_op", used.cpu_s * 1000.0 / n_load, "ms");
  report->Set("proc.cpu_s_per_mpr",
              used.cpu_s / std::max(participant_rounds / 1e6, 1e-9), "s");
  report->Set("proc.ctx_switches_per_op", used.ctx_switches / n_load, "count");
  report->Set("proc.write_bytes_per_op", used.write_bytes / n_load, "B");
  report->Set("proc.write_syscalls_per_op", used.write_syscalls / n_load,
              "count");
  RunLadder(spec, schedule, history, opts, report);
}

}  // namespace tdgbench
