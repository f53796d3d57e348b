#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "random/distributions.h"
#include "random/rng.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tdgbench {
namespace {

using tdg::serve::CohortPolicy;

ServeSpec MakeSmall() {
  ServeSpec spec;
  spec.name = "serve_small";
  spec.num_cohorts = 64;
  spec.cohort_size = 130;  // 32 groups of 4 and 5: an unbalanced profile
  spec.policies = {CohortPolicy::kStar, CohortPolicy::kClique,
                   CohortPolicy::kRandom};
  spec.advance_pm = 400;
  spec.churn_pm = 400;
  spec.summary_pm = 150;
  spec.round_read_pm = 40;
  spec.metrics_pm = 10;
  spec.threads = 2;  // measured steadier than four
  spec.ops_per_s = 8000;
  spec.band = 3;
  return spec;
}

ServeSpec MakeLarge() {
  ServeSpec spec;
  spec.name = "serve_large";
  spec.num_cohorts = 4;
  spec.cohort_size = 10000;
  // One clique cohort in four: its sized grouping costs ~100x a star
  // round at this size, so an even split would put the advance p50 on the
  // boundary between the two modes.
  spec.policies = {CohortPolicy::kStar, CohortPolicy::kStar,
                   CohortPolicy::kStar, CohortPolicy::kClique};
  spec.advance_pm = 350;
  spec.churn_pm = 300;
  spec.summary_pm = 95;
  spec.round_read_pm = 250;
  spec.enroll_pm = 10;
  spec.threads = 4;
  spec.open_loop = true;
  // About half of capacity, which the clique cohort sets: ~100 ms rounds
  // on one lane that serves one op at a time (README.md).
  spec.ops_per_s = 60;
  spec.band = 50;
  return spec;
}

std::vector<tdg::serve::CohortParticipant> DrawParticipants(
    tdg::random::Rng& rng, int n) {
  const std::vector<double> skills = tdg::random::GenerateSkills(
      rng, tdg::random::SkillDistribution::kLogNormal, n);
  std::vector<tdg::serve::CohortParticipant> participants;
  participants.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    participants.push_back({"p" + std::to_string(i),
                            skills[static_cast<size_t>(i)]});
  }
  return participants;
}

CohortSpec MakeCohort(const ServeSpec& spec, tdg::random::Rng& rng,
                      const std::string& id, int index) {
  CohortSpec cohort;
  cohort.id = id;
  cohort.config.group_size = spec.group_size;
  cohort.config.policy =
      spec.policies[static_cast<size_t>(index) % spec.policies.size()];
  cohort.config.mode = cohort.config.policy == CohortPolicy::kClique
                           ? tdg::InteractionMode::kClique
                           : tdg::InteractionMode::kStar;
  cohort.config.learning_rate = 0.5;
  // CohortConfig::ToJson sends the seed as a JSON number (a double): a
  // seed of 2^53 or more reaches the server rounded, and a random-policy
  // cohort then groups differently from the config it was enrolled with
  // (a serving-plane defect, see README.md). Seeds stay below 2^53.
  cohort.config.seed = rng() >> 11;
  cohort.participants = DrawParticipants(rng, spec.cohort_size);
  return cohort;
}

}  // namespace

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdvance:
      return "advance";
    case OpKind::kJoin:
      return "join";
    case OpKind::kLeave:
      return "leave";
    case OpKind::kSummary:
      return "summary";
    case OpKind::kRoundRead:
      return "round_read";
    case OpKind::kMetrics:
      return "metrics";
    case OpKind::kEnroll:
      return "enroll";
  }
  return "unknown";
}

const ServeSpec& ServeSmallSpec() {
  static const ServeSpec* const kSpec = new ServeSpec(MakeSmall());
  return *kSpec;
}

const ServeSpec& ServeLargeSpec() {
  static const ServeSpec* const kSpec = new ServeSpec(MakeLarge());
  return *kSpec;
}

std::string Schedule::Serialize() const {
  std::string out;
  for (const CohortSpec& cohort : cohorts) {
    out += "cohort " + cohort.id + " " + cohort.config.ToJson().Serialize();
    for (const auto& participant : cohort.participants) {
      out += tdg::util::StrFormat(" %s:%.17g", participant.key.c_str(),
                                  participant.skill);
    }
    out += "\n";
  }
  for (const Op& op : ops) {
    out += tdg::util::StrFormat(
        "op %lld %s lane=%d cohort=%d key=%s skill=%.17g round=%d "
        "due=%.17g\n",
        static_cast<long long>(op.id), std::string(OpKindName(op.kind)).c_str(),
        op.lane, op.cohort, op.key.c_str(), op.skill, op.round, op.due_s);
  }
  return out;
}

Schedule MakeSchedule(const ServeSpec& spec, uint64_t seed, double seconds) {
  TDG_CHECK_GT(spec.num_cohorts, 0);
  tdg::random::Rng rng(seed ^ tdg::util::Fnv1a64(spec.name));
  Schedule schedule;
  schedule.num_base_cohorts = spec.num_cohorts;
  for (int c = 0; c < spec.num_cohorts; ++c) {
    schedule.cohorts.push_back(
        MakeCohort(spec, rng, tdg::util::StrFormat("c%02d", c), c));
  }

  const long long total = std::max(1LL, std::llround(spec.ops_per_s * seconds));
  auto count = [&](int per_mille) { return total * per_mille / 1000; };
  std::vector<OpKind> kinds;
  auto add = [&](OpKind kind, long long n) {
    kinds.insert(kinds.end(), static_cast<size_t>(n), kind);
  };
  add(OpKind::kJoin, count(spec.churn_pm));  // join/leave decided below
  add(OpKind::kSummary, count(spec.summary_pm));
  add(OpKind::kRoundRead, count(spec.round_read_pm));
  add(OpKind::kMetrics, count(spec.metrics_pm));
  add(OpKind::kEnroll, count(spec.enroll_pm));
  add(OpKind::kAdvance,
      total - static_cast<long long>(kinds.size()));  // the remainder
  auto shuffle = [&rng](auto& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.NextBounded(i)]);
    }
  };
  shuffle(kinds);
  // Every base cohort gets the same number of ops of each kind, so the
  // work a run does is the same for every seed; only the order differs.
  std::map<OpKind, std::vector<int>> targets;
  for (OpKind kind : kinds) targets[kind];
  for (auto& [kind, cohorts] : targets) {
    const long long n = std::count(kinds.begin(), kinds.end(), kind);
    for (long long j = 0; j < n; ++j) {
      cohorts.push_back(static_cast<int>(j % spec.num_cohorts));
    }
    shuffle(cohorts);
  }
  std::map<OpKind, size_t> used;

  // Resident model per base cohort, for valid leave targets and the band.
  std::vector<std::vector<std::string>> residents(
      static_cast<size_t>(spec.num_cohorts));
  for (int c = 0; c < spec.num_cohorts; ++c) {
    for (const auto& p :
         schedule.cohorts[static_cast<size_t>(c)].participants) {
      residents[static_cast<size_t>(c)].push_back(p.key);
    }
  }
  std::vector<int> rounds(static_cast<size_t>(spec.num_cohorts), 1);
  const int lower = spec.cohort_size - spec.band;
  const int upper = spec.cohort_size + spec.band;
  schedule.num_lanes =
      spec.open_loop ? spec.num_cohorts + 1 : spec.threads;
  long long next_join = 0;
  // Open loop: a Poisson process conditioned on `total` arrivals in
  // [0, seconds), i.e. sorted uniform arrival times, so every run offers
  // the same count over the same span.
  std::vector<double> due_s;
  if (spec.open_loop) {
    tdg::random::Rng arrivals(rng());
    for (long long i = 0; i < total; ++i) {
      due_s.push_back(arrivals.NextDouble() * seconds);
    }
    std::sort(due_s.begin(), due_s.end());
  }

  schedule.ops.reserve(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) {
    Op op;
    op.id = static_cast<int64_t>(i);
    op.kind = kinds[i];
    if (op.kind == OpKind::kEnroll) {
      const int index = static_cast<int>(schedule.cohorts.size());
      schedule.cohorts.push_back(MakeCohort(
          spec, rng, tdg::util::StrFormat("fresh%03d", index), index));
      op.cohort = index;
    } else if (op.kind != OpKind::kMetrics) {
      op.cohort = targets[op.kind][used[op.kind]++];
    }
    std::vector<std::string>* members =
        op.kind == OpKind::kEnroll || op.cohort < 0
            ? nullptr
            : &residents[static_cast<size_t>(op.cohort)];
    if (op.kind == OpKind::kJoin) {
      const int size = static_cast<int>(members->size());
      const bool join = size <= lower ? true
                        : size >= upper ? false
                                        : rng.NextBounded(2) == 0;
      if (join) {
        op.key = "j" + std::to_string(next_join++);
        op.skill = tdg::random::GenerateSkills(
            rng, tdg::random::SkillDistribution::kLogNormal, 1)[0];
        members->push_back(op.key);
      } else {
        op.kind = OpKind::kLeave;
        const size_t victim = rng.NextBounded(members->size());
        op.key = (*members)[victim];
        (*members)[victim] = members->back();
        members->pop_back();
      }
    } else if (op.kind == OpKind::kAdvance) {
      ++rounds[static_cast<size_t>(op.cohort)];
    } else if (op.kind == OpKind::kRoundRead) {
      op.round = rounds[static_cast<size_t>(op.cohort)] - 1;
    }

    const bool base_cohort_op =
        op.cohort >= 0 && op.cohort < spec.num_cohorts;
    if (spec.open_loop) {
      op.lane = base_cohort_op ? op.cohort : spec.num_cohorts;
      op.due_s = due_s[i];
    } else {
      op.lane = static_cast<int>((base_cohort_op ? op.cohort : op.id) %
                                 spec.threads);
    }
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

}  // namespace tdgbench
