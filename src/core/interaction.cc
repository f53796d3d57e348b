#include "core/interaction.h"

#include "core/soa.h"
#include "obs/obs.h"

namespace tdg {

std::string_view InteractionModeName(InteractionMode mode) {
  switch (mode) {
    case InteractionMode::kStar:
      return "star";
    case InteractionMode::kClique:
      return "clique";
  }
  return "unknown";
}

util::StatusOr<InteractionMode> ParseInteractionMode(std::string_view name) {
  if (name == "star") return InteractionMode::kStar;
  if (name == "clique") return InteractionMode::kClique;
  return util::Status::InvalidArgument("unknown interaction mode: '" +
                                       std::string(name) + "'");
}

obs::PerfDomain& RoundKernelPerfDomain(InteractionMode mode,
                                       bool clique_prefix) {
  static obs::PerfDomain& star_domain =
      obs::PerfDomain::Get("core/learning_gain/star");
  static obs::PerfDomain& prefix_domain =
      obs::PerfDomain::Get("core/theory/clique_prefix");
  static obs::PerfDomain& naive_domain =
      obs::PerfDomain::Get("core/learning_gain/clique_naive");
  if (mode == InteractionMode::kStar) return star_domain;
  return clique_prefix ? prefix_domain : naive_domain;
}

namespace {

// The per-group work (gather, rank sort, gain kernel, scatter-add) lives on
// the SoA plane: soa::GroupRoundMembers with a nullable update target, the
// same pattern the old AoS kernels used. Update and evaluate paths run the
// *identical* arithmetic on the pre-round snapshot, which is what makes
// EvaluateGroupGain (and the delta-objective built on it, objective.h)
// bitwise-equal to a full ApplyRound over the same grouping.

util::StatusOr<double> ApplyRoundImpl(InteractionMode mode,
                                      const Grouping& grouping,
                                      const LearningGainFunction& gain,
                                      SkillVector& skills,
                                      bool allow_fast_path,
                                      std::vector<double>* group_gains_out =
                                          nullptr) {
  TDG_RETURN_IF_ERROR(
      grouping.ValidatePartition(static_cast<int>(skills.size())));
#if !defined(TDG_OBS_DISABLED)
  obs::ScopedPerfDomain perf_scope(
      RoundKernelPerfDomain(mode, allow_fast_path && gain.is_linear()));
#endif
  soa::Arena& arena = soa::ThreadLocalArena();
  if (group_gains_out != nullptr) {
    group_gains_out->clear();
    group_gains_out->reserve(grouping.groups.size());
  }
  double round_gain = 0.0;
  int64_t updated_groups = 0;
  for (const auto& members : grouping.groups) {
    if (members.size() == 1) {  // nothing to learn from
      if (group_gains_out != nullptr) group_gains_out->push_back(0.0);
      continue;
    }
    ++updated_groups;
    const double group_gain = soa::GroupRoundMembers(
        mode, gain, allow_fast_path, members, skills, skills.data(), arena);
    round_gain += group_gain;
    if (group_gains_out != nullptr) group_gains_out->push_back(group_gain);
  }
  if (mode == InteractionMode::kStar) {
    TDG_OBS_COUNTER_ADD("interaction/star_group_updates", updated_groups);
  } else {
    TDG_OBS_COUNTER_ADD("interaction/clique_group_updates", updated_groups);
  }
  return round_gain;
}

}  // namespace

util::StatusOr<double> ApplyRound(InteractionMode mode,
                                  const Grouping& grouping,
                                  const LearningGainFunction& gain,
                                  SkillVector& skills,
                                  std::vector<double>* group_gains_out) {
  return ApplyRoundImpl(mode, grouping, gain, skills,
                        /*allow_fast_path=*/true, group_gains_out);
}

util::StatusOr<double> ApplyRoundNaive(InteractionMode mode,
                                       const Grouping& grouping,
                                       const LearningGainFunction& gain,
                                       SkillVector& skills) {
  return ApplyRoundImpl(mode, grouping, gain, skills,
                        /*allow_fast_path=*/false);
}

util::StatusOr<double> EvaluateRoundGain(InteractionMode mode,
                                         const Grouping& grouping,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills) {
  SkillVector scratch = skills;
  return ApplyRound(mode, grouping, gain, scratch);
}

util::StatusOr<double> EvaluateGroupGain(InteractionMode mode,
                                         const std::vector<int>& members,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills) {
  int n = static_cast<int>(skills.size());
  for (int id : members) {
    if (id < 0 || id >= n) {
      return util::Status::InvalidArgument(
          "group member id out of range of the skill vector");
    }
  }
  if (members.size() <= 1) return 0.0;
  return soa::GroupRoundMembers(mode, gain, /*allow_fast_path=*/true, members,
                                skills, /*update_skills=*/nullptr,
                                soa::ThreadLocalArena());
}

}  // namespace tdg
