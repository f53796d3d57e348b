#include "core/theory.h"

#include <algorithm>
#include <cmath>

#include "core/dygroups.h"
#include "core/process.h"
#include "core/soa.h"
#include "util/string_util.h"

namespace tdg {

util::StatusOr<int> PredictedRateOneSaturationRounds(int n, int k) {
  if (n < 2 || k < 1 || n % k != 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "need n >= 2 and k | n, got n=%d k=%d", n, k));
  }
  int t = n / k;
  if (t < 2) {
    return util::Status::InvalidArgument(
        "group size 1 never saturates (nobody learns)");
  }
  // Members at the top multiply by t per round: after m rounds, t^m >= n.
  int rounds = 0;
  double reached = 1.0;
  while (reached < static_cast<double>(n)) {
    reached *= t;
    ++rounds;
  }
  return rounds;
}

util::StatusOr<int> SimulateRateOneStarSaturation(const SkillVector& skills,
                                                  int num_groups,
                                                  int max_rounds) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  double top = *std::max_element(skills.begin(), skills.end());
  SkillVector current = skills;
  for (int round = 0; round <= max_rounds; ++round) {
    bool saturated = true;
    for (double s : current) {
      if (s < top) {
        saturated = false;
        break;
      }
    }
    if (saturated) return round;

    TDG_ASSIGN_OR_RETURN(Grouping grouping,
                         DyGroupsStarLocal(current, num_groups));
    // r = 1 jump dynamics: everyone reaches their group teacher's skill.
    for (const auto& members : grouping.groups) {
      double teacher = 0.0;
      for (int id : members) teacher = std::max(teacher, current[id]);
      for (int id : members) current[id] = teacher;
    }
  }
  return util::Status::InvalidArgument(util::StrFormat(
      "did not saturate within %d rounds", max_rounds));
}

double DeficitLowerBound(double initial_deficit_sum, double r, int alpha) {
  return initial_deficit_sum *
         std::pow(1.0 - r, static_cast<double>(std::max(alpha, 0)));
}

util::StatusOr<int> RoundsToDeficitFraction(const SkillVector& skills,
                                            int num_groups,
                                            InteractionMode mode, double r,
                                            double fraction,
                                            int max_rounds) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  if (!(fraction > 0.0 && fraction < 1.0)) {
    return util::Status::InvalidArgument("fraction must be in (0, 1)");
  }
  TDG_ASSIGN_OR_RETURN(LinearGain gain, LinearGain::Create(r));
  auto policy = MakeDyGroupsPolicy(mode);

  double initial = soa::OrderedSum(SkillDeficits(skills));
  if (initial == 0.0) return 0;  // already converged

  SkillVector current = skills;
  for (int round = 1; round <= max_rounds; ++round) {
    TDG_ASSIGN_OR_RETURN(Grouping grouping,
                         policy->FormGroups(current, num_groups));
    auto round_gain = ApplyRound(mode, grouping, gain, current);
    if (!round_gain.ok()) return round_gain.status();
    double remaining = soa::OrderedSum(SkillDeficits(current));
    if (remaining <= fraction * initial) return round;
  }
  return max_rounds;
}

}  // namespace tdg
