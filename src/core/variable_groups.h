#ifndef TDG_CORE_VARIABLE_GROUPS_H_
#define TDG_CORE_VARIABLE_GROUPS_H_

#include <functional>
#include <vector>

#include "core/process.h"
#include "random/rng.h"

namespace tdg {

/// §VII extension: "DYGROUPS can be adapted for the case when groups have
/// varying sizes." This module generalizes the local algorithms and the
/// α-round driver from equi-sized groups to an arbitrary size profile
/// (one positive size per group, summing to n; sizes fixed across rounds).

/// Validates a size profile: non-empty, all sizes >= 1, sum == n.
util::Status ValidateSizeProfile(const std::vector<int>& sizes, int n);

/// DyGroups-Star-Local for a size profile: the m = |sizes| strongest
/// members become the teachers of groups 1..m, and the remaining members
/// fill the groups in descending-skill contiguous blocks (group 1 first) —
/// the natural generalization of Algorithm 2's variance-maximizing
/// assignment.
util::StatusOr<Grouping> DyGroupsStarLocalSized(const SkillVector& skills,
                                                const std::vector<int>& sizes);

/// DyGroups-Clique-Local for a size profile: members are dealt in
/// descending-skill order, each to the open group with the largest
/// proportional-quota deficit sizes[g]·(rank+1)/n − fill (lowest index on
/// ties) — round-robin on an all-equal profile, the natural generalization
/// of Algorithm 3's dominance construction. O(n·D) after the sort, D the
/// number of distinct sizes.
util::StatusOr<Grouping> DyGroupsCliqueLocalSized(
    const SkillVector& skills, const std::vector<int>& sizes);

/// Uniformly random partition respecting the size profile (control).
util::StatusOr<Grouping> RandomGroupingSized(const SkillVector& skills,
                                             const std::vector<int>& sizes,
                                             random::Rng& rng);

/// A round-local grouping rule over a size profile.
using SizedGroupingFn = std::function<util::StatusOr<Grouping>(
    const SkillVector&, const std::vector<int>&)>;

struct SizedProcessConfig {
  std::vector<int> group_sizes;
  int num_rounds = 5;
  InteractionMode mode = InteractionMode::kStar;
  bool record_history = true;
};

/// Runs the Algorithm-1 loop with a size profile: each round,
/// `form_groups(skills, sizes)` produces the grouping, which must be a
/// partition of {0..n-1} with exactly the requested sizes.
util::StatusOr<ProcessResult> RunSizedProcess(
    const SkillVector& initial_skills, const SizedProcessConfig& config,
    const LearningGainFunction& gain, const SizedGroupingFn& form_groups);

}  // namespace tdg

#endif  // TDG_CORE_VARIABLE_GROUPS_H_
