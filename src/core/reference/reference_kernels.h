#ifndef TDG_CORE_REFERENCE_REFERENCE_KERNELS_H_
#define TDG_CORE_REFERENCE_REFERENCE_KERNELS_H_

#include <span>
#include <vector>

#include "core/grouping.h"
#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/skills.h"
#include "util/statusor.h"

/// The paper-faithful AoS (array-of-structures / per-participant object)
/// kernels, retained verbatim from the pre-SoA tree as the differential test
/// oracle (DESIGN.md §11). The production `tdg::` entry points now run on the
/// structure-of-arrays plane (core/soa.h); every kernel change there is
/// checked against these implementations by soa_differential_test.cc, which
/// asserts bitwise-identical groupings and gains.
///
/// These functions are intentionally *slow* (per-group heap allocation, a
/// comparator-driven std::stable_sort, virtual gain calls in every inner
/// loop): they are the readable ground truth, not a fast path. Do not
/// optimize them — their value is that they stay trivially auditable against
/// the paper's pseudocode.
namespace tdg::reference {

/// std::stable_sort by descending skill; ties broken by ascending id via
/// stability (ids start in ascending order).
std::vector<int> SortedByskillDescending(std::span<const double> skills);

/// b_i = max_j(s_j) - s_i via std::max_element and a scalar loop.
std::vector<double> SkillDeficits(std::span<const double> skills);

/// Paper Algorithm 2 built on the reference sort.
util::StatusOr<Grouping> DyGroupsStarLocal(const SkillVector& skills,
                                           int num_groups);

/// Paper Algorithm 3 built on the reference sort.
util::StatusOr<Grouping> DyGroupsCliqueLocal(const SkillVector& skills,
                                             int num_groups);

/// §VII sized Algorithm 3 as the O(n·k) scan: every rank goes to the open
/// group with the largest proportional-quota deficit, lowest index first on
/// ties. The oracle for tdg::DyGroupsCliqueLocalSized's size-class deal.
util::StatusOr<Grouping> DyGroupsCliqueLocalSized(
    const SkillVector& skills, const std::vector<int>& sizes);

/// One learning round over `grouping`: per-group vector<pair> sort, virtual
/// gain calls, in-place update. Returns LG(G_t).
util::StatusOr<double> ApplyRound(InteractionMode mode,
                                  const Grouping& grouping,
                                  const LearningGainFunction& gain,
                                  SkillVector& skills);

/// Like ApplyRound but always the O(Σ t_x²) pairwise clique path (no
/// Theorem-3 prefix shortcut).
util::StatusOr<double> ApplyRoundNaive(InteractionMode mode,
                                       const Grouping& grouping,
                                       const LearningGainFunction& gain,
                                       SkillVector& skills);

/// Round gain without mutating `skills`.
util::StatusOr<double> EvaluateRoundGain(InteractionMode mode,
                                         const Grouping& grouping,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills);

/// Gain contribution of a single group (inner term of Eq. 3).
util::StatusOr<double> EvaluateGroupGain(InteractionMode mode,
                                         const std::vector<int>& members,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills);

}  // namespace tdg::reference

#endif  // TDG_CORE_REFERENCE_REFERENCE_KERNELS_H_
