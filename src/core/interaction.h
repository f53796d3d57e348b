#ifndef TDG_CORE_INTERACTION_H_
#define TDG_CORE_INTERACTION_H_

#include <string_view>

#include "core/grouping.h"
#include "core/learning_gain.h"
#include "core/skills.h"
#include "util/statusor.h"

namespace tdg {

namespace obs {
class PerfDomain;
}  // namespace obs

/// Within-group interaction structure (paper §II):
///  - Star: every member learns only from the group's highest-skilled member.
///  - Clique: every member learns from all higher-skilled members of the
///    group; the total gain of the rank-i member is the *average* of its
///    (i-1) positive pairwise gains, which preserves the within-group skill
///    order after the round.
enum class InteractionMode { kStar, kClique };

std::string_view InteractionModeName(InteractionMode mode);
util::StatusOr<InteractionMode> ParseInteractionMode(std::string_view name);

/// Profiling domain (obs/perf_profile.h) a round's group kernels charge:
/// the star update, the Theorem-3 linear-clique prefix walk
/// (`clique_prefix`), or the naive O(t^2) clique path. ApplyRound, the
/// fused soa::DyGroupsRound and the reference oracle all attribute through
/// it, so the three report under the same names.
obs::PerfDomain& RoundKernelPerfDomain(InteractionMode mode,
                                       bool clique_prefix);

/// Applies one learning round: updates `skills` in place under `grouping` and
/// returns the round's aggregated learning gain LG(G_t) = Σ_x g(x) (Eq. 3).
///
/// All pairwise interactions use the *pre-round* skills (simultaneous round
/// semantics, matching the paper's worked examples). Ties in within-group
/// rank are broken by participant id, making the clique averaging
/// deterministic.
///
/// For the linear gain family in clique mode this runs the O(n) prefix-sum
/// update of Theorem 3; otherwise the general O(Σ t_x²) update. Groups of
/// unequal sizes are accepted (the §VII extension); `grouping` must be a
/// partition of {0..n-1}.
///
/// `group_gains_out`, when non-null, is cleared and filled with one entry
/// per group in grouping order (0.0 for size-1 groups, which never learn).
/// A pure extra output — the update arithmetic and the round-gain
/// accumulation order are untouched — feeding the flight recorder's
/// per-group gain summaries (obs/flight_recorder.h).
util::StatusOr<double> ApplyRound(InteractionMode mode,
                                  const Grouping& grouping,
                                  const LearningGainFunction& gain,
                                  SkillVector& skills,
                                  std::vector<double>* group_gains_out =
                                      nullptr);

/// Reference implementation that always evaluates every pairwise interaction
/// (O(Σ t_x²) even for linear gains). Used to validate Theorem 3.
util::StatusOr<double> ApplyRoundNaive(InteractionMode mode,
                                       const Grouping& grouping,
                                       const LearningGainFunction& gain,
                                       SkillVector& skills);

/// Round gain of `grouping` on `skills` without mutating them.
util::StatusOr<double> EvaluateRoundGain(InteractionMode mode,
                                         const Grouping& grouping,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills);

/// Gain contribution of a single group (the inner term of Eq. 3). Because
/// all interactions read pre-round skills and groups are disjoint, the round
/// gain decomposes as LG(G) = Σ_g EvaluateGroupGain(g) — summed in group
/// order this reproduces EvaluateRoundGain *bitwise* (both run the same
/// per-group kernel and accumulation order). This is the primitive behind
/// the O(n/k) swap-delta objective (objective.h) used by the SA baseline.
/// Groups of size <= 1 contribute exactly 0. Member ids must index `skills`.
util::StatusOr<double> EvaluateGroupGain(InteractionMode mode,
                                         const std::vector<int>& members,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills);

}  // namespace tdg

#endif  // TDG_CORE_INTERACTION_H_
