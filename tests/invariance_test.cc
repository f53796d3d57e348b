// Structural invariances of the model and algorithms: relabeling
// participants, scaling skills, and adding stronger members must affect
// outcomes exactly the way the theory says.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "core/dygroups.h"
#include "core/process.h"
#include "random/distributions.h"

namespace tdg {
namespace {

std::vector<double> SortedDesc(std::vector<double> v) {
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

// Shared linear gain for the invariance checks (function-local static
// pointer per the style rules on non-trivial static destruction).
const LinearGain& Gain() {
  static const LinearGain* const kGain = new LinearGain(0.5);
  return *kGain;
}

// Relabeling participants permutes the final skills the same way: the
// model has no identity-dependent behavior.
TEST(InvarianceTest, ParticipantRelabelingPermutesOutcome) {
  random::Rng rng(1);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 20);
  // Make skills distinct so the permutation map is unambiguous.
  std::sort(skills.begin(), skills.end());
  for (size_t i = 1; i < skills.size(); ++i) {
    if (skills[i] <= skills[i - 1]) skills[i] = skills[i - 1] + 1e-6;
  }

  std::vector<int> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = 19; i > 0; --i) {
    int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i + 1)));
    std::swap(perm[i], perm[j]);
  }
  SkillVector permuted(20);
  for (int i = 0; i < 20; ++i) permuted[perm[i]] = skills[i];

  for (InteractionMode mode :
       {InteractionMode::kStar, InteractionMode::kClique}) {
    auto policy_a = MakeDyGroupsPolicy(mode);
    auto policy_b = MakeDyGroupsPolicy(mode);
    ProcessConfig config;
    config.num_groups = 4;
    config.num_rounds = 3;
    config.mode = mode;
    auto original = RunProcess(skills, config, Gain(), *policy_a);
    auto relabeled = RunProcess(permuted, config, Gain(), *policy_b);
    ASSERT_TRUE(original.ok() && relabeled.ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(relabeled->final_skills[perm[i]],
                  original->final_skills[i], 1e-12)
          << InteractionModeName(mode);
    }
    EXPECT_NEAR(original->total_gain, relabeled->total_gain, 1e-9);
  }
}

// Linear gain is positively homogeneous: scaling all skills by c scales
// every gain and final skill by c.
TEST(InvarianceTest, SkillScalingScalesOutcome) {
  random::Rng rng(2);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kUniform, 12);
  for (double& s : skills) s += 0.01;
  SkillVector scaled = skills;
  constexpr double kScale = 37.5;
  for (double& s : scaled) s *= kScale;

  DyGroupsStarPolicy policy_a;
  DyGroupsStarPolicy policy_b;
  ProcessConfig config;
  config.num_groups = 3;
  config.num_rounds = 4;
  auto original = RunProcess(skills, config, Gain(), policy_a);
  auto scaled_result = RunProcess(scaled, config, Gain(), policy_b);
  ASSERT_TRUE(original.ok() && scaled_result.ok());
  EXPECT_NEAR(scaled_result->total_gain, kScale * original->total_gain,
              1e-7 * kScale);
  for (size_t i = 0; i < skills.size(); ++i) {
    EXPECT_NEAR(scaled_result->final_skills[i],
                kScale * original->final_skills[i], 1e-9 * kScale);
  }
}

// Shifting all skills by a constant leaves gains invariant (only
// differences matter).
TEST(InvarianceTest, SkillShiftLeavesGainInvariant) {
  random::Rng rng(3);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kUniform, 12);
  for (double& s : skills) s += 0.01;
  SkillVector shifted = skills;
  for (double& s : shifted) s += 100.0;

  DyGroupsCliquePolicy policy_a;
  DyGroupsCliquePolicy policy_b;
  ProcessConfig config;
  config.num_groups = 2;
  config.num_rounds = 3;
  config.mode = InteractionMode::kClique;
  auto original = RunProcess(skills, config, Gain(), policy_a);
  auto shifted_result =
      RunProcess(shifted, config, Gain(), policy_b);
  ASSERT_TRUE(original.ok() && shifted_result.ok());
  EXPECT_NEAR(original->total_gain, shifted_result->total_gain, 1e-7);
}

// Raising the top participant's skill can only raise the round-optimal
// star gain (more to learn from the best teacher).
TEST(InvarianceTest, StrongerTopTeacherNeverHurtsRoundGain) {
  random::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    SkillVector skills =
        random::GenerateSkills(rng, random::SkillDistribution::kUniform, 12);
    for (double& s : skills) s += 0.01;
    int top = static_cast<int>(
        std::max_element(skills.begin(), skills.end()) - skills.begin());

    auto base_grouping = DyGroupsStarLocal(skills, 3);
    ASSERT_TRUE(base_grouping.ok());
    double base = EvaluateRoundGain(InteractionMode::kStar,
                                    base_grouping.value(), Gain(),
                                    skills)
                      .value();

    SkillVector boosted = skills;
    boosted[top] += 1.0;
    auto boosted_grouping = DyGroupsStarLocal(boosted, 3);
    ASSERT_TRUE(boosted_grouping.ok());
    double after = EvaluateRoundGain(InteractionMode::kStar,
                                     boosted_grouping.value(),
                                     Gain(), boosted)
                       .value();
    EXPECT_GE(after, base - 1e-12);
  }
}

// The final skill multiset is independent of the input order for DyGroups
// (sorting-based policies) — a weaker but broadly useful relabeling check.
TEST(InvarianceTest, FinalSkillMultisetOrderIndependent) {
  random::Rng rng(5);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kZipf, 18);
  SkillVector reversed(skills.rbegin(), skills.rend());

  DyGroupsStarPolicy policy_a;
  DyGroupsStarPolicy policy_b;
  ProcessConfig config;
  config.num_groups = 3;
  config.num_rounds = 5;
  auto a = RunProcess(skills, config, Gain(), policy_a);
  auto b = RunProcess(reversed, config, Gain(), policy_b);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<double> sa = SortedDesc(a->final_skills);
  std::vector<double> sb = SortedDesc(b->final_skills);
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-9);
  }
}

// The whole invariance battery is about *outcomes*; the SoA plane promises
// the outcomes are additionally invariant to which execution path produced
// them. Run one representative process both ways — fused (history off) and
// generic (history on) — and require bitwise agreement.
TEST(InvarianceTest, ExecutionPathInvariance) {
  random::Rng rng(6);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 24);
  for (double& s : skills) s += 0.01;

  for (InteractionMode mode :
       {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector baseline;
    for (bool history : {false, true}) {
      auto policy = MakeDyGroupsPolicy(mode);
      ProcessConfig config;
      config.num_groups = 4;
      config.num_rounds = 4;
      config.mode = mode;
      config.record_history = history;
      auto result = RunProcess(skills, config, Gain(), *policy);
      ASSERT_TRUE(result.ok());
      if (baseline.empty()) {
        baseline = result->final_skills;
        continue;
      }
      ASSERT_EQ(result->final_skills.size(), baseline.size());
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(result->final_skills[i]),
                  std::bit_cast<uint64_t>(baseline[i]))
            << InteractionModeName(mode) << " history=" << history
            << " participant " << i;
      }
    }
  }
}

}  // namespace
}  // namespace tdg
