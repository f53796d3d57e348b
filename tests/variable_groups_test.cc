#include "core/variable_groups.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dygroups.h"
#include "core/reference/reference_kernels.h"
#include "random/distributions.h"
#include "serve/cohort.h"

namespace tdg {
namespace {

TEST(SizeProfileTest, Validation) {
  EXPECT_TRUE(ValidateSizeProfile({2, 3, 4}, 9).ok());
  EXPECT_FALSE(ValidateSizeProfile({}, 0).ok());
  EXPECT_FALSE(ValidateSizeProfile({2, 0, 4}, 6).ok());
  EXPECT_FALSE(ValidateSizeProfile({2, 3}, 6).ok());
}

TEST(SizedStarTest, TeachersAreTopMAndSizesRespected) {
  SkillVector skills = {9, 1, 8, 2, 7, 3, 6, 4, 5};  // n = 9
  std::vector<int> sizes = {2, 3, 4};
  auto grouping = DyGroupsStarLocalSized(skills, sizes);
  ASSERT_TRUE(grouping.ok());
  ASSERT_TRUE(grouping->ValidatePartition(9).ok());
  for (size_t g = 0; g < sizes.size(); ++g) {
    EXPECT_EQ(static_cast<int>(grouping->groups[g].size()), sizes[g]);
  }
  // Teachers: the strongest (skill 9, id 0) leads the largest group
  // (size 4 = group 2), then skill 8 -> size-3 group, skill 7 -> size-2
  // group (rearrangement-optimal matching).
  EXPECT_EQ(grouping->groups[2].front(), 0);
  EXPECT_EQ(grouping->groups[1].front(), 2);
  EXPECT_EQ(grouping->groups[0].front(), 4);
}

TEST(SizedCliqueTest, QuotaDealGivesProportionalCrossSections) {
  SkillVector skills = {6, 5, 4, 3, 2, 1};
  std::vector<int> sizes = {2, 4};
  auto grouping = DyGroupsCliqueLocalSized(skills, sizes);
  ASSERT_TRUE(grouping.ok());
  // Quota deal (group g owed size_g * (rank+1) / n): ranks go
  // g1, g0, g1, g1, g0, g1 — each group receives a proportional
  // cross-section of the skill range instead of the top block.
  EXPECT_EQ(grouping->groups[0], (std::vector<int>{1, 4}));
  EXPECT_EQ(grouping->groups[1], (std::vector<int>{0, 2, 3, 5}));
}

TEST(SizedCliqueTest, EveryGroupSpansTheSkillRangeUnderSkew) {
  // 60 members, one giant group: the giant must not absorb the entire weak
  // tail, and the small groups must not be elite-only.
  SkillVector skills(60);
  for (int i = 0; i < 60; ++i) skills[i] = 60.0 - i;  // id i has rank i
  std::vector<int> sizes = {5, 5, 50};
  auto grouping = DyGroupsCliqueLocalSized(skills, sizes);
  ASSERT_TRUE(grouping.ok());
  for (int g = 0; g < 2; ++g) {
    int min_rank = 60;
    int max_rank = -1;
    for (int id : grouping->groups[g]) {
      min_rank = std::min(min_rank, id);
      max_rank = std::max(max_rank, id);
    }
    EXPECT_LT(min_rank, 15) << "group " << g << " lacks a strong member";
    EXPECT_GT(max_rank, 45) << "group " << g << " lacks a weak member";
  }
}

// The size-class deal against the O(n·k) scan it replaced: the groups,
// member order included, must be identical.
void ExpectCliqueMatchesOracle(const SkillVector& skills,
                               const std::vector<int>& sizes) {
  auto dealt = DyGroupsCliqueLocalSized(skills, sizes);
  auto oracle = reference::DyGroupsCliqueLocalSized(skills, sizes);
  ASSERT_TRUE(dealt.ok()) << dealt.status();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(dealt->groups, oracle->groups)
      << "n=" << skills.size() << " k=" << sizes.size();
}

TEST(SizedCliqueDifferentialTest, RandomMultiSizeProfilesMatchTheScan) {
  random::Rng rng(15);
  for (int trial = 0; trial < 400; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextBounded(40));
    // Few distinct sizes on most trials, a spread of many on the rest, and
    // now and then one giant group (skewed profiles).
    const int max_size = trial % 3 == 0 ? 30 : 1 + trial % 4;
    std::vector<int> sizes(static_cast<size_t>(k));
    int n = 0;
    for (int& size : sizes) {
      size = 1 + static_cast<int>(rng.NextBounded(max_size));
      n += size;
    }
    if (trial % 7 == 0) {
      sizes[rng.NextBounded(static_cast<uint64_t>(k))] += 200;
      n += 200;
    }
    // Coarse skills, so the sort's tie order is exercised too.
    SkillVector skills(static_cast<size_t>(n));
    for (double& skill : skills) {
      skill = 1.0 + static_cast<double>(rng.NextBounded(8));
    }
    ExpectCliqueMatchesOracle(skills, sizes);
  }
}

class SizedCliqueBalancedTest : public testing::TestWithParam<int> {};

TEST_P(SizedCliqueBalancedTest, ServedProfilesMatchTheScan) {
  const int n = GetParam();
  random::Rng rng(static_cast<uint64_t>(n));
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, n);
  for (int group_size = 1; group_size <= 7; ++group_size) {
    auto sizes = serve::Cohort::SizeProfileFor(n, group_size);
    ASSERT_TRUE(sizes.ok()) << sizes.status();
    ExpectCliqueMatchesOracle(skills, *sizes);
  }
}

INSTANTIATE_TEST_SUITE_P(CohortSizes, SizedCliqueBalancedTest,
                         testing::Values(1, 2, 7, 9999, 10000, 10001,
                                         12345));

TEST(SizedPoliciesTest, ReduceToEquiSizedAlgorithms) {
  random::Rng rng(5);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 12);
  std::vector<int> uniform_sizes = {4, 4, 4};
  auto sized_star = DyGroupsStarLocalSized(skills, uniform_sizes);
  auto equi_star = DyGroupsStarLocal(skills, 3);
  ASSERT_TRUE(sized_star.ok() && equi_star.ok());
  EXPECT_EQ(sized_star->CanonicalKey(), equi_star->CanonicalKey());

  auto sized_clique = DyGroupsCliqueLocalSized(skills, uniform_sizes);
  auto equi_clique = DyGroupsCliqueLocal(skills, 3);
  ASSERT_TRUE(sized_clique.ok() && equi_clique.ok());
  EXPECT_EQ(sized_clique->CanonicalKey(), equi_clique->CanonicalKey());
}

TEST(RandomGroupingSizedTest, ValidAndSeeded) {
  random::Rng rng(6);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 10);
  std::vector<int> sizes = {3, 3, 4};
  random::Rng policy_rng(7);
  auto grouping = RandomGroupingSized(skills, sizes, policy_rng);
  ASSERT_TRUE(grouping.ok());
  ASSERT_TRUE(grouping->ValidatePartition(10).ok());
  for (size_t g = 0; g < sizes.size(); ++g) {
    EXPECT_EQ(static_cast<int>(grouping->groups[g].size()), sizes[g]);
  }
}

TEST(RunSizedProcessTest, RunsAndBeatsRandomOnAverage) {
  random::Rng rng(8);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 30);
  std::vector<int> sizes = {3, 5, 7, 15};
  LinearGain gain(0.5);

  SizedProcessConfig config;
  config.group_sizes = sizes;
  config.num_rounds = 4;
  config.mode = InteractionMode::kStar;

  auto dygroups = RunSizedProcess(
      skills, config, gain,
      [](const SkillVector& s, const std::vector<int>& sz) {
        return DyGroupsStarLocalSized(s, sz);
      });
  ASSERT_TRUE(dygroups.ok());
  EXPECT_EQ(dygroups->round_gains.size(), 4u);
  EXPECT_GT(dygroups->total_gain, 0.0);
  for (const RoundRecord& record : dygroups->history) {
    for (size_t g = 0; g < sizes.size(); ++g) {
      EXPECT_EQ(static_cast<int>(record.grouping.groups[g].size()),
                sizes[g]);
    }
  }

  double random_total = 0.0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    random::Rng policy_rng(100 + run);
    auto result = RunSizedProcess(
        skills, config, gain,
        [&policy_rng](const SkillVector& s, const std::vector<int>& sz) {
          return RandomGroupingSized(s, sz, policy_rng);
        });
    ASSERT_TRUE(result.ok());
    random_total += result->total_gain;
  }
  EXPECT_GT(dygroups->total_gain, random_total / kRuns);
}

TEST(RunSizedProcessTest, RejectsRuleViolatingProfile) {
  SkillVector skills = {1, 2, 3, 4};
  LinearGain gain(0.5);
  SizedProcessConfig config;
  config.group_sizes = {2, 2};
  config.num_rounds = 1;
  auto result = RunSizedProcess(
      skills, config, gain,
      [](const SkillVector&, const std::vector<int>&) {
        return Grouping({{0}, {1, 2, 3}});  // wrong sizes
      });
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace tdg
