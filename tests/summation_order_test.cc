// Pins the accumulation order of every sum that reaches reported output
// (round gains, total gains, deficit totals, sweep means). Floating-point
// addition is not associative, so if a future SoA kernel vectorized one of
// these reductions the bits of sweep CSV/JSON cells would silently change.
// These tests use magnitude-adversarial inputs where *any* reassociation
// changes the result, and assert the exact sequential left-fold bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/skills.h"
#include "core/soa.h"
#include "stats/descriptive.h"

namespace tdg {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// {1e16, 1, -1e16} is the canonical associativity probe:
//   in this order: (1e16 + 1) + -1e16 = 1e16 + -1e16 = 0   (the 1 is lost)
//   reordered:     (1e16 + -1e16) + 1 = 0 + 1          = 1 (the 1 survives)
// so a reduction that reorders terms cannot reproduce these bits.
TEST(SummationOrderTest, OrderedSumIsTheSequentialLeftFold) {
  EXPECT_EQ(soa::OrderedSum(std::vector<double>{1e16, 1.0, -1e16}), 0.0);
  EXPECT_EQ(soa::OrderedSum(std::vector<double>{1e16, -1e16, 1.0}), 1.0);

  // Longer adversarial sequence: compare against an explicit scalar fold.
  std::vector<double> values;
  double x = 1.0;
  for (int i = 0; i < 100; ++i) {
    values.push_back(x);
    values.push_back(-x * (1.0 - 1e-13));
    x *= 1.9;
  }
  double fold = 0.0;
  for (double v : values) fold += v;
  EXPECT_EQ(Bits(soa::OrderedSum(values)), Bits(fold));
}

TEST(SummationOrderTest, TotalSkillUsesTheOrderedFold) {
  std::vector<double> skills = {1e16, 1.0, -1e16, 3.0, 1e-8};
  double fold = 0.0;
  for (double v : skills) fold += v;
  EXPECT_EQ(Bits(TotalSkill(skills)), Bits(fold));
}

TEST(SummationOrderTest, AggregateGainFoldsInParticipantOrder) {
  std::vector<double> before = {1.0, 1e16, 2.0};
  std::vector<double> after = {2.0, 1e16, 1.0};
  double fold = 0.0;
  for (size_t i = 0; i < before.size(); ++i) fold += after[i] - before[i];
  EXPECT_EQ(Bits(AggregateGain(before, after)), Bits(fold));
}

// A round gain is the left fold of group gains in grouping order, each group
// gain the left fold of member gains in rank order. Magnitude-adversarial
// skills make every alternative order produce different bits.
TEST(SummationOrderTest, RoundGainAccumulatesGroupsInGroupingOrder) {
  SkillVector skills = {1e16, 1.0,  0.5,   0.25,   // group 0 (huge teacher)
                        8.0,  4.0,  2.0,   1.0,    // group 1 (moderate)
                        3e-8, 2e-8, 1e-08, 0.5e-8};  // group 2 (tiny)
  Grouping grouping({{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}});
  LinearGain gain(0.5);
  for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
    double fold = 0.0;
    for (const auto& members : grouping.groups) {
      auto group_gain = EvaluateGroupGain(mode, members, gain, skills);
      ASSERT_TRUE(group_gain.ok());
      fold += group_gain.value();
    }
    SkillVector updated = skills;
    auto round_gain = ApplyRound(mode, grouping, gain, updated);
    ASSERT_TRUE(round_gain.ok());
    EXPECT_EQ(Bits(round_gain.value()), Bits(fold));
  }
}

// Groups the round kernel skips (singletons) must contribute exactly nothing
// — not even a `+ 0.0` in a different position of the fold.
TEST(SummationOrderTest, SkippedSingletonGroupsDoNotPerturbTheFold) {
  SkillVector skills = {1e16, 1.0, 42.0, 2.0, 1.5};
  Grouping with_singleton({{0, 1}, {2}, {3, 4}});
  Grouping without({{0, 1}, {3, 4}});
  LinearGain gain(0.5);
  SkillVector a = skills;
  SkillVector b = skills;
  auto ga = ApplyRound(InteractionMode::kStar, with_singleton, gain, a);
  SkillVector b_short = {skills[0], skills[1], skills[3], skills[4]};
  // Not directly comparable (different partitions of different sizes), but
  // the singleton-bearing round must equal the left fold of its two real
  // group gains.
  auto g0 = EvaluateGroupGain(InteractionMode::kStar, {0, 1}, gain, skills);
  auto g2 = EvaluateGroupGain(InteractionMode::kStar, {3, 4}, gain, skills);
  ASSERT_TRUE(ga.ok() && g0.ok() && g2.ok());
  EXPECT_EQ(Bits(ga.value()), Bits(0.0 + g0.value() + g2.value()));
  (void)b;
  (void)without;
}

// stats::Mean (the sweep's cell aggregator) is Kahan-compensated in run
// order. Pin its exact bits so a drive-by "optimization" to a plain or
// vectorized sum shows up as a test failure, not a golden-file surprise.
TEST(SummationOrderTest, SweepMeanIsCompensatedInRunOrder) {
  // 1.0 followed by many sub-ulp terms: a naive fold drops every one of
  // them, the compensated fold accumulates them — so this pin genuinely
  // distinguishes the two (and both differ from any vectorized order).
  std::vector<double> gains = {1.0};
  gains.insert(gains.end(), 10, 1e-16);
  double sum = 0.0;
  double compensation = 0.0;
  double naive = 0.0;
  for (double v : gains) {
    double y = v - compensation;
    double t = sum + y;
    compensation = (t - sum) - y;
    sum = t;
    naive += v;
  }
  ASSERT_NE(Bits(sum), Bits(naive)) << "probe is vacuous";
  EXPECT_EQ(Bits(stats::Mean(gains)),
            Bits(sum / static_cast<double>(gains.size())));
}

}  // namespace
}  // namespace tdg
