// Tests for the carried rank order of the fused DyGroups round
// (soa::CarriedOrder, DESIGN.md §11).
//
// A round that receives a CarriedOrder merges the ascending runs its
// predecessor left instead of sorting from scratch, or falls back to the
// sort past soa::kMaxCarriedRuns. Either way its gains and skills must be
// bit for bit those of a round without it and of the AoS reference oracle.
// Every case here runs the same population three ways over several rounds:
//   - RunProcess, which carries the order across its fused rounds;
//   - DyGroupsRound round by round without a carried order;
//   - reference::DyGroups*Local + reference::ApplyRound;
// and a fourth time through DyGroupsRound with a hand-held CarriedOrder,
// whose run counts say which tier each round took.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dygroups.h"
#include "core/learning_gain.h"
#include "core/process.h"
#include "core/reference/reference_kernels.h"
#include "core/skills.h"
#include "core/soa.h"
#include "obs/flight_recorder.h"
#include "random/distributions.h"

namespace tdg {
namespace {

using soa::DyGroupsLayout;

constexpr int kRounds = 5;

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " diverges at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// Round gains and the skills after every round of one multi-round run
// (RunProcess reports only the last).
struct Trace {
  std::vector<double> gains;
  std::vector<SkillVector> skills;
};

struct Case {
  DyGroupsLayout layout;
  InteractionMode mode;
  int num_groups;
};

std::string CaseName(const Case& c) {
  return std::string(c.layout == DyGroupsLayout::kStarBlocks ? "star-blocks"
                                                             : "round-robin") +
         "/" + std::string(InteractionModeName(c.mode)) +
         " k=" + std::to_string(c.num_groups);
}

// Strictly ascending (key, id) runs in a carried order.
size_t CountRuns(std::span<const soa::KeyId> records) {
  size_t runs = records.empty() ? 0 : 1;
  for (size_t i = 1; i < records.size(); ++i) {
    const soa::KeyId& a = records[i - 1];
    const soa::KeyId& b = records[i];
    if (!(a.key() < b.key() || (a.key() == b.key() && a.id < b.id))) ++runs;
  }
  return runs;
}

Trace ReferenceRounds(const Case& c, const LearningGainFunction& gain,
                      SkillVector skills) {
  Trace trace;
  for (int t = 0; t < kRounds; ++t) {
    auto grouping = c.layout == DyGroupsLayout::kStarBlocks
                        ? reference::DyGroupsStarLocal(skills, c.num_groups)
                        : reference::DyGroupsCliqueLocal(skills, c.num_groups);
    EXPECT_TRUE(grouping.ok()) << grouping.status();
    auto round_gain =
        reference::ApplyRound(c.mode, grouping.value(), gain, skills);
    EXPECT_TRUE(round_gain.ok()) << round_gain.status();
    trace.gains.push_back(round_gain.value());
    trace.skills.push_back(skills);
  }
  return trace;
}

Trace FreshRounds(const Case& c, const LearningGainFunction& gain,
                  SkillVector skills) {
  Trace trace;
  for (int t = 0; t < kRounds; ++t) {
    auto round_gain = soa::DyGroupsRound(c.layout, c.mode, gain, skills,
                                         c.num_groups,
                                         soa::ThreadLocalArena());
    EXPECT_TRUE(round_gain.ok()) << round_gain.status();
    trace.gains.push_back(round_gain.value());
    trace.skills.push_back(skills);
  }
  return trace;
}

// DyGroupsRound with a CarriedOrder, as RunProcess drives it. `runs` gets,
// for every round after the first, the runs the carried order held when
// that round began.
Trace CarriedRounds(const Case& c, const LearningGainFunction& gain,
                    SkillVector skills, std::vector<size_t>* runs) {
  soa::Arena& arena = soa::ThreadLocalArena();
  soa::ArenaScope scope(arena);
  soa::CarriedOrder carried;
  carried.records = arena.Alloc<soa::KeyId>(skills.size());
  carried.spare = arena.Alloc<soa::KeyId>(skills.size());
  Trace trace;
  for (int t = 0; t < kRounds; ++t) {
    if (carried.primed) runs->push_back(CountRuns(carried.records));
    auto round_gain = soa::DyGroupsRound(c.layout, c.mode, gain, skills,
                                         c.num_groups, arena, nullptr,
                                         &carried);
    EXPECT_TRUE(round_gain.ok()) << round_gain.status();
    trace.gains.push_back(round_gain.value());
    trace.skills.push_back(skills);
  }
  return trace;
}

Trace ProcessRounds(const Case& c, const LearningGainFunction& gain,
                    const SkillVector& skills) {
  ProcessConfig config;
  config.num_groups = c.num_groups;
  config.num_rounds = kRounds;
  config.mode = c.mode;
  config.record_history = false;  // the fused path carries the order
  std::unique_ptr<GroupingPolicy> policy;
  if (c.layout == DyGroupsLayout::kStarBlocks) {
    policy = std::make_unique<DyGroupsStarPolicy>();
  } else {
    policy = std::make_unique<DyGroupsCliquePolicy>();
  }
  auto result = RunProcess(skills, config, gain, *policy);
  EXPECT_TRUE(result.ok()) << result.status();
  return {result.value().round_gains, {result.value().final_skills}};
}

// Runs `skills` through all four paths and requires one bitwise answer.
// Returns the carried order's run counts.
std::vector<size_t> ExpectAllPathsAgree(const Case& c,
                                          const LearningGainFunction& gain,
                                          const SkillVector& skills) {
  SCOPED_TRACE(CaseName(c) + " n=" + std::to_string(skills.size()));
  const Trace reference = ReferenceRounds(c, gain, skills);
  const Trace fresh = FreshRounds(c, gain, skills);
  std::vector<size_t> runs;
  const Trace carried = CarriedRounds(c, gain, skills, &runs);
  const Trace process = ProcessRounds(c, gain, skills);
  ExpectBitwiseEqual(fresh.gains, reference.gains, "fresh round gains");
  ExpectBitwiseEqual(carried.gains, reference.gains, "carried round gains");
  ExpectBitwiseEqual(process.gains, reference.gains, "process round gains");
  for (int t = 0; t < kRounds; ++t) {
    const std::string round = " after round " + std::to_string(t);
    ExpectBitwiseEqual(fresh.skills[t], reference.skills[t],
                       "fresh skills" + round);
    ExpectBitwiseEqual(carried.skills[t], reference.skills[t],
                       "carried skills" + round);
  }
  ExpectBitwiseEqual(process.skills.back(), reference.skills.back(),
                     "process final skills");
  return runs;
}

std::vector<Case> AllCases(int n) {
  std::vector<Case> cases;
  for (DyGroupsLayout layout :
       {DyGroupsLayout::kStarBlocks, DyGroupsLayout::kRoundRobin}) {
    for (InteractionMode mode :
         {InteractionMode::kStar, InteractionMode::kClique}) {
      for (int k : {5, 8, 40}) {
        if (n % k == 0) cases.push_back({layout, mode, k});
      }
    }
  }
  return cases;
}

SkillVector LogNormalSkills(uint64_t seed, int n) {
  random::Rng rng(seed);
  SkillVector skills(static_cast<size_t>(n));
  for (double& s : skills) {
    s = random::LogNormal(rng, std::exp(1.0), std::sqrt(std::exp(1.0)));
  }
  return skills;
}

// Both layouts × both modes × linear and non-linear gains, at n below, at
// and above the 2048-record radix cutoff.
TEST(CarriedOrderTest, MatchesFreshRoundsAndReferenceAroundRadixCutoff) {
  const LinearGain linear(0.35);
  const PowerGain power(0.35, 0.7);
  for (int n : {2040, 2045, 2048, 2050, 2056}) {
    const SkillVector skills = LogNormalSkills(static_cast<uint64_t>(n), n);
    for (const Case& c : AllCases(n)) {
      ExpectAllPathsAgree(c, linear, skills);
      ExpectAllPathsAgree(c, power, skills);
      if (HasFatalFailure()) return;
    }
  }
}

// Exact ties and an all-equal population: the carried runs must break
// ties by id exactly as the stable reference sort does.
TEST(CarriedOrderTest, TiedAndAllEqualSkills) {
  const LinearGain linear(0.4);
  const PowerGain power(0.4, 0.7);
  for (int n : {2040, 2048}) {
    random::Rng rng(static_cast<uint64_t>(n) + 1);
    SkillVector ties(static_cast<size_t>(n));
    for (double& s : ties) {
      s = std::floor(random::UniformReal(rng, 1.0, 4.0));
    }
    const SkillVector equal(static_cast<size_t>(n), 7.25);
    for (const SkillVector* skills :
         std::initializer_list<const SkillVector*>{&ties, &equal}) {
      for (const Case& c : AllCases(n)) {
        ExpectAllPathsAgree(c, linear, *skills);
        ExpectAllPathsAgree(c, power, *skills);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// A learner that catches up exactly with a teacher of another group ends
// the round in a different run than that teacher, with an equal key and a
// smaller id. The merge must order the two by id, as the reference's stable
// sort does; which of them teaches next round depends on it.
TEST(CarriedOrderTest, LearnerCatchingUpWithATeacherMergesInIdOrder) {
  const LinearGain gain(0.5);
  for (int n : {10, 2050}) {
    SkillVector skills(static_cast<size_t>(n));
    for (int i = 0; i < n - 2; ++i) skills[i] = 20.0 - 1e-3 * i;
    skills[n - 1] = 100.0;  // teaches learner 0: 20 + (100 - 20) / 2 = 60
    skills[n - 2] = 60.0;
    const Case c{DyGroupsLayout::kStarBlocks, InteractionMode::kStar, 2};
    const std::vector<size_t> runs = ExpectAllPathsAgree(c, gain, skills);
    ASSERT_FALSE(runs.empty());
    EXPECT_LE(runs[0], soa::kMaxCarriedRuns);  // the merge tier decides
    if (HasFatalFailure()) return;
  }
}

// Skills must be positive, so a -0.0 (or +0.0) never reaches either sort
// tier: every path rejects it with the same error before sorting, and a
// primed carried order is left as it was.
TEST(CarriedOrderTest, SignedZeroSkillsAreRejectedBeforeEitherTier) {
  const LinearGain gain(0.4);
  const Case c{DyGroupsLayout::kStarBlocks, InteractionMode::kStar, 5};
  SkillVector skills = LogNormalSkills(5, 2050);

  soa::Arena& arena = soa::ThreadLocalArena();
  soa::ArenaScope scope(arena);
  soa::CarriedOrder carried;
  carried.records = arena.Alloc<soa::KeyId>(skills.size());
  carried.spare = arena.Alloc<soa::KeyId>(skills.size());
  ASSERT_TRUE(soa::DyGroupsRound(c.layout, c.mode, gain, skills,
                                 c.num_groups, arena, nullptr, &carried)
                  .ok());
  const std::vector<soa::KeyId> primed(carried.records.begin(),
                                       carried.records.end());

  SkillVector signed_zero = skills;
  signed_zero[17] = -0.0;
  SkillVector fresh = signed_zero;
  auto fresh_gain = soa::DyGroupsRound(c.layout, c.mode, gain, fresh,
                                       c.num_groups, arena);
  auto carried_gain = soa::DyGroupsRound(c.layout, c.mode, gain, signed_zero,
                                         c.num_groups, arena, nullptr,
                                         &carried);
  ASSERT_FALSE(fresh_gain.ok());
  ASSERT_FALSE(carried_gain.ok());
  EXPECT_EQ(carried_gain.status().ToString(), fresh_gain.status().ToString());
  ExpectBitwiseEqual(signed_zero, fresh, "skills after the rejected round");
  ASSERT_EQ(carried.records.size(), primed.size());
  for (size_t i = 0; i < primed.size(); ++i) {
    ASSERT_EQ(carried.records[i].key(), primed[i].key());
    ASSERT_EQ(carried.records[i].id, primed[i].id);
  }

  DyGroupsStarPolicy policy;
  ProcessConfig config;
  config.num_groups = c.num_groups;
  config.num_rounds = kRounds;
  config.record_history = false;
  auto process = RunProcess(fresh, config, gain, policy);
  ASSERT_FALSE(process.ok());
  EXPECT_EQ(process.status().ToString(), fresh_gain.status().ToString());
}

// Both tiers are exercised: the star-blocks layout leaves few runs (the
// merge, every round), round-robin past the cap (the fallback sort, after
// which the order is dropped and no later round looks for runs), and the
// answers agree either way.
TEST(CarriedOrderTest, MergeTierAndFallbackBothTaken) {
  const LinearGain gain(0.5);
  const int n = 4000;
  const SkillVector skills = LogNormalSkills(3, n);

  const std::vector<size_t> star_runs = ExpectAllPathsAgree(
      {DyGroupsLayout::kStarBlocks, InteractionMode::kStar, 5}, gain, skills);
  ASSERT_EQ(star_runs.size(), static_cast<size_t>(kRounds - 1));
  for (size_t runs : star_runs) {
    EXPECT_GE(runs, 2u);
    EXPECT_LE(runs, soa::kMaxCarriedRuns);
  }

  const std::vector<size_t> clique_runs = ExpectAllPathsAgree(
      {DyGroupsLayout::kStarBlocks, InteractionMode::kClique, 5}, gain,
      skills);
  ASSERT_EQ(clique_runs.size(), static_cast<size_t>(kRounds - 1));
  for (size_t runs : clique_runs) EXPECT_LE(runs, soa::kMaxCarriedRuns);

  const std::vector<size_t> round_robin_runs = ExpectAllPathsAgree(
      {DyGroupsLayout::kRoundRobin, InteractionMode::kClique, 5}, gain,
      skills);
  ASSERT_EQ(round_robin_runs.size(), 1u);
  EXPECT_GT(round_robin_runs[0], soa::kMaxCarriedRuns);
}

// With the flight recorder on, RunProcess fills the round introspection
// alongside the carried order; the results must not move.
TEST(CarriedOrderTest, FlightRecorderOnLeavesResultsUnchanged) {
  const LinearGain gain(0.3);
  const SkillVector skills = LogNormalSkills(9, 2500);
  const Case c{DyGroupsLayout::kStarBlocks, InteractionMode::kStar, 5};
  const Trace off = ProcessRounds(c, gain, skills);

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  obs::FlightRecorder::Options options;
  options.path = ::testing::TempDir() + "carried_order_" +
                 std::to_string(::getpid()) + ".blackbox";
  ASSERT_TRUE(recorder.Start(options).ok());
  const Trace on = ProcessRounds(c, gain, skills);
  recorder.Stop();

  ExpectBitwiseEqual(on.gains, off.gains, "recorded round gains");
  ExpectBitwiseEqual(on.skills.back(), off.skills.back(), "recorded skills");
  ExpectAllPathsAgree(c, gain, skills);
}

}  // namespace
}  // namespace tdg
