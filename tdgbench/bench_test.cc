#include <algorithm>
#include <map>

#include "gtest/gtest.h"
#include "schedule.h"
#include "stats.h"

namespace tdgbench {
namespace {

TEST(ScheduleTest, SameSeedGivesByteIdenticalSchedule) {
  for (const ServeSpec* spec :
       {&ServeSmallSpec(), &ServeLargeSpec()}) {
    const std::string a = MakeSchedule(*spec, 42, 2).Serialize();
    const std::string b = MakeSchedule(*spec, 42, 2).Serialize();
    EXPECT_EQ(a, b) << spec->name;
    EXPECT_NE(a, MakeSchedule(*spec, 43, 2).Serialize()) << spec->name;
  }
}

TEST(ScheduleTest, OpMixMatchesTheSpec) {
  const ServeSpec& spec = ServeSmallSpec();
  const Schedule schedule = MakeSchedule(spec, 7, 5);
  std::map<OpKind, long long> counts;
  for (const Op& op : schedule.ops) ++counts[op.kind];
  const long long total = static_cast<long long>(schedule.ops.size());
  EXPECT_EQ(total, static_cast<long long>(spec.ops_per_s * 5));
  EXPECT_EQ(counts[OpKind::kJoin] + counts[OpKind::kLeave],
            total * spec.churn_pm / 1000);
  EXPECT_EQ(counts[OpKind::kRoundRead], total * spec.round_read_pm / 1000);
  EXPECT_EQ(counts[OpKind::kSummary], total * spec.summary_pm / 1000);
  // Balanced: joins and leaves differ by at most the band per cohort.
  EXPECT_LE(std::abs(counts[OpKind::kJoin] - counts[OpKind::kLeave]),
            static_cast<long long>(spec.band) * spec.num_cohorts);
  // Every cohort gets the same number of ops of each kind, +-1.
  std::map<int, long long> advances;
  for (const Op& op : schedule.ops) {
    if (op.kind == OpKind::kAdvance) ++advances[op.cohort];
  }
  ASSERT_EQ(advances.size(), static_cast<size_t>(spec.num_cohorts));
  for (const auto& [cohort, n] : advances) {
    EXPECT_NEAR(n, counts[OpKind::kAdvance] / spec.num_cohorts, 1) << cohort;
  }
}

TEST(ScheduleTest, BalancedChurnKeepsCohortSizesInTheBand) {
  for (const ServeSpec* spec :
       {&ServeSmallSpec(), &ServeLargeSpec()}) {
    const Schedule schedule = MakeSchedule(*spec, 11, 10);
    std::vector<int> size(static_cast<size_t>(spec->num_cohorts),
                          spec->cohort_size);
    for (const Op& op : schedule.ops) {
      if (op.kind == OpKind::kJoin) ++size[static_cast<size_t>(op.cohort)];
      if (op.kind == OpKind::kLeave) --size[static_cast<size_t>(op.cohort)];
      if (op.kind == OpKind::kJoin || op.kind == OpKind::kLeave) {
        const int s = size[static_cast<size_t>(op.cohort)];
        ASSERT_GE(s, spec->cohort_size - spec->band) << spec->name;
        ASSERT_LE(s, spec->cohort_size + spec->band) << spec->name;
      }
    }
  }
}

TEST(ScheduleTest, OpsTargetValidStateAndStayOnOneLanePerCohort) {
  const Schedule schedule = MakeSchedule(ServeLargeSpec(), 3, 4);
  std::map<int, int> lane_of;
  std::map<int, int> rounds;
  double last_due = 0;
  for (const Op& op : schedule.ops) {
    EXPECT_GE(op.due_s, last_due);
    last_due = op.due_s;
    if (op.cohort < 0 || op.kind == OpKind::kEnroll) continue;
    auto [it, inserted] = lane_of.emplace(op.cohort, op.lane);
    EXPECT_EQ(it->second, op.lane);
    if (op.kind == OpKind::kAdvance) ++rounds[op.cohort];
    if (op.kind == OpKind::kRoundRead) {
      // Set-up advances every base cohort once before the load.
      EXPECT_EQ(op.round, rounds[op.cohort]);
    }
  }
}

TEST(PercentileTest, RefusesP99FromFewerThan1000Samples) {
  std::vector<double> samples(999);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i);
  }
  EXPECT_FALSE(Percentile(samples, 99).ok());
  samples.push_back(999);
  auto p99 = Percentile(samples, 99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(*p99, 989);  // nearest rank: the 990th of 1000
  EXPECT_EQ(*Percentile(samples, 50), 499);
  EXPECT_FALSE(Percentile({}, 50).ok());
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileTest, TailValueFallsBackToTheTenthLargest) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_EQ(TailValue(samples), 91);
  EXPECT_EQ(TailValue({5, 7}), 5);
  EXPECT_EQ(TailValue({}), 0);
}

TEST(PercentileTest, BestQuartileTakesTheBetterSide) {
  EXPECT_EQ(BestQuartile({5, 1, 4, 2, 3, 9, 7, 8}, false), 2);
  EXPECT_EQ(BestQuartile({5, 1, 4, 2, 3, 9, 7, 8}, true), 8);
  EXPECT_EQ(BestQuartile({3}, true), 3);
}

TEST(PercentileTest, BetterShareCountsFromTheBetterEnd) {
  std::vector<double> values;
  for (int i = 1; i <= 20; ++i) values.push_back(i);
  EXPECT_EQ(BetterShare(values, 0.1, false), 2);
  EXPECT_EQ(BetterShare(values, 0.1, true), 19);
  EXPECT_EQ(BetterShare({4, 2, 9}, 0.1, false), 2);  // rank 1: the best
  EXPECT_EQ(BetterShare({4, 2, 9}, 1.0, false), 9);
}

TEST(PercentileTest, GeometricMeanPercentileWeighsEachGroupOnce) {
  std::map<std::string, std::vector<double>> groups;
  groups["fast"] = std::vector<double>(1000, 1.0);
  groups["slow"] = std::vector<double>(10, 100.0);
  groups["rare"] = {1e6};  // under the sample floor: left out
  EXPECT_NEAR(GeometricMeanPercentile(groups, 10, 10), 10.0, 1e-9);
  EXPECT_EQ(GeometricMeanPercentile({}, 10, 10), 0);
}

TEST(PercentileTest, ChunkedKindPercentileFollowsTheQuietChunks) {
  std::vector<std::pair<std::string, double>> samples;
  for (int c = 0; c < 10; ++c) {
    const double slow = c == 0 ? 1.0 : 3.0;  // one quiet chunk in ten
    for (int i = 0; i < 500; ++i) {
      samples.emplace_back("a", 1.0 * slow);
      samples.emplace_back("b", 4.0 * slow);
    }
  }
  EXPECT_NEAR(ChunkedKindPercentile(samples, 10, 20), 2.0, 1e-9);
  // Under two chunks: the whole load, each kind counted once.
  samples.resize(1500);
  EXPECT_NEAR(ChunkedKindPercentile(samples, 10, 20), 2.0, 1e-9);
}

TEST(PercentileTest, ChunkedPercentileIgnoresAStallUnderHalfTheRun) {
  std::vector<double> samples(5000, 1.0);
  for (size_t i = 1000; i < 2000; ++i) samples[i] = 100.0;  // one bad chunk
  EXPECT_EQ(*ChunkedPercentile(samples, 99), 1.0);
  EXPECT_EQ(*Percentile(samples, 99), 100.0);
  // One chunk (remainder included): the plain percentile, refusals too.
  EXPECT_FALSE(ChunkedPercentile(std::vector<double>(999, 1.0), 99).ok());
  std::vector<double> one_chunk;
  for (int i = 0; i < 1999; ++i) one_chunk.push_back(i);
  EXPECT_EQ(*ChunkedPercentile(one_chunk, 50), 999);
  EXPECT_EQ(*ChunkedPercentile(one_chunk, 99), 1979);
}

TEST(PercentileTest, ChunkedRateFollowsTheQuietChunks) {
  std::vector<double> end_s;
  for (int i = 1; i <= 3000; ++i) end_s.push_back(i * 0.001);  // 1000/s
  for (double& t : end_s) {
    if (t > 1.0) t += 1.0;  // a 1 s stall before the second chunk
  }
  EXPECT_NEAR(ChunkedRate(end_s), 1000.0, 1e-6);
  EXPECT_NEAR(ChunkedRate({0.5, 1.0}), 2.0, 1e-12);
}

TEST(LadderTest, SelfTimeIsEntryMinusTheRungBelow) {
  const std::vector<Span> spans = {
      {1, 1, "entry", 0, 100},   {1, 2, "entry", 10, 70},
      {1, 3, "entry", 200, 240}, {1, 3, "child", 200, 210},
      {2, 1, "entry", 0, 50},    {2, 2, "entry", 5, 25},
      {3, 1, "entry", 0, 30},  // no rung-2 span: skipped
  };
  const auto socket_self = LadderSelfTimes(spans, 1, 2);
  ASSERT_EQ(socket_self.size(), 2u);
  EXPECT_DOUBLE_EQ(socket_self.at(1), 40);
  EXPECT_DOUBLE_EQ(socket_self.at(2), 30);
  const auto manager_self = LadderSelfTimes(spans, 2, 3);
  ASSERT_EQ(manager_self.size(), 1u);
  EXPECT_DOUBLE_EQ(manager_self.at(1), 20);  // child spans do not count
  EXPECT_EQ(SpanDurations(spans, 3, "child"), std::vector<double>{10});
  EXPECT_EQ(SpanDurations(spans, 1, "entry", {2, 3}),
            (std::vector<double>{50, 30}));
}

}  // namespace
}  // namespace tdgbench
