#include "exp/sweep.h"

#include <gtest/gtest.h>

#include "exp/sweep_config.h"

namespace tdg::exp {
namespace {

SweepConfig SmallConfig() {
  SweepConfig config;
  config.name = "unit";
  config.policies = {"DyGroups-Star", "Random-Assignment"};
  config.n_values = {40};
  config.k_values = {4};
  config.alpha_values = {3};
  config.r_values = {0.5};
  config.runs = 3;
  config.seed = 7;
  return config;
}

TEST(SweepConfigTest, ValidationCatchesBadGrids) {
  SweepConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.k_values = {7};  // 40 % 7 != 0
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.r_values = {1.5};
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.runs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.policies = {"No-Such-Policy"};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SweepConfigTest, TextRoundTrip) {
  SweepConfig config = SmallConfig();
  config.modes = {InteractionMode::kStar, InteractionMode::kClique};
  config.distributions = {random::SkillDistribution::kZipf};
  auto reparsed = SweepConfig::FromText(config.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->name, config.name);
  EXPECT_EQ(reparsed->policies, config.policies);
  EXPECT_EQ(reparsed->n_values, config.n_values);
  EXPECT_EQ(reparsed->modes, config.modes);
  EXPECT_EQ(reparsed->distributions, config.distributions);
  EXPECT_EQ(reparsed->runs, config.runs);
  EXPECT_EQ(reparsed->seed, config.seed);
}

TEST(SweepConfigTest, ParsesCommentsAndRejectsUnknownKeys) {
  auto config = SweepConfig::FromText(
      "# a comment\n"
      "name = from-text\n"
      "n = 20, 40\n"
      "k = 2\n"
      "policies = DyGroups-Star\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->name, "from-text");
  EXPECT_EQ(config->n_values, (std::vector<int>{20, 40}));

  EXPECT_FALSE(SweepConfig::FromText("frobnicate = 3\n").ok());
  EXPECT_FALSE(SweepConfig::FromText("just a line\n").ok());
  EXPECT_FALSE(SweepConfig::FromText("mode = ring\n").ok());
  EXPECT_FALSE(SweepConfig::FromFile("/nonexistent/sweep.cfg").ok());
}

TEST(GridPointsTest, CartesianProductInDeterministicOrder) {
  SweepConfig config = SmallConfig();
  config.n_values = {20, 40};
  config.r_values = {0.1, 0.9};
  std::vector<SweepPoint> points = GridPoints(config);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].n, 20);
  EXPECT_DOUBLE_EQ(points[0].r, 0.1);
  EXPECT_DOUBLE_EQ(points[1].r, 0.9);
  EXPECT_EQ(points[2].n, 40);
  EXPECT_EQ(config.NumPoints(), 4);
}

TEST(RunSweepTest, ProducesOneCellPerPointPolicyPair) {
  SweepConfig config = SmallConfig();
  auto result = RunSweep(config);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cells.size(), 2u);  // 1 point x 2 policies
  for (const SweepCell& cell : result->cells) {
    EXPECT_EQ(cell.runs, 3);
    EXPECT_GT(cell.mean_gain, 0.0);
    EXPECT_GE(cell.stderr_gain, 0.0);
    EXPECT_GT(cell.mean_micros, 0.0);
  }
  // DyGroups-Star >= Random on its own mode.
  EXPECT_GE(result->cells[0].mean_gain, result->cells[1].mean_gain);
}

TEST(RunSweepTest, DeterministicAcrossThreadCounts) {
  SweepConfig config = SmallConfig();
  config.n_values = {20, 40};
  config.r_values = {0.3, 0.7};
  config.threads = 1;
  auto serial = RunSweep(config);
  config.threads = 4;
  auto parallel = RunSweep(config);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->cells.size(), parallel->cells.size());
  for (size_t i = 0; i < serial->cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->cells[i].mean_gain,
                     parallel->cells[i].mean_gain)
        << i;
    EXPECT_EQ(serial->cells[i].policy, parallel->cells[i].policy);
  }
}

TEST(RunSweepTest, ExportsTableCsvAndJson) {
  SweepConfig config = SmallConfig();
  auto result = RunSweep(config);
  ASSERT_TRUE(result.ok());

  std::string table = result->ToTable();
  EXPECT_NE(table.find("DyGroups-Star"), std::string::npos);
  EXPECT_NE(table.find("n=40"), std::string::npos);

  util::CsvDocument csv = result->ToCsv();
  EXPECT_EQ(csv.num_rows(), result->cells.size());
  EXPECT_TRUE(csv.ColumnIndex("mean_gain").ok());

  util::JsonValue json = result->ToJson();
  EXPECT_EQ(json.GetField("name").value()->AsString(), "unit");
  EXPECT_EQ(json.GetField("cells").value()->AsArray().size(),
            result->cells.size());
  // The JSON serialization parses back.
  auto reparsed = util::JsonValue::Parse(json.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), json);
}

TEST(RunSweepTest, EmptyPolicyListUsesAllRegistered) {
  SweepConfig config = SmallConfig();
  config.policies.clear();
  config.runs = 1;
  auto result = RunSweep(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cells.size(), 6u);  // all registered policies
}

}  // namespace
}  // namespace tdg::exp
