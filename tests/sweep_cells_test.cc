// Tests for the one cell loop behind RunSweep and RunSweepShard
// (exp::RunSweepCells, DESIGN.md §8): each point's populations are drawn
// once and shared by its policy cells, and cells run biggest first. None of
// that may show in the results, which must equal the standalone
// RunSweepCell of every cell byte for byte, whichever entry point and thread
// count produced them. A failing cell still ends the loop with its error.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "exp/sweep_shard.h"
#include "sweep_shard_test_util.h"

namespace tdg::exp {
namespace {

using test::CsvBytes;
using test::JsonBytes;
using test::MakeScratchDir;
using test::MetricsOffGuard;

// Mixed n (so the biggest-first order differs from grid order), several
// policies per point (so populations are shared), three runs per cell.
SweepConfig MixedConfig(int threads) {
  SweepConfig config;
  config.name = "shared-loop";
  config.policies = {"DyGroups-Star", "DyGroups-Clique", "Random-Assignment"};
  config.n_values = {12, 240, 60};
  config.k_values = {3};
  config.alpha_values = {2, 3};
  config.r_values = {0.4};
  config.modes = {InteractionMode::kStar, InteractionMode::kClique};
  config.distributions = {random::SkillDistribution::kLogNormal};
  config.runs = 3;
  config.seed = 11;
  config.threads = threads;
  return config;
}

// Every cell through the public standalone RunSweepCell, in grid order.
SweepResult CellByCell(const SweepConfig& config) {
  const std::vector<SweepPoint> points = GridPoints(config);
  SweepResult result;
  result.name = config.name;
  for (size_t p = 0; p < points.size(); ++p) {
    for (size_t q = 0; q < config.policies.size(); ++q) {
      const long long index =
          static_cast<long long>(p * config.policies.size() + q);
      const CellSeeds seeds =
          SeedsForCell(config.seed, index, config.policies.size());
      auto cell = RunSweepCell(points[p], config.policies[q], config.runs,
                               seeds.point_seed, seeds.policy_seed);
      EXPECT_TRUE(cell.ok()) << cell.status();
      result.cells.push_back(cell.value());
    }
  }
  return result;
}

TEST(SweepCellsTest, SweepShardsAndStandaloneCellsAgreeByteForByte) {
  MetricsOffGuard metrics_off;
  const SweepResult reference = CellByCell(MixedConfig(1));
  const std::string reference_csv = CsvBytes(reference);
  const std::string reference_json = JsonBytes(reference);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepConfig config = MixedConfig(threads);
    auto sweep = RunSweep(config);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    EXPECT_EQ(CsvBytes(sweep.value()), reference_csv);
    EXPECT_EQ(JsonBytes(sweep.value()), reference_json);

    const std::string dir = MakeScratchDir();
    std::vector<std::string> paths;
    for (int shard = 0; shard < 3; ++shard) {
      SweepShardOptions options;
      options.shard_index = shard;
      options.shard_count = 3;
      options.checkpoint_path = dir + "/shard" + std::to_string(shard);
      auto result = RunSweepShard(config, options);
      ASSERT_TRUE(result.ok()) << result.status();
      paths.push_back(options.checkpoint_path);
    }
    auto merged = MergeSweepCheckpoints(paths);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(CsvBytes(merged.value()), reference_csv);
    EXPECT_EQ(JsonBytes(merged.value()), reference_json);
  }
}

// On one worker the sink sees the submission order: n·α·runs descending,
// grid index ascending among equals. Each record carries its grid-keyed
// seeds.
TEST(SweepCellsTest, CellsRunBiggestFirstWithGridKeyedSeeds) {
  MetricsOffGuard metrics_off;
  const SweepConfig config = MixedConfig(1);
  const std::vector<SweepPoint> points = GridPoints(config);
  const size_t num_policies = config.policies.size();
  std::vector<long long> all(points.size() * num_policies);
  std::iota(all.begin(), all.end(), 0LL);

  std::vector<long long> seen;
  util::Status status = RunSweepCells(
      config, points, config.policies, all,
      [&](SweepCheckpointCell& record) {
        const CellSeeds seeds =
            SeedsForCell(config.seed, record.cell_index, num_policies);
        EXPECT_EQ(record.point_seed, seeds.point_seed);
        EXPECT_EQ(record.policy_seed, seeds.policy_seed);
        EXPECT_EQ(record.run_gains.size(), 3u);
        seen.push_back(record.cell_index);
        return util::Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status;

  std::vector<long long> expected = all;
  auto weight = [&](long long index) {
    const SweepPoint& point = points[static_cast<size_t>(index) / num_policies];
    return point.n * point.alpha;
  };
  std::stable_sort(expected.begin(), expected.end(),
                   [&](long long a, long long b) {
                     return weight(a) > weight(b);
                   });
  EXPECT_EQ(seen, expected);
  // Grid point 3 is the star n=240, α=3 point.
  EXPECT_EQ(seen.front() / static_cast<long long>(num_policies), 3);
}

// A cell that fails (k does not divide n, which only a hand-built grid can
// hold) ends the loop with its error; the shared populations of the points
// around it are freed on that path too (ASan builds check the frees).
TEST(SweepCellsTest, FailingCellReturnsItsError) {
  MetricsOffGuard metrics_off;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepConfig config = MixedConfig(threads);
    std::vector<SweepPoint> points = GridPoints(config);
    points[4].n = 50;  // the star n=60, α=2 point; k = 3 does not divide 50
    std::vector<long long> all(points.size() * config.policies.size());
    std::iota(all.begin(), all.end(), 0LL);
    std::mutex mutex;
    std::vector<long long> delivered;
    util::Status status = RunSweepCells(
        config, points, config.policies, all,
        [&](SweepCheckpointCell& record) {
          std::lock_guard<std::mutex> lock(mutex);
          delivered.push_back(record.cell_index);
          return util::Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("50"), std::string::npos) << status;
    for (long long index : delivered) {
      EXPECT_NE(index / static_cast<long long>(config.policies.size()), 4);
    }
  }
}

// An error from the sink (a failed checkpoint append in RunSweepShard) is
// returned the same way, and no further cell starts after it.
TEST(SweepCellsTest, SinkErrorStopsTheLoop) {
  MetricsOffGuard metrics_off;
  const SweepConfig config = MixedConfig(1);
  const std::vector<SweepPoint> points = GridPoints(config);
  std::vector<long long> all(points.size() * config.policies.size());
  std::iota(all.begin(), all.end(), 0LL);
  int calls = 0;
  util::Status status = RunSweepCells(
      config, points, config.policies, all, [&](SweepCheckpointCell&) {
        ++calls;
        return util::Status::IOError("disk full");
      });
  EXPECT_EQ(status.code(), util::StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tdg::exp
