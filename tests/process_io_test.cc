#include "io/process_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/dygroups.h"
#include "random/distributions.h"

namespace tdg::io {
namespace {

ProcessResult MakeResult() {
  random::Rng rng(1);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 12);
  DyGroupsStarPolicy policy;
  LinearGain gain(0.5);
  ProcessConfig config;
  config.num_groups = 3;
  config.num_rounds = 4;
  auto result = RunProcess(skills, config, gain, policy);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(GroupingJsonTest, RoundTrips) {
  Grouping grouping({{0, 3, 1}, {2, 4, 5}});
  auto reparsed = GroupingFromJson(GroupingToJson(grouping));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->groups, grouping.groups);
}

TEST(GroupingJsonTest, RejectsMalformedJson) {
  EXPECT_FALSE(GroupingFromJson(util::JsonValue(1.0)).ok());
  util::JsonValue no_groups = util::JsonValue::MakeObject();
  EXPECT_FALSE(GroupingFromJson(no_groups).ok());
  util::JsonValue bad = util::JsonValue::MakeObject();
  bad.Set("groups", util::JsonValue("not-an-array"));
  EXPECT_FALSE(GroupingFromJson(bad).ok());
  util::JsonValue bad_member = util::JsonValue::MakeObject();
  util::JsonValue groups = util::JsonValue::MakeArray();
  util::JsonValue group = util::JsonValue::MakeArray();
  group.Append("zero");
  groups.Append(std::move(group));
  bad_member.Set("groups", std::move(groups));
  EXPECT_FALSE(GroupingFromJson(bad_member).ok());
}

// Member ids, assignment entries and num_groups are ints carried as JSON
// numbers: a fractional or out-of-range value is refused, never truncated
// or cast out of range.
TEST(GroupingJsonTest, RejectsNonIntegralAndOutOfRangeNumbers) {
  auto parse = [](const char* text) {
    auto json = util::JsonValue::Parse(text);
    EXPECT_TRUE(json.ok()) << json.status();
    return std::move(json).value();
  };
  for (const char* bad : {R"({"groups": [[0, 2.5], [1]]})",
                          R"({"groups": [[0, 1e10], [1]]})"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(GroupingFromJson(parse(bad)).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  for (const char* bad : {R"({"assignment": [0, 1.5, 0], "num_groups": 2})",
                          R"({"assignment": [0, 1e10], "num_groups": 2})",
                          R"({"assignment": [0, 1], "num_groups": 2.5})",
                          R"({"assignment": [0, 1], "num_groups": 1e10})"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(GroupingFromFlatJson(parse(bad)).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  auto flat = GroupingFromFlatJson(
      parse(R"({"assignment": [0, 1, 0.0], "num_groups": 2})"));
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(flat->groups, (std::vector<std::vector<int>>{{0, 2}, {1}}));
}

TEST(ProcessResultJsonTest, RoundTripsExactly) {
  ProcessResult result = MakeResult();
  auto reparsed = ProcessResultFromJson(ProcessResultToJson(result));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->initial_skills, result.initial_skills);
  EXPECT_EQ(reparsed->final_skills, result.final_skills);
  EXPECT_EQ(reparsed->round_gains, result.round_gains);
  EXPECT_DOUBLE_EQ(reparsed->total_gain, result.total_gain);
  ASSERT_EQ(reparsed->history.size(), result.history.size());
  for (size_t t = 0; t < result.history.size(); ++t) {
    EXPECT_EQ(reparsed->history[t].grouping.groups,
              result.history[t].grouping.groups);
    EXPECT_DOUBLE_EQ(reparsed->history[t].gain, result.history[t].gain);
    EXPECT_EQ(reparsed->history[t].skills_after,
              result.history[t].skills_after);
  }
}

TEST(ProcessResultJsonTest, FileRoundTripThroughPrettyJson) {
  ProcessResult result = MakeResult();
  std::string path = testing::TempDir() + "/tdg_process_result.json";
  ASSERT_TRUE(WriteProcessResult(path, result).ok());
  auto loaded = ReadProcessResult(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->total_gain, result.total_gain);
  EXPECT_EQ(loaded->final_skills, result.final_skills);
  std::remove(path.c_str());
}

TEST(ProcessResultJsonTest, ReadRejectsMissingOrBrokenFiles) {
  EXPECT_FALSE(ReadProcessResult("/nonexistent/result.json").ok());
  std::string path = testing::TempDir() + "/tdg_broken_result.json";
  {
    std::ofstream out(path);
    out << "{\"total_gain\": \"not-a-number\"}";
  }
  EXPECT_FALSE(ReadProcessResult(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdg::io
