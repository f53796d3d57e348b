#include "core/variable_groups.h"

#include <algorithm>
#include <numeric>

#include "util/string_util.h"

namespace tdg {

util::Status ValidateSizeProfile(const std::vector<int>& sizes, int n) {
  if (sizes.empty()) {
    return util::Status::InvalidArgument("size profile is empty");
  }
  long long total = 0;
  for (size_t g = 0; g < sizes.size(); ++g) {
    if (sizes[g] < 1) {
      return util::Status::InvalidArgument(util::StrFormat(
          "group %zu has size %d; sizes must be >= 1", g, sizes[g]));
    }
    total += sizes[g];
  }
  if (total != n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "size profile sums to %lld, population has %d", total, n));
  }
  return util::Status::OK();
}

namespace {

util::Status ValidateSizedArguments(const SkillVector& skills,
                                    const std::vector<int>& sizes) {
  TDG_RETURN_IF_ERROR(ValidateSkills(skills));
  return ValidateSizeProfile(sizes, static_cast<int>(skills.size()));
}

// Checks the grouping produced by a user-supplied rule against the profile.
util::Status ValidateGroupingSizes(const Grouping& grouping,
                                   const std::vector<int>& sizes, int n) {
  TDG_RETURN_IF_ERROR(grouping.ValidatePartition(n));
  if (grouping.groups.size() != sizes.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "grouping has %zu groups, profile has %zu", grouping.groups.size(),
        sizes.size()));
  }
  for (size_t g = 0; g < sizes.size(); ++g) {
    if (static_cast<int>(grouping.groups[g].size()) != sizes[g]) {
      return util::Status::InvalidArgument(util::StrFormat(
          "group %zu has size %zu, profile requires %d", g,
          grouping.groups[g].size(), sizes[g]));
    }
  }
  return util::Status::OK();
}

}  // namespace

util::StatusOr<Grouping> DyGroupsStarLocalSized(
    const SkillVector& skills, const std::vector<int>& sizes) {
  TDG_RETURN_IF_ERROR(ValidateSizedArguments(skills, sizes));
  int num_groups = static_cast<int>(sizes.size());
  std::vector<int> sorted = SortedByskillDescending(skills);

  // With unequal sizes the round gain is r * [Σ_g (size_g - 1) * teacher_g
  // - (total non-teacher skill)], so the teacher-to-group matching matters:
  // by the rearrangement inequality the strongest teacher must lead the
  // largest group. Sort group indices by size descending (stable, so equal
  // sizes keep profile order) and hand out teacher ranks in that order.
  std::vector<int> by_size(num_groups);
  std::iota(by_size.begin(), by_size.end(), 0);
  std::stable_sort(by_size.begin(), by_size.end(), [&sizes](int a, int b) {
    return sizes[a] > sizes[b];
  });

  Grouping grouping;
  grouping.groups.resize(num_groups);
  for (int rank = 0; rank < num_groups; ++rank) {
    int g = by_size[rank];
    grouping.groups[g].reserve(sizes[g]);
    grouping.groups[g].push_back(sorted[rank]);  // teacher
  }
  // Variance-maximizing fill, as in Algorithm 2: the strongest remaining
  // block joins the strongest teacher.
  int next = num_groups;
  for (int rank = 0; rank < num_groups; ++rank) {
    int g = by_size[rank];
    for (int j = 0; j < sizes[g] - 1; ++j) {
      grouping.groups[g].push_back(sorted[next++]);
    }
  }
  return grouping;
}

util::StatusOr<Grouping> DyGroupsCliqueLocalSized(
    const SkillVector& skills, const std::vector<int>& sizes) {
  TDG_RETURN_IF_ERROR(ValidateSizedArguments(skills, sizes));
  int num_groups = static_cast<int>(sizes.size());
  int n = static_cast<int>(skills.size());
  std::vector<int> sorted = SortedByskillDescending(skills);

  // Algorithm 3's value comes from giving every group an even cross-section
  // of the whole skill range (clique gains need within-group diversity). A
  // plain round-robin that skips full groups would concentrate the top
  // ranks in the small groups under skewed profiles; instead deal ranks by
  // proportional quota (largest remaining deficit of t_g * r / n), which
  // reduces to round-robin for equal sizes and keeps each group a
  // proportional skill cross-section for any profile.
  //
  // Groups of one size share a quota, so among them the largest deficit is
  // the smallest fill at the lowest index: each size class deals its ranks
  // round-robin in index order, and a rank only compares one candidate per
  // distinct size — O(n·D) instead of scanning all k groups per rank. Equal
  // deficits go to the lower group index, as a strict-> scan in index order
  // would (tdg::reference::DyGroupsCliqueLocalSized is that scan).
  struct SizeClass {
    int size = 0;
    std::vector<int> groups;  // ascending index
    int dealt = 0;            // ranks dealt to the class so far
  };
  std::vector<int> by_size(num_groups);
  std::iota(by_size.begin(), by_size.end(), 0);
  std::stable_sort(by_size.begin(), by_size.end(), [&sizes](int a, int b) {
    return sizes[a] < sizes[b];
  });
  std::vector<SizeClass> classes;
  for (int g : by_size) {
    if (classes.empty() || classes.back().size != sizes[g]) {
      classes.push_back({sizes[g], {}, 0});
    }
    classes.back().groups.push_back(g);
  }

  Grouping grouping;
  grouping.groups.resize(num_groups);
  for (int g = 0; g < num_groups; ++g) grouping.groups[g].reserve(sizes[g]);
  for (int rank = 0; rank < n; ++rank) {
    SizeClass* best_class = nullptr;
    int best_group = -1;
    double best_deficit = -1e300;
    for (SizeClass& size_class : classes) {
      const int members = static_cast<int>(size_class.groups.size());
      const int fill = size_class.dealt / members;
      if (fill >= size_class.size) continue;  // every group of the class full
      const int g = size_class.groups[size_class.dealt % members];
      double quota = static_cast<double>(size_class.size) * (rank + 1) /
                     static_cast<double>(n);
      double deficit = quota - static_cast<double>(fill);
      if (deficit > best_deficit ||
          (deficit == best_deficit && g < best_group)) {
        best_deficit = deficit;
        best_group = g;
        best_class = &size_class;
      }
    }
    grouping.groups[best_group].push_back(sorted[rank]);
    ++best_class->dealt;
  }
  return grouping;
}

util::StatusOr<Grouping> RandomGroupingSized(const SkillVector& skills,
                                             const std::vector<int>& sizes,
                                             random::Rng& rng) {
  TDG_RETURN_IF_ERROR(ValidateSizedArguments(skills, sizes));
  int n = static_cast<int>(skills.size());
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i + 1)));
    std::swap(ids[i], ids[j]);
  }
  Grouping grouping;
  grouping.groups.resize(sizes.size());
  int next = 0;
  for (size_t g = 0; g < sizes.size(); ++g) {
    grouping.groups[g].assign(ids.begin() + next,
                              ids.begin() + next + sizes[g]);
    next += sizes[g];
  }
  return grouping;
}

util::StatusOr<ProcessResult> RunSizedProcess(
    const SkillVector& initial_skills, const SizedProcessConfig& config,
    const LearningGainFunction& gain, const SizedGroupingFn& form_groups) {
  TDG_RETURN_IF_ERROR(
      ValidateSizedArguments(initial_skills, config.group_sizes));
  if (config.num_rounds < 0) {
    return util::Status::InvalidArgument("num_rounds must be >= 0");
  }

  ProcessResult result;
  result.initial_skills = initial_skills;
  SkillVector skills = initial_skills;
  for (int t = 0; t < config.num_rounds; ++t) {
    TDG_ASSIGN_OR_RETURN(Grouping grouping,
                         form_groups(skills, config.group_sizes));
    TDG_RETURN_IF_ERROR(ValidateGroupingSizes(
        grouping, config.group_sizes, static_cast<int>(skills.size())));
    auto round_gain = ApplyRound(config.mode, grouping, gain, skills);
    if (!round_gain.ok()) return round_gain.status();

    result.round_gains.push_back(round_gain.value());
    result.total_gain += round_gain.value();
    if (config.record_history) {
      RoundRecord record;
      record.grouping = std::move(grouping);
      record.gain = round_gain.value();
      record.skills_after = skills;
      result.history.push_back(std::move(record));
    }
  }
  result.final_skills = std::move(skills);
  return result;
}

}  // namespace tdg
