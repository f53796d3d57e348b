#include "baselines/registry.h"

#include "baselines/kmeans.h"
#include "baselines/lpa.h"
#include "baselines/percentile_partitions.h"
#include "baselines/random_assignment.h"
#include "core/dygroups.h"

namespace tdg::baselines {

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{
          "DyGroups-Star",   "DyGroups-Clique",
          "Random-Assignment", "Percentile-Partitions",
          "LPA",             "k-means",
      };
  return *kNames;
}

// Policies are returned bare, so RunProcess sees each one's kernel_kind()
// and DyGroups policies take the fused SoA round. Their time is charged by
// the caller's own instrumentation (the `process/round` spans and the
// sweep's per-cell `sweep/process_micros/...` histograms).
util::StatusOr<std::unique_ptr<GroupingPolicy>> MakePolicy(
    std::string_view name, uint64_t seed) {
  std::unique_ptr<GroupingPolicy> policy;
  if (name == "DyGroups-Star") {
    policy = std::make_unique<DyGroupsStarPolicy>();
  } else if (name == "DyGroups-Clique") {
    policy = std::make_unique<DyGroupsCliquePolicy>();
  } else if (name == "Random-Assignment") {
    policy = std::make_unique<RandomAssignmentPolicy>(seed);
  } else if (name == "Percentile-Partitions") {
    policy = std::make_unique<PercentilePartitionsPolicy>();
  } else if (name == "LPA") {
    policy = std::make_unique<LpaPolicy>();
  } else if (name == "k-means") {
    policy = std::make_unique<KMeansPolicy>(seed);
  } else {
    return util::Status::NotFound("unknown policy: '" + std::string(name) +
                                  "'");
  }
  return policy;
}

}  // namespace tdg::baselines
