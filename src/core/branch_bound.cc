#include "core/branch_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "core/dygroups.h"
#include "core/policy.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/work_steal_queue.h"

namespace tdg {
namespace {

double DeficitSum(const SkillVector& skills) {
  double top = *std::max_element(skills.begin(), skills.end());
  double d = 0.0;
  for (double s : skills) d += top - s;
  return d;
}

// One expanded child of a search node. The expansion order — round gain
// descending, grouping index ascending — is total, so serial and parallel
// searches traverse subtrees in exactly the same order.
struct Child {
  int index;
  double round_gain;
  SkillVector skills;
};

// State shared by every worker of one solve. The incumbent *value* is a
// lock-free monotonic max used only to tighten pruning; incumbent *choices*
// stay subtree-local so the final result can be selected in serial
// traversal order (see DESIGN.md "Determinism contract").
struct SharedSearch {
  const std::vector<Grouping>* groupings = nullptr;
  InteractionMode mode = InteractionMode::kStar;
  const LearningGainFunction* gain = nullptr;
  int num_rounds = 0;
  long long max_nodes = 0;

  std::atomic<long long> nodes_explored{0};
  std::atomic<long long> nodes_pruned{0};
  std::atomic<bool> budget_exceeded{false};
  std::atomic<double> incumbent_bound{-1.0};

  double UpperBound(const SkillVector& skills, int rounds_left) const {
    double d = DeficitSum(skills);
    if (gain->is_linear()) {
      return d * (1.0 - std::pow(1.0 - gain->rate(),
                                 static_cast<double>(rounds_left)));
    }
    return d;
  }

  void PublishBound(double gain_value) {
    double seen = incumbent_bound.load(std::memory_order_relaxed);
    while (gain_value > seen &&
           !incumbent_bound.compare_exchange_weak(
               seen, gain_value, std::memory_order_relaxed)) {
    }
    // A successful publication is a solver-progress milestone: the search
    // found a strictly better incumbent. (Losing the CAS race means some
    // thread published at least this bound — nothing new to report.)
    if (gain_value > seen) {
      TDG_BLACKBOX(obs::BlackboxEventType::kSolverIncumbent, gain_value);
    }
  }

  // Counts one expanded node against the budget.
  bool CountNode() {
    if (nodes_explored.fetch_add(1, std::memory_order_relaxed) + 1 >
        max_nodes) {
      budget_exceeded.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Expands every child of a node in traversal order; false on budget
  // exhaustion.
  bool ExpandChildren(const SkillVector& skills,
                      std::vector<Child>& children) {
    children.clear();
    children.reserve(groupings->size());
    for (size_t i = 0; i < groupings->size(); ++i) {
      if (!CountNode()) return false;
      Child child;
      child.index = static_cast<int>(i);
      child.skills = skills;
      auto round_gain =
          ApplyRound(mode, (*groupings)[i], *gain, child.skills);
      TDG_CHECK(round_gain.ok()) << round_gain.status();
      child.round_gain = round_gain.value();
      children.push_back(std::move(child));
    }
    std::sort(children.begin(), children.end(),
              [](const Child& a, const Child& b) {
                if (a.round_gain != b.round_gain) {
                  return a.round_gain > b.round_gain;
                }
                return a.index < b.index;
              });
    return true;
  }
};

// The outcome of searching one frontier subtree: its first-found maximum in
// subtree traversal order, when that maximum strictly beats the warm-start
// baseline.
struct SubtreeResult {
  bool improved = false;
  double best_gain = 0.0;
  std::vector<int> best_choice;
};

// Depth-first search of one subtree, replicating the serial traversal.
// Pruning uses two thresholds with different tie semantics:
//   * `local_best` (warm start and anything found earlier in THIS subtree)
//     prunes ties (<=) — exactly what the serial solver does, because those
//     sequences precede the pruned branch in traversal order;
//   * the shared incumbent (which may come from a LATER subtree) prunes
//     strictly (<) — a tie found in a later subtree must not eliminate an
//     earlier-ranked sequence, or the result would depend on scheduling.
struct SubtreeSearcher {
  SharedSearch* shared = nullptr;
  double local_best = -1.0;  // starts at the warm-start gain
  std::vector<int> choice;
  SubtreeResult result;

  void Search(int round, const SkillVector& skills, double gain_so_far) {
    if (shared->budget_exceeded.load(std::memory_order_relaxed)) return;
    if (round == shared->num_rounds) {
      if (gain_so_far > local_best) {
        local_best = gain_so_far;
        result.improved = true;
        result.best_gain = gain_so_far;
        result.best_choice = choice;
        shared->PublishBound(gain_so_far);
      }
      return;
    }
    double upper =
        gain_so_far + shared->UpperBound(skills, shared->num_rounds - round);
    if (upper <= local_best ||
        upper < shared->incumbent_bound.load(std::memory_order_relaxed)) {
      shared->nodes_pruned.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    std::vector<Child> children;
    if (!shared->ExpandChildren(skills, children)) return;
    for (const Child& child : children) {
      choice[round] = child.index;
      Search(round + 1, child.skills, gain_so_far + child.round_gain);
      if (shared->budget_exceeded.load(std::memory_order_relaxed)) return;
    }
  }
};

// A frontier subtree: the sequentially-expanded prefix plus the state at
// its root. Tasks are indexed in serial traversal order.
struct SubtreeTask {
  std::vector<int> prefix;
  SkillVector skills;
  double gain_so_far = 0.0;
};

}  // namespace

util::StatusOr<BranchBoundResult> SolveTdgBranchBound(
    const SkillVector& skills, int num_groups, int num_rounds,
    InteractionMode mode, const LearningGainFunction& gain,
    const BranchBoundOptions& options) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  if (num_rounds < 0) {
    return util::Status::InvalidArgument("num_rounds must be >= 0");
  }
  // Coordination self time (enumeration, warm start, frontier seeding,
  // result selection); the per-subtree searches attribute separately from
  // their worker threads.
  TDG_PERF_SCOPE("core/branch_bound/search");
  TDG_ASSIGN_OR_RETURN(
      std::vector<Grouping> groupings,
      EnumerateEquiSizedGroupings(static_cast<int>(skills.size()),
                                  num_groups));

  SharedSearch shared;
  shared.groupings = &groupings;
  shared.mode = mode;
  shared.gain = &gain;
  shared.num_rounds = num_rounds;
  shared.max_nodes = options.max_nodes;

  // Warm start: seed the incumbent with the DyGroups greedy sequence so the
  // deficit bound prunes from the first node. Greedy groupings are located
  // in the enumeration by canonical key.
  double greedy_gain = -1.0;
  std::vector<int> greedy_choice;
  {
    std::map<std::string, int> index_by_key;
    for (size_t i = 0; i < groupings.size(); ++i) {
      index_by_key[groupings[i].CanonicalKey()] = static_cast<int>(i);
    }
    SkillVector greedy_skills = skills;
    std::vector<int> greedy_steps;
    double greedy_total = 0.0;
    bool greedy_ok = true;
    for (int t = 0; t < num_rounds; ++t) {
      auto grouping = (mode == InteractionMode::kStar)
                          ? DyGroupsStarLocal(greedy_skills, num_groups)
                          : DyGroupsCliqueLocal(greedy_skills, num_groups);
      if (!grouping.ok()) {
        greedy_ok = false;
        break;
      }
      auto it = index_by_key.find(grouping->CanonicalKey());
      if (it == index_by_key.end()) {
        greedy_ok = false;  // cannot happen, but stay safe
        break;
      }
      greedy_steps.push_back(it->second);
      auto round_gain =
          ApplyRound(mode, grouping.value(), gain, greedy_skills);
      TDG_CHECK(round_gain.ok()) << round_gain.status();
      greedy_total += round_gain.value();
    }
    if (greedy_ok && num_rounds > 0) {
      greedy_gain = greedy_total;
      greedy_choice = greedy_steps;
      shared.incumbent_bound.store(greedy_gain, std::memory_order_relaxed);
    }
  }

  int num_threads = std::max(options.num_threads, 1);

  // Seed the frontier: expand the first tree levels sequentially (in
  // traversal order) until there are enough subtrees to balance across the
  // workers. Serial solves keep the single root task.
  std::vector<SubtreeTask> tasks;
  {
    SubtreeTask root;
    root.skills = skills;
    tasks.push_back(std::move(root));
  }
  const size_t target_tasks =
      num_threads > 1 ? static_cast<size_t>(4 * num_threads) : 1;
  int frontier_depth = 0;
  while (static_cast<size_t>(frontier_depth) <
             static_cast<size_t>(num_rounds) &&
         tasks.size() < target_tasks &&
         !shared.budget_exceeded.load(std::memory_order_relaxed)) {
    std::vector<SubtreeTask> next;
    next.reserve(tasks.size() * groupings.size());
    std::vector<Child> children;
    for (SubtreeTask& task : tasks) {
      if (!shared.ExpandChildren(task.skills, children)) break;
      for (Child& child : children) {
        SubtreeTask expanded;
        expanded.prefix = task.prefix;
        expanded.prefix.push_back(child.index);
        expanded.skills = std::move(child.skills);
        expanded.gain_so_far = task.gain_so_far + child.round_gain;
        next.push_back(std::move(expanded));
      }
    }
    if (shared.budget_exceeded.load(std::memory_order_relaxed)) break;
    tasks = std::move(next);
    ++frontier_depth;
  }

  // Solve every subtree; tasks carry their serial traversal rank as index.
  std::vector<SubtreeResult> results(tasks.size());
  util::WorkStealingIndexQueue queue(static_cast<int>(tasks.size()),
                                     num_threads);
  auto run_worker = [&](int worker) {
    for (int t; (t = queue.Next(worker)) != -1;) {
      TDG_PERF_SCOPE("core/branch_bound/subtree");
      SubtreeSearcher searcher;
      searcher.shared = &shared;
      searcher.local_best = greedy_gain;
      searcher.choice.assign(num_rounds, 0);
      std::copy(tasks[t].prefix.begin(), tasks[t].prefix.end(),
                searcher.choice.begin());
      searcher.Search(static_cast<int>(tasks[t].prefix.size()),
                      tasks[t].skills, tasks[t].gain_so_far);
      results[t] = std::move(searcher.result);
    }
  };
  if (num_threads > 1 && tasks.size() > 1) {
    util::ThreadPool pool(num_threads);
    for (int w = 0; w < num_threads; ++w) {
      pool.Submit([&run_worker, w] { run_worker(w); });
    }
    pool.Wait();
  } else {
    run_worker(0);
  }

  if (shared.budget_exceeded.load(std::memory_order_relaxed)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "branch-and-bound node budget (%lld) exceeded", options.max_nodes));
  }

  // Deterministic selection: scan subtrees in serial traversal order and
  // keep strict improvements over the warm start — exactly the serial
  // solver's "first maximum wins" rule.
  double best_gain = greedy_gain;
  const std::vector<int>* best_choice = &greedy_choice;
  for (const SubtreeResult& subtree : results) {
    if (subtree.improved && subtree.best_gain > best_gain) {
      best_gain = subtree.best_gain;
      best_choice = &subtree.best_choice;
    }
  }

  BranchBoundResult result;
  result.best_total_gain = best_gain < 0 ? 0.0 : best_gain;
  result.nodes_explored =
      shared.nodes_explored.load(std::memory_order_relaxed);
  result.nodes_pruned = shared.nodes_pruned.load(std::memory_order_relaxed);
  result.subtree_tasks = static_cast<long long>(tasks.size());
  result.steal_count = queue.steal_count();
  result.threads_used = num_threads;
  result.best_sequence.reserve(num_rounds);
  for (int index : *best_choice) {
    result.best_sequence.push_back(groupings[index]);
  }
  TDG_OBS_COUNTER_ADD("solver/branch_bound/nodes_explored",
                      result.nodes_explored);
  TDG_OBS_COUNTER_ADD("solver/branch_bound/nodes_pruned",
                      result.nodes_pruned);
  TDG_OBS_COUNTER_ADD("solver/branch_bound/subtree_tasks",
                      result.subtree_tasks);
  TDG_OBS_COUNTER_ADD("solver/branch_bound/steals", result.steal_count);
  return result;
}

}  // namespace tdg
