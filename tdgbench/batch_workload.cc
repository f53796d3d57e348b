#include "batch_workload.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "baselines/random_assignment.h"
#include "baselines/registry.h"
#include "core/dygroups.h"
#include "core/process.h"
#include "core/soa.h"
#include "exp/sweep.h"
#include "proc_stats.h"
#include "random/distributions.h"
#include "stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tdgbench {
namespace {

using Clock = std::chrono::steady_clock;
using tdg::InteractionMode;

const std::vector<std::string>& Policies() {
  static const std::vector<std::string>* const kPolicies =
      new std::vector<std::string>{"DyGroups-Star", "DyGroups-Clique",
                                   "Random-Assignment"};
  return *kPolicies;
}

constexpr int kAlpha = 5;
constexpr double kRate = 0.5;
constexpr int kTraceReps = 3;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

tdg::SkillVector CellSkills(const tdg::exp::SweepPoint& point,
                            uint64_t point_seed) {
  // RunSweepCell's population for run 0 (exp/sweep.cc).
  tdg::random::Rng rng(point_seed);
  tdg::SkillVector skills =
      tdg::random::GenerateSkills(rng, point.distribution, point.n);
  for (double& s : skills) s += 1e-9;
  return skills;
}

tdg::ProcessConfig ProcessFor(const tdg::exp::SweepPoint& point) {
  tdg::ProcessConfig process;
  process.num_groups = point.k;
  process.num_rounds = point.alpha;
  process.mode = point.mode;
  process.record_history = false;
  return process;
}

/// The cell's total gain through the unwrapped policy class.
tdg::util::StatusOr<double> ReferenceGain(const tdg::exp::SweepPoint& point,
                                          const std::string& policy_name,
                                          const tdg::exp::CellSeeds& seeds) {
  std::unique_ptr<tdg::GroupingPolicy> policy;
  if (policy_name == "DyGroups-Star") {
    policy = std::make_unique<tdg::DyGroupsStarPolicy>();
  } else if (policy_name == "DyGroups-Clique") {
    policy = std::make_unique<tdg::DyGroupsCliquePolicy>();
  } else {
    policy = std::make_unique<tdg::baselines::RandomAssignmentPolicy>(
        seeds.policy_seed);
  }
  TDG_ASSIGN_OR_RETURN(tdg::LinearGain gain, tdg::LinearGain::Create(point.r));
  TDG_ASSIGN_OR_RETURN(
      tdg::ProcessResult result,
      tdg::RunProcess(CellSkills(point, seeds.point_seed), ProcessFor(point),
                      gain, *policy));
  return result.total_gain;
}

std::string ModeName(InteractionMode mode) {
  return std::string(tdg::InteractionModeName(mode));
}

std::string ShapeName(const tdg::exp::SweepPoint& point) {
  return tdg::util::StrFormat("%s.n%d.k%d", ModeName(point.mode).c_str(),
                              point.n, point.k);
}

/// Per-layer timings of the batch path, each layer entered directly.
void TraceBatch(const tdg::exp::SweepConfig& config, double sweep_wall_ms,
                Report* report) {
  const std::vector<tdg::exp::SweepPoint> points =
      tdg::exp::GridPoints(config);
  auto gain = tdg::LinearGain::Create(kRate).value();

  for (int n : config.n_values) {
    std::vector<double> ms;
    for (int rep = 0; rep < kTraceReps; ++rep) {
      tdg::random::Rng rng(config.seed + static_cast<uint64_t>(rep));
      const Clock::time_point start = Clock::now();
      const auto skills = tdg::random::GenerateSkills(
          rng, tdg::random::SkillDistribution::kLogNormal, n);
      ms.push_back(MillisSince(start));
      if (skills.size() != static_cast<size_t>(n)) {
        report->Fail("GenerateSkills returned the wrong size");
      }
    }
    report->Set(tdg::util::StrFormat("random.generate_skills_ms_p50.n%d", n),
                Median(ms), "ms");
  }

  // The registry path next to the fused kernel, at each of the 8 shapes.
  std::map<int, tdg::SkillVector> skills_by_n;
  for (int n : config.n_values) {
    tdg::exp::SweepPoint point;
    point.n = n;
    skills_by_n[n] = CellSkills(point, config.seed);
  }
  double process_ms_sum = 0, fused_ms_sum = 0, fused_participant_rounds = 0;
  for (const tdg::exp::SweepPoint& point : points) {
    const bool star = point.mode == InteractionMode::kStar;
    const std::string policy_name = star ? "DyGroups-Star" : "DyGroups-Clique";
    const tdg::SkillVector& skills = skills_by_n[point.n];
    std::vector<double> process_ms, fused_ms;
    double process_gain = 0, fused_gain = 0;
    for (int rep = 0; rep < kTraceReps; ++rep) {
      Clock::time_point start = Clock::now();
      auto policy = tdg::baselines::MakePolicy(policy_name, 0);
      auto result = tdg::RunProcess(skills, ProcessFor(point), gain, **policy);
      process_ms.push_back(MillisSince(start));
      if (!result.ok()) {
        report->Fail("RunProcess: " + result.status().message());
        return;
      }
      process_gain = result->total_gain;

      tdg::SkillVector fused = skills;
      start = Clock::now();
      double total = 0;
      for (int t = 0; t < point.alpha; ++t) {
        auto round = tdg::soa::DyGroupsRound(
            star ? tdg::soa::DyGroupsLayout::kStarBlocks
                 : tdg::soa::DyGroupsLayout::kRoundRobin,
            point.mode, gain, fused, point.k, tdg::soa::ThreadLocalArena());
        total += round.ok() ? *round : 0;
      }
      fused_ms.push_back(MillisSince(start));
      fused_gain = total;
    }
    if (process_gain != fused_gain) {
      report->Fail("fused round and RunProcess disagree at " +
                   ShapeName(point));
    }
    report->Set("core.run_process_ms_p50." + ShapeName(point),
                Median(process_ms), "ms");
    report->Set("core.fused_round_ms_p50." + ShapeName(point),
                Median(fused_ms), "ms");
    process_ms_sum += Median(process_ms);
    fused_ms_sum += Median(fused_ms);
    fused_participant_rounds += static_cast<double>(point.n) * point.alpha;
  }
  // The core metrics every workload reports: the grouping kernel's cost
  // per participant-round, and the share of the policy-level process (here
  // the registry path) spent outside that kernel.
  report->Set("core.ns_per_participant_round",
              fused_ms_sum * 1e6 / fused_participant_rounds, "ns");
  report->Set("core.caller_overhead_share", 1.0 - fused_ms_sum / process_ms_sum,
              "share");

  for (const std::string& policy_name : Policies()) {
    for (int n : config.n_values) {
      std::vector<double> ms;
      for (int k : config.k_values) {
        for (int rep = 0; rep < kTraceReps; ++rep) {
          auto policy = tdg::baselines::MakePolicy(policy_name, 7);
          const Clock::time_point start = Clock::now();
          auto grouping = (*policy)->FormGroups(skills_by_n[n], k);
          ms.push_back(MillisSince(start));
          if (!grouping.ok()) report->Fail("FormGroups failed");
        }
      }
      report->Set(tdg::util::StrFormat("baselines.form_groups_ms_p50.%s.n%d",
                                       policy_name.c_str(), n),
                  Median(ms), "ms");
    }
  }
  skills_by_n.clear();

  // Each cell once through RunSweepCell, and its process alone.
  double cell_ms = 0, process_ms = 0;
  const size_t num_policies = Policies().size();
  for (size_t point_index = 0; point_index < points.size(); ++point_index) {
    for (size_t p = 0; p < num_policies; ++p) {
      const long long index =
          static_cast<long long>(point_index * num_policies + p);
      const auto seeds =
          tdg::exp::SeedsForCell(config.seed, index, num_policies);
      const tdg::exp::SweepPoint& point = points[point_index];
      Clock::time_point start = Clock::now();
      auto cell = tdg::exp::RunSweepCell(point, Policies()[p], 1,
                                         seeds.point_seed, seeds.policy_seed);
      cell_ms += MillisSince(start);
      if (!cell.ok()) report->Fail("RunSweepCell: " + cell.status().message());

      const tdg::SkillVector skills = CellSkills(point, seeds.point_seed);
      start = Clock::now();
      auto policy =
          tdg::baselines::MakePolicy(Policies()[p], seeds.policy_seed);
      auto result = tdg::RunProcess(skills, ProcessFor(point), gain, **policy);
      process_ms += MillisSince(start);
      if (!result.ok()) {
        report->Fail("RunProcess: " + result.status().message());
      }
    }
  }
  report->Set("exp.cell_overhead_share", 1.0 - process_ms / cell_ms, "share");
  report->Set("exp.parallel_efficiency",
              cell_ms / (config.threads * sweep_wall_ms), "share");
}

}  // namespace

tdg::exp::SweepConfig BatchSweepConfig(uint64_t seed, int threads) {
  tdg::exp::SweepConfig config;
  config.name = "batch_sweep";
  config.policies = Policies();
  config.n_values = {100000, 1000000};
  config.k_values = {5, 25000};
  config.alpha_values = {kAlpha};
  config.r_values = {kRate};
  config.modes = {InteractionMode::kStar, InteractionMode::kClique};
  config.distributions = {tdg::random::SkillDistribution::kLogNormal};
  config.runs = 1;
  config.seed = seed;
  config.threads = threads;
  return config;
}

double ParticipantRounds(const tdg::exp::SweepConfig& config) {
  double total = 0;
  for (const tdg::exp::SweepPoint& point : tdg::exp::GridPoints(config)) {
    total += static_cast<double>(point.n) * point.alpha * config.runs;
  }
  return total * static_cast<double>(config.policies.size());
}

void RunBatchWorkload(const RunOptions& opts, Report* report) {
  const tdg::exp::SweepConfig config =
      BatchSweepConfig(opts.seed, opts.threads);
  const double participant_rounds = ParticipantRounds(config);

  {
    // Set-up: the sweep's lazy state (pool threads' arenas, the registry's
    // per-cell families, the allocator) warmed by the n = 1e5 half.
    tdg::exp::SweepConfig warm = config;
    warm.n_values = {100000};
    std::vector<double> setup_s;
    for (int rep = 0; rep < 9; ++rep) {
      const Clock::time_point start = Clock::now();
      auto result = tdg::exp::RunSweep(warm);
      setup_s.push_back(MillisSince(start) / 1000.0);
      if (!result.ok()) {
        report->Fail("set-up sweep: " + result.status().message());
      }
    }
    report->Set("setup_s", Median(setup_s), "s");
  }

  const ProcSample before = ProcSample::Now();
  const Clock::time_point start = Clock::now();
  std::vector<double> rates, walls_ms;
  std::vector<tdg::exp::SweepResult> results;
  while (results.size() < 3 || MillisSince(start) < opts.seconds * 1000.0) {
    const Clock::time_point sweep_start = Clock::now();
    auto result = tdg::exp::RunSweep(config);
    const double wall_ms = MillisSince(sweep_start);
    if (!result.ok()) {
      report->Fail("RunSweep: " + result.status().message());
      return;
    }
    walls_ms.push_back(wall_ms);
    rates.push_back(participant_rounds / (wall_ms / 1000.0));
    results.push_back(std::move(result).value());
  }
  const ProcSample used = ProcSample::Now() - before;
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("batch.participant_rounds_per_s", BestQuartile(rates, true),
              "1/s");
  // The metrics every workload reports: the sweep's rate, and the wall
  // time of one whole sweep, which is what a `tdg_cli sweep` user waits.
  report->Set("throughput_per_s", BestQuartile(rates, true), "1/s");
  report->Set("latency_ms_p10", Percentile(walls_ms, 10).value(), "ms");

  // Correctness: every run's total gain == the unwrapped policy's.
  const std::vector<tdg::exp::SweepPoint> points = tdg::exp::GridPoints(config);
  const size_t num_cells = results.front().cells.size();
  std::vector<double> reference(num_cells, 0);
  std::vector<std::string> errors;
  std::mutex errors_mutex;
  {
    tdg::util::ThreadPool pool(opts.threads);
    tdg::util::ParallelFor(pool, static_cast<int>(num_cells), [&](int index) {
      const size_t num_policies = config.policies.size();
      const size_t cell = static_cast<size_t>(index);
      auto gain = ReferenceGain(
          points[cell / num_policies], config.policies[cell % num_policies],
          tdg::exp::SeedsForCell(config.seed, index, num_policies));
      if (!gain.ok()) {
        std::lock_guard<std::mutex> lock(errors_mutex);
        errors.push_back(gain.status().message());
        return;
      }
      reference[static_cast<size_t>(index)] = *gain;
    });
  }
  for (const std::string& error : errors) {
    report->Fail("reference run: " + error);
  }
  int64_t wrong = static_cast<int64_t>(errors.size());
  for (const tdg::exp::SweepResult& result : results) {
    for (size_t i = 0; i < num_cells; ++i) {
      if (result.cells[i].mean_gain != reference[i]) ++wrong;
    }
  }
  const int64_t attempted = static_cast<int64_t>(results.size() * num_cells);
  report->attempted += attempted;
  if (wrong > 0) {
    report->failed += attempted;
    report->Fail(tdg::util::StrFormat(
        "%lld sweep cells differ from the unwrapped-policy run",
        static_cast<long long>(wrong)));
  }

  // A batch op is one sweep cell.
  const double ops = static_cast<double>(attempted);
  if (!opts.trace) return;
  report->Set("proc.cpu_ms_per_op", used.cpu_s * 1000.0 / ops, "ms");
  const double mpr =
      participant_rounds * static_cast<double>(results.size()) / 1e6;
  report->Set("proc.cpu_s_per_mpr", used.cpu_s / mpr, "s");
  report->Set("proc.ctx_switches_per_op", used.ctx_switches / ops, "count");
  report->Set("proc.write_bytes_per_op", used.write_bytes / ops, "B");
  report->Set("proc.write_syscalls_per_op", used.write_syscalls / ops,
              "count");
  const RegistryProbe registry = ProbeMetricsRegistry(/*renders=*/20);
  report->Set("obs.metrics_render_ms_p50", registry.render_ms_p50, "ms");
  report->Set("obs.registry_families", registry.families, "count");
  TraceBatch(config, Median(walls_ms), report);
}

}  // namespace tdgbench
