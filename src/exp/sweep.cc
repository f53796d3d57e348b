#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "baselines/registry.h"
#include "core/process.h"
#include "obs/obs.h"
#include "stats/descriptive.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace tdg::exp {

std::vector<SweepPoint> GridPoints(const SweepConfig& config) {
  std::vector<SweepPoint> points;
  points.reserve(config.NumPoints());
  for (random::SkillDistribution distribution : config.distributions) {
    for (InteractionMode mode : config.modes) {
      for (int n : config.n_values) {
        for (int k : config.k_values) {
          for (int alpha : config.alpha_values) {
            for (double r : config.r_values) {
              SweepPoint point;
              point.n = n;
              point.k = k;
              point.alpha = alpha;
              point.r = r;
              point.mode = mode;
              point.distribution = distribution;
              points.push_back(point);
            }
          }
        }
      }
    }
  }
  return points;
}

std::string PointLabel(const SweepPoint& point) {
  return util::StrFormat(
      "%s/%s n=%d k=%d a=%d r=%s",
      std::string(random::SkillDistributionName(point.distribution)).c_str(),
      std::string(InteractionModeName(point.mode)).c_str(), point.n,
      point.k, point.alpha, util::FormatDouble(point.r, 3).c_str());
}

CellSeeds SeedsForCell(uint64_t config_seed, long long cell_index,
                       size_t num_policies) {
  TDG_CHECK_GT(num_policies, 0u);
  uint64_t point_index =
      static_cast<uint64_t>(cell_index) / num_policies;
  CellSeeds seeds;
  seeds.point_seed = config_seed + 0x9e3779b9ULL * (point_index + 1);
  seeds.policy_seed =
      config_seed ^
      (0xc2b2ae3dULL * (static_cast<uint64_t>(cell_index) + 1));
  return seeds;
}

// `point_seed` drives the population draws so that every policy in the
// sweep sees the *same* populations (heavy-tailed skill distributions make
// cross-population gain comparisons meaningless); `policy_seed` only feeds
// the randomized policies.
util::StatusOr<SweepCell> RunSweepCell(const SweepPoint& point,
                                       const std::string& policy_name,
                                       int runs, uint64_t point_seed,
                                       uint64_t policy_seed,
                                       std::vector<double>* run_gains) {
  std::vector<double> gains;
  gains.reserve(runs);
  // Per-run process wall time is recorded into a per-cell registry
  // histogram; mean_micros is derived from its before/after totals so the
  // sweep, the CLI metrics table, and --metrics_out all report from one
  // source of truth (0 when metrics are disabled at runtime).
  obs::Histogram& process_micros =
      obs::MetricsRegistry::Global().GetHistogram(
          "sweep/process_micros/" + PointLabel(point) + "/" + policy_name);
  const obs::Histogram::Totals micros_before = process_micros.GetTotals();
  for (int run = 0; run < runs; ++run) {
    uint64_t run_seed = point_seed + static_cast<uint64_t>(run) * 1000003ULL;
    random::Rng rng(run_seed);
    SkillVector skills =
        random::GenerateSkills(rng, point.distribution, point.n);
    for (double& s : skills) s += 1e-9;

    TDG_ASSIGN_OR_RETURN(
        auto policy,
        baselines::MakePolicy(policy_name,
                              policy_seed + static_cast<uint64_t>(run)));
    TDG_ASSIGN_OR_RETURN(LinearGain gain, LinearGain::Create(point.r));
    ProcessConfig process;
    process.num_groups = point.k;
    process.num_rounds = point.alpha;
    process.mode = point.mode;
    process.record_history = false;

    obs::ScopedHistogramTimer timer(process_micros);
    TDG_ASSIGN_OR_RETURN(ProcessResult result,
                         RunProcess(skills, process, gain, *policy));
    timer.watch().Pause();  // exclude result bookkeeping below
    gains.push_back(result.total_gain);
  }
  TDG_OBS_COUNTER_ADD("sweep/cells_completed", 1);

  SweepCell cell;
  cell.point = point;
  cell.policy = policy_name;
  cell.runs = runs;
  cell.mean_gain = stats::Mean(gains);
  cell.stderr_gain =
      runs > 1 ? stats::SampleStdDev(gains) / std::sqrt(runs) : 0.0;
  const obs::Histogram::Totals micros_after = process_micros.GetTotals();
  const int64_t timed_runs = micros_after.count - micros_before.count;
  cell.mean_micros =
      timed_runs > 0
          ? (micros_after.sum - micros_before.sum) / timed_runs
          : 0.0;
  if (run_gains != nullptr) {
    run_gains->insert(run_gains->end(), gains.begin(), gains.end());
  }
  return cell;
}

util::StatusOr<SweepResult> RunSweep(const SweepConfig& config) {
  TDG_RETURN_IF_ERROR(config.Validate());
  obs::InstallThreadPoolInstrumentation();
  std::vector<std::string> policies =
      config.policies.empty() ? baselines::AllPolicyNames() : config.policies;
  std::vector<SweepPoint> points = GridPoints(config);

  SweepResult result;
  result.name = config.name;
  result.cells.resize(points.size() * policies.size());

  std::atomic<bool> failed{false};
  util::Status first_error;
  std::mutex error_mutex;

  // The tracker only observes: every hook below is one relaxed atomic load
  // when monitoring is off, and cell results never depend on it.
  obs::ProgressTracker& progress = obs::ProgressTracker::Global();
  progress.BeginRun(config.name,
                    static_cast<long long>(result.cells.size()),
                    /*cells_restored=*/0);

  util::ThreadPool pool(config.threads);
  util::ParallelFor(
      pool, static_cast<int>(result.cells.size()), [&](int index) {
        if (failed.load()) return;
        size_t point_index = static_cast<size_t>(index) / policies.size();
        size_t policy_index = static_cast<size_t>(index) % policies.size();
        const int64_t cell_start =
            progress.enabled() ? util::MonotonicMicros() : 0;
        // Same cell boundary records (and payload slots) as RunSweepShard.
        TDG_BLACKBOX(obs::BlackboxEventType::kSweepCellStart,
                     static_cast<double>(index),
                     static_cast<double>(points[point_index].n),
                     static_cast<double>(points[point_index].k),
                     static_cast<double>(points[point_index].alpha));
        // Seeds depend only on the grid position — thread-schedule free.
        CellSeeds seeds = SeedsForCell(config.seed, index, policies.size());
        auto cell = RunSweepCell(points[point_index], policies[policy_index],
                                 config.runs, seeds.point_seed,
                                 seeds.policy_seed);
        if (!cell.ok()) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed.exchange(true)) first_error = cell.status();
          return;
        }
        result.cells[index] = std::move(cell).value();
        TDG_BLACKBOX(obs::BlackboxEventType::kSweepCellEnd,
                     static_cast<double>(index),
                     result.cells[index].mean_gain,
                     static_cast<double>(result.cells[index].runs));
        if (progress.enabled()) {
          progress.RecordCell(
              PointLabel(points[point_index]) + "/" +
                  policies[policy_index],
              static_cast<double>(util::MonotonicMicros() - cell_start));
        }
      });
  progress.EndRun();
  if (failed.load()) return first_error;
  return result;
}

std::string SweepResult::ToTable(int digits) const {
  // Collect policies in first-appearance order.
  std::vector<std::string> policies;
  for (const SweepCell& cell : cells) {
    if (std::find(policies.begin(), policies.end(), cell.policy) ==
        policies.end()) {
      policies.push_back(cell.policy);
    }
  }
  std::vector<std::string> header = {"point"};
  header.insert(header.end(), policies.begin(), policies.end());
  util::TablePrinter printer(std::move(header));

  for (size_t i = 0; i < cells.size(); i += policies.size()) {
    std::vector<std::string> row = {PointLabel(cells[i].point)};
    for (size_t p = 0; p < policies.size() && i + p < cells.size(); ++p) {
      row.push_back(util::FormatDouble(cells[i + p].mean_gain, digits));
    }
    printer.AddRow(std::move(row));
  }
  return printer.ToString();
}

util::CsvDocument SweepResult::ToCsv() const {
  util::CsvDocument doc({"distribution", "mode", "n", "k", "alpha", "r",
                         "policy", "runs", "mean_gain", "stderr_gain",
                         "mean_micros"});
  for (const SweepCell& cell : cells) {
    util::Status status = doc.AddRow(
        {std::string(
             random::SkillDistributionName(cell.point.distribution)),
         std::string(InteractionModeName(cell.point.mode)),
         std::to_string(cell.point.n), std::to_string(cell.point.k),
         std::to_string(cell.point.alpha),
         util::StrFormat("%.17g", cell.point.r), cell.policy,
         std::to_string(cell.runs),
         util::StrFormat("%.17g", cell.mean_gain),
         util::StrFormat("%.17g", cell.stderr_gain),
         util::StrFormat("%.17g", cell.mean_micros)});
    TDG_CHECK(status.ok()) << status;
  }
  return doc;
}

util::JsonValue SweepResult::ToJson() const {
  util::JsonValue cells_json = util::JsonValue::MakeArray();
  for (const SweepCell& cell : cells) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("distribution",
              std::string(
                  random::SkillDistributionName(cell.point.distribution)));
    entry.Set("mode", std::string(InteractionModeName(cell.point.mode)));
    entry.Set("n", cell.point.n);
    entry.Set("k", cell.point.k);
    entry.Set("alpha", cell.point.alpha);
    entry.Set("r", cell.point.r);
    entry.Set("policy", cell.policy);
    entry.Set("runs", cell.runs);
    entry.Set("mean_gain", cell.mean_gain);
    entry.Set("stderr_gain", cell.stderr_gain);
    entry.Set("mean_micros", cell.mean_micros);
    cells_json.Append(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::MakeObject();
  root.Set("name", name);
  root.Set("cells", std::move(cells_json));
  return root;
}

}  // namespace tdg::exp
