#ifndef TDGBENCH_BATCH_WORKLOAD_H_
#define TDGBENCH_BATCH_WORKLOAD_H_

#include "exp/sweep_config.h"
#include "report.h"

namespace tdgbench {

/// The paper's Fig 12/13 sweep as `tdg_cli sweep` runs it: DyGroups-Star,
/// DyGroups-Clique and Random-Assignment through the policy registry, at
/// n in {1e5, 1e6} x k in {5, 25000} x mode in {star, clique}, alpha = 5,
/// r = 0.5, log-normal skills, one run per cell, `threads` pool threads.
tdg::exp::SweepConfig BatchSweepConfig(uint64_t seed, int threads);

/// Σ n * alpha * runs over the sweep's cells.
double ParticipantRounds(const tdg::exp::SweepConfig& config);

/// Runs the sweep repeatedly (for opts.seconds, at least three times),
/// checks every cell's total gain
/// against the same run through the unwrapped policy, and with opts.trace
/// times each layer the sweep calls.
void RunBatchWorkload(const RunOptions& opts, Report* report);

}  // namespace tdgbench

#endif  // TDGBENCH_BATCH_WORKLOAD_H_
