#ifndef TDGBENCH_SERVE_WORKLOAD_H_
#define TDGBENCH_SERVE_WORKLOAD_H_

#include "report.h"
#include "schedule.h"

namespace tdgbench {

/// Runs one served workload: set-up (enroll + one advance per base cohort
/// over the socket, repeated for setup_s), the seeded load against
/// serve::CohortServer over a journaled serve::CohortManager, restart
/// recovery, and the correctness gate (every response byte-compared with
/// an offline serve::Cohort replay; recovered state == live state). With
/// opts.trace the acked ops are replayed down the layer ladder for the
/// per-layer metrics.
void RunServeWorkload(const ServeSpec& spec, const RunOptions& opts,
                      Report* report);

}  // namespace tdgbench

#endif  // TDGBENCH_SERVE_WORKLOAD_H_
