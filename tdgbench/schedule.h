#ifndef TDGBENCH_SCHEDULE_H_
#define TDGBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/cohort.h"

namespace tdgbench {

/// The operations a served workload sends.
enum class OpKind {
  kAdvance,    // POST /cohorts/<id>/advance
  kJoin,       // POST /cohorts/<id>/join
  kLeave,      // POST /cohorts/<id>/leave
  kSummary,    // GET  /cohorts/<id>
  kRoundRead,  // GET  /cohorts/<id>/rounds/<latest>
  kMetrics,    // GET  /metrics
  kEnroll,     // POST /cohorts (a fresh cohort)
};

std::string_view OpKindName(OpKind kind);

/// One scheduled request. Every op on a cohort is issued in schedule order
/// by one lane (a closed-loop client, or an open-loop lane that sends its
/// next op only after the previous one returned), so each cohort sees the
/// same operation sequence on every run and its history is reproducible.
struct Op {
  int64_t id = 0;
  OpKind kind = OpKind::kAdvance;
  int lane = 0;
  int cohort = -1;  // index into Schedule::cohorts; -1 for /metrics
  std::string key;  // join / leave
  double skill = 0;  // join
  int round = 0;     // round read: index of the round read
  double due_s = 0;  // open loop: arrival time from the start of the load
};

/// A cohort the workload enrolls: the base cohorts at set-up, then the
/// fresh cohorts enrolled by kEnroll ops.
struct CohortSpec {
  std::string id;
  tdg::serve::CohortConfig config;
  std::vector<tdg::serve::CohortParticipant> participants;
};

/// Shape of a served workload. Op shares are per mille of the op count;
/// join and leave share the churn slots.
struct ServeSpec {
  std::string name;
  int num_cohorts = 0;
  int cohort_size = 0;
  int group_size = 4;
  std::vector<tdg::serve::CohortPolicy> policies;  // cycled over cohorts
  int advance_pm = 0;
  int churn_pm = 0;
  int summary_pm = 0;
  int round_read_pm = 0;
  int metrics_pm = 0;
  int enroll_pm = 0;
  /// Closed-loop clients, or open-loop sender threads.
  int threads = 1;
  bool open_loop = false;
  /// Open loop: the Poisson arrival rate. Closed loop: ops scheduled per second
  /// of --seconds (the schedule is fixed-length so every run replays the
  /// same history; this is sized so a run takes about --seconds).
  double ops_per_s = 0;
  /// A cohort's size stays within cohort_size +- band: churn joins when a
  /// cohort is at the lower edge and leaves at the upper edge.
  int band = 1;
};

/// The three served shapes (see README.md for why each was chosen).
const ServeSpec& ServeSmallSpec();
const ServeSpec& ServeLargeSpec();

struct Schedule {
  int num_base_cohorts = 0;
  std::vector<CohortSpec> cohorts;
  std::vector<Op> ops;
  int num_lanes = 0;

  /// Canonical text form (byte-identical for identical schedules).
  std::string Serialize() const;
};

/// Builds the seeded schedule: `ops_per_s * seconds` ops with exact
/// per-kind counts, shuffled, with valid targets (leaves name residents,
/// joins fresh keys, round reads an existing round: set-up advances every
/// base cohort once).
Schedule MakeSchedule(const ServeSpec& spec, uint64_t seed, double seconds);

}  // namespace tdgbench

#endif  // TDGBENCH_SCHEDULE_H_
