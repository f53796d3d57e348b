#ifndef TDG_OBS_PROGRESS_H_
#define TDG_OBS_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/stopwatch.h"

namespace tdg::obs {

/// Point-in-time view of a sweep's progress (what /progressz serves and the
/// --progress stderr line renders).
struct ProgressSnapshot {
  bool active = false;
  std::string name;               // sweep name
  long long cells_total = 0;      // cells this execution owns
  long long cells_done = 0;       // completed (restored + run)
  long long cells_restored = 0;   // replayed from a checkpoint
  double elapsed_seconds = 0;     // since BeginRun
  /// EWMA of per-cell wall latency (one worker's view of one cell).
  double cell_latency_ewma_micros = 0;
  /// Completion throughput from the EWMA of inter-completion intervals —
  /// parallelism is priced in automatically (k workers → k× the rate).
  double cells_per_second = 0;
  /// remaining / cells_per_second; -1 until the first completion makes the
  /// rate meaningful, finite afterwards.
  double eta_seconds = -1;
  std::string current_cell;       // grid coordinates of the last completion

  util::JsonValue ToJson() const;
  /// Single-line human report, e.g.
  /// "sweep 12/64 cells (18.8%) | 3.1 cells/s | eta 17s | log-normal/...".
  std::string ToLine() const;
};

/// Tracks cells done / total, per-cell latency EWMA, and an ETA across one
/// sweep execution. Wired into RunSweep / RunSweepShard cell boundaries;
/// disabled (the default) every hook is one relaxed atomic load, and the
/// sweep's outputs are byte-identical either way — the tracker observes,
/// never participates.
///
/// Thread-safe: BeginRun/EndRun from the driver thread, RecordCell from any
/// worker, Snapshot from the stats server thread.
class ProgressTracker {
 public:
  /// Microseconds on a monotonic clock; tests substitute a scripted one.
  using Clock = int64_t (*)();

  explicit ProgressTracker(Clock clock = &util::MonotonicMicros)
      : clock_(clock) {}
  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  /// The process-wide instance the sweep layer reports into.
  static ProgressTracker& Global();

  /// Master switch. The sweep hooks only take the mutex when enabled.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Echo a throttled single-line progress report to stderr on each
  /// RecordCell (the CLI's --progress flag).
  void SetStderrReport(bool enabled, int64_t min_interval_micros = 500000);

  void BeginRun(std::string_view name, long long cells_total,
                long long cells_restored);
  /// One cell finished; `label` is its grid coordinates, `cell_micros` its
  /// wall latency.
  void RecordCell(std::string_view label, double cell_micros);
  void EndRun();

  ProgressSnapshot Snapshot() const;

 private:
  /// Builds a snapshot with mutex_ already held.
  ProgressSnapshot SnapshotLocked(int64_t now_micros) const;

  const Clock clock_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  bool active_ = false;
  std::string name_;
  long long cells_total_ = 0;
  long long cells_done_ = 0;
  long long cells_restored_ = 0;
  int64_t run_start_micros_ = 0;
  int64_t last_completion_micros_ = 0;
  double latency_ewma_micros_ = 0;
  double interval_ewma_micros_ = 0;
  std::string current_cell_;
  bool stderr_report_ = false;
  int64_t stderr_interval_micros_ = 500000;
  int64_t stderr_last_micros_ = 0;
};

}  // namespace tdg::obs

#endif  // TDG_OBS_PROGRESS_H_
