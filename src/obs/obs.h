#ifndef TDG_OBS_OBS_H_
#define TDG_OBS_OBS_H_

/// tdg::obs — runtime observability for the DyGroups engine.
///
/// The base pillar is process-wide: a thread-safe metrics registry
/// (metrics.h) of named counters, gauges, and fixed-bucket latency
/// histograms with p50/p95/p99 summaries, exportable to JSON / CSV / an
/// ASCII table.
///
/// Controls:
///   * compile time — building with -DTDG_OBS_DISABLED compiles every
///     TDG_OBS_* / TDG_PERF_SCOPE / TDG_BLACKBOX macro to nothing. Explicit
///     API calls (e.g. the sweep's process-latency histogram that feeds
///     mean_micros) remain functional: they are product features, not
///     optional instrumentation.
///   * runtime — SetMetricsEnabled(false) freezes every metric; profiling
///     and the flight recorder are off unless started. With all of them
///     off, instrumented hot paths cost one relaxed atomic load per site.
///
/// The live monitoring plane (stats_server.h, progress.h, heartbeat.h,
/// prometheus.h) serves the same registry over loopback HTTP (/metrics
/// Prometheus exposition, /statusz, /progressz, /healthz), tracks sweep
/// progress/ETA, and lets crash-safe shards advertise liveness via atomic
/// heartbeat files. All of it only *reads* experiment state: outputs are
/// byte-identical with and without the server.
///
/// Kernel profiling (perf_counters.h, perf_profile.h) is the one zone
/// primitive: it reads hardware counters (cycles, instructions, cache/branch
/// misses) via perf_event_open, degrading to getrusage/clock_gettime where
/// perf access is denied, and attributes them to named kernel domains
/// through RAII ScopedPerfDomain zones (TDG_PERF_SCOPE). Attribution lands
/// in registry counters "perf/<domain>/<event>", so it reaches /metrics,
/// --metrics_out and bench reports without extra plumbing. Off by default;
/// enable with `--profile` (bench/CLI binaries) or TDG_PROFILE=1.
///
/// The flight recorder (flight_recorder.h) is the one event sink: the
/// always-on black box of per-thread mmap-backed ring buffers of compact
/// semantic events (round objectives, group churn, sweep cell boundaries,
/// request phases) whose dump file survives kill -9. `tdg_blackbox` decodes
/// it — as JSONL or as a Chrome trace timeline — and /blackboxz tails it
/// live.
///
/// Request-scoped serving telemetry (request_context.h,
/// windowed_histogram.h, tail_sampler.h) gives the cohort serving plane
/// per-request trace ids threaded into the flight recorder, rolling
/// 10s/1m/5m latency windows (p50/p95/p99, QPS, error rate) on /metrics
/// and /statusz, and a bounded ring of slow-request phase breakdowns on
/// /slowz with a /tracez index. See the which-tool-when table in README
/// "Observability".

#include "obs/bench_report.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/perf_diff.h"
#include "obs/perf_profile.h"
#include "obs/progress.h"
#include "obs/prometheus.h"
#include "obs/request_context.h"
#include "obs/run_manifest.h"
#include "obs/stats_server.h"
#include "obs/tail_sampler.h"
#include "obs/windowed_histogram.h"
#include "util/status.h"

namespace tdg::obs {

/// Routes util::ThreadPool's observer hooks into the global registry:
///   gauge     "thread_pool/queue_depth"  (current + peak queued tasks)
///   histogram "thread_pool/task_micros"  (per-task run latency)
/// Idempotent; replaces any previously installed observer.
void InstallThreadPoolInstrumentation();

/// Routes util::WorkStealingIndexQueue's drain totals into the global
/// registry:
///   counter "work_steal_queue/pops"      (own-deque takes)
///   counter "work_steal_queue/steals"    (victim-deque takes)
///   counter "work_steal_queue/exhausts"  (empty-everywhere scans)
///   counter "work_steal_queue/queues_drained"
/// Idempotent; replaces any previously installed observer.
void InstallWorkStealQueueInstrumentation();

/// Stamps build provenance (git sha, compiler, build type, sanitizer, os —
/// from RunManifest::Capture()) into the registry's build_info label set,
/// rendered as the `tdg_build_info{...} 1` gauge on /metrics and as the
/// "build_info" object in JSON/CSV exports. Idempotent.
void InstallBuildInfoMetrics();

/// Peak resident set size of this process in bytes (ru_maxrss, normalized
/// across platforms); 0 when getrusage fails.
int64_t ProcessPeakRssBytes();

/// Refreshes the point-in-time process gauges in the global registry:
///   gauge "process/uptime_seconds"
///   gauge "process/peak_rss_bytes"   (tdg_process_peak_rss_bytes on
///                                     /metrics)
/// A no-op when metrics are frozen. Called before every snapshot export so
/// file exports and /metrics scrapes agree on what a snapshot carries.
void RefreshProcessGauges();

/// Writes MetricsRegistry::Global().Snapshot() to `path`. Both call
/// RefreshProcessGauges() first.
util::Status WriteMetricsJsonFile(const std::string& path);
util::Status WriteMetricsCsvFile(const std::string& path);

}  // namespace tdg::obs

#endif  // TDG_OBS_OBS_H_
