#ifndef TDGBENCH_PROC_STATS_H_
#define TDGBENCH_PROC_STATS_H_

#include <cstdint>
#include <string>

namespace tdgbench {

/// Whole-process resource counters, read from outside the program under
/// test: getrusage(RUSAGE_SELF) and /proc/self/io.
struct ProcSample {
  double cpu_s = 0;          // user + system CPU time
  int64_t ctx_switches = 0;  // voluntary + involuntary
  int64_t write_bytes = 0;   // /proc/self/io write_bytes (storage layer)
  int64_t write_syscalls = 0;  // /proc/self/io syscw

  static ProcSample Now();
  ProcSample operator-(const ProcSample& earlier) const;
};

/// Peak resident set size so far (VmHWM), in MB.
double PeakRssMb();

/// Filesystem type name of `path` ("ext4", "tmpfs", "overlay", ... or the
/// statfs magic in hex when unknown).
std::string FilesystemType(const std::string& path);

/// The /metrics render path of the process-wide obs registry, timed from
/// outside: the median of `renders` RenderPrometheusText(Snapshot()) calls
/// and the number of metric families the registry holds.
struct RegistryProbe {
  double render_ms_p50 = 0;
  double families = 0;
};
RegistryProbe ProbeMetricsRegistry(int renders);

}  // namespace tdgbench

#endif  // TDGBENCH_PROC_STATS_H_
