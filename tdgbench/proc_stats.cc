#include "proc_stats.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "stats.h"

namespace tdgbench {

ProcSample ProcSample::Now() {
  ProcSample sample;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec) / 1e6 +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  sample.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") sample.write_bytes = value;
    if (key == "syscw:") sample.write_syscalls = value;
  }
  return sample;
}

ProcSample ProcSample::operator-(const ProcSample& earlier) const {
  ProcSample delta;
  delta.cpu_s = cpu_s - earlier.cpu_s;
  delta.ctx_switches = ctx_switches - earlier.ctx_switches;
  delta.write_bytes = write_bytes - earlier.write_bytes;
  delta.write_syscalls = write_syscalls - earlier.write_syscalls;
  return delta;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlay";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x6969UL:
      return "nfs";
    case 0x2FC12FC1UL:
      return "zfs";
    default:
      break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

RegistryProbe ProbeMetricsRegistry(int renders) {
  using Clock = std::chrono::steady_clock;
  RegistryProbe probe;
  std::vector<double> render_ms;
  size_t bytes = 0;
  for (int i = 0; i < renders; ++i) {
    const Clock::time_point start = Clock::now();
    const tdg::obs::MetricsSnapshot snapshot =
        tdg::obs::MetricsRegistry::Global().Snapshot();
    bytes += tdg::obs::RenderPrometheusText(snapshot).size();
    render_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    probe.families = static_cast<double>(
        snapshot.counters.size() + snapshot.gauges.size() +
        snapshot.histograms.size() + snapshot.windowed.size());
  }
  probe.render_ms_p50 = bytes > 0 ? Median(render_ms) : 0;
  return probe;
}

}  // namespace tdgbench
