// The tdg benchmark program: runs one named workload with a seed, checks
// its outputs, and prints every metric it measured. See README.md.
//
//   tdgbench --workload <batch_sweep|serve_small|serve_large> --seed <n>
//            --seconds <s> --trace <0|1>
//
// stdout: a {"provenance": ...} line, then the result as the last line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exit 0 when every correctness check passed, 1 when one failed, 2 on
// bad arguments.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "batch_workload.h"
#include "obs/run_manifest.h"
#include "proc_stats.h"
#include "report.h"
#include "schedule.h"
#include "serve_workload.h"
#include "util/json.h"
#include "util/string_util.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "tdgbench: %s\nusage: tdgbench --workload "
               "<batch_sweep|serve_small|serve_large> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      auto parsed = tdg::util::ParseInt(value);
      if (!parsed.ok() || *parsed < 0) return Usage("--seed must be >= 0");
      seed = *parsed;
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (seed < 0) return Usage("--seed is required");
  if (!(seconds >= 1 && seconds <= 600)) return Usage("--seconds in [1,600]");
  if (workload != "batch_sweep" && workload != "serve_small" &&
      workload != "serve_large") {
    return Usage("unknown --workload");
  }

  tdgbench::RunOptions opts;
  opts.seed = static_cast<uint64_t>(seed);
  opts.seconds = seconds;
  opts.trace = trace == 1;
  opts.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  opts.state_root = tdg::util::StrFormat(".bench_state/%s-%lld-%d",
                                         workload.c_str(), seed,
                                         static_cast<int>(getpid()));
  opts.trace_dir = tdg::util::StrFormat(".bench_trace/%s-seed%lld",
                                        workload.c_str(), seed);
  std::filesystem::create_directories(opts.state_root);
  if (opts.trace) std::filesystem::create_directories(opts.trace_dir);
  const std::string state_fs = tdgbench::FilesystemType(opts.state_root);
  if (state_fs == "tmpfs") {
    std::fprintf(stderr,
                 "tdgbench: warning: the state directory is on tmpfs, so "
                 "journal fsyncs cost nothing\n");
  }

  const tdgbench::ServeSpec* serve_spec =
      workload == "serve_small"   ? &tdgbench::ServeSmallSpec()
      : workload == "serve_large" ? &tdgbench::ServeLargeSpec()
                                  : nullptr;

  tdg::util::JsonValue provenance = tdg::util::JsonValue::MakeObject();
  provenance.Set("manifest", tdg::obs::RunManifest::Capture(
                                 opts.seed, argc, argv).ToJson());
  provenance.Set("nproc",
                 static_cast<int>(std::thread::hardware_concurrency()));
  provenance.Set("threads", opts.threads);
  provenance.Set("state_dir_fs", state_fs);
  provenance.Set("workload", workload);
  provenance.Set("seed", static_cast<long long>(seed));
  provenance.Set("seconds", seconds);
  provenance.Set("trace", trace);
  provenance.Set("open_loop_rate_per_s",
                 serve_spec != nullptr && serve_spec->open_loop
                     ? serve_spec->ops_per_s
                     : 0.0);
  tdg::util::JsonValue provenance_line = tdg::util::JsonValue::MakeObject();
  provenance_line.Set("provenance", std::move(provenance));
  std::printf("%s\n", provenance_line.Serialize().c_str());
  std::fflush(stdout);

  // Write back what earlier runs left dirty (journals, spans, build
  // outputs) before measuring, so this run's fsyncs do not pay for it.
  if (const int fd = open(opts.state_root.c_str(), O_RDONLY); fd >= 0) {
    syncfs(fd);
    close(fd);
  }

  tdgbench::Report report;
  if (serve_spec == nullptr) {
    tdgbench::RunBatchWorkload(opts, &report);
  } else {
    tdgbench::RunServeWorkload(*serve_spec, opts, &report);
  }
  std::filesystem::remove_all(opts.state_root);

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "tdgbench: check failed: %s\n", error.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "tdgbench: dropping non-finite %s\n", name.c_str());
      continue;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += tdg::util::StrFormat("%s:{\"value\":%.17g,\"unit\":%s}",
                                    tdg::util::JsonEscape(name).c_str(),
                                    metric.value,
                                    tdg::util::JsonEscape(metric.unit).c_str());
  }
  const bool correct = report.correct();
  const long long attempted = std::max<long long>(1, report.attempted);
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      correct ? "true" : "false", attempted,
      correct ? static_cast<long long>(report.failed) : attempted,
      metrics.c_str());
  return correct ? 0 : 1;
}
