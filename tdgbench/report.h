#ifndef TDGBENCH_REPORT_H_
#define TDGBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace tdgbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one benchmark run measured and whether its outputs were right.
struct Report {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures, for stderr

  bool correct() const { return errors.empty(); }
  void Fail(std::string why) { errors.push_back(std::move(why)); }

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }

  /// Records ChunkedPercentile(samples, p) * scale (samples in completion
  /// order) when the samples support it. A refused percentile is left
  /// unset: the metric does not apply to a run with too few of its ops.
  void SetPercentile(const std::string& name,
                     const std::vector<double>& samples, double p,
                     double scale, const std::string& unit) {
    auto value = ChunkedPercentile(samples, p);
    if (value.ok()) Set(name, *value * scale, unit);
  }
};

/// Options of one run.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_root;  // journals live under here
  std::string trace_dir;   // span files of the traced run
  int threads = 4;         // nproc, capped at 4
};

}  // namespace tdgbench

#endif  // TDGBENCH_REPORT_H_
