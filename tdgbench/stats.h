#ifndef TDGBENCH_STATS_H_
#define TDGBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace tdgbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`. A tail
/// percentile must have at least ten samples beyond it, so p > 50 needs
/// n >= 10 / (1 - p/100) samples: a p99 from fewer than 1000 samples is
/// refused (FailedPrecondition) rather than reported. p <= 50 needs one.
tdg::util::StatusOr<double> Percentile(std::vector<double> samples,
                                       double p);

/// The better quartile of repeated measurements of one quantity: the
/// value at nearest rank n/4 counted from the better end. The host is
/// shared, and interference from its other tenants only ever makes a
/// repetition slower, so the better quartile follows the program while
/// the median follows the neighbours.
double BestQuartile(std::vector<double> values, bool higher_is_better);

/// The value at nearest rank ceil(share * n) counted from the better end of
/// `values` (non-empty); BestQuartile is share 0.25.
double BetterShare(std::vector<double> values, double share,
                   bool higher_is_better);

/// Geometric mean, over the groups holding at least `min_samples` samples,
/// of each group's percentile `p` (p <= 50); 0 when no group qualifies.
/// Each op kind counts once however often the schedule sends it.
double GeometricMeanPercentile(
    const std::map<std::string, std::vector<double>>& groups, double p,
    size_t min_samples);

/// Run-level percentile robust to host stalls, for samples in completion
/// order: the samples are cut into consecutive chunks of `chunk` (a short
/// remainder joins the last chunk), each chunk's percentile is taken, and
/// the better quartile over chunks is returned, so stalls covering up to
/// three quarters of the run do not move it. With fewer than two chunks
/// this is Percentile(samples, p), refusals included.
tdg::util::StatusOr<double> ChunkedPercentile(
    const std::vector<double>& samples, double p, size_t chunk = 1000);

/// A served load's typical latency: `samples` are (op kind, latency) in
/// completion order, cut into consecutive chunks of `chunk` (a short
/// remainder joins the last chunk). Each chunk's value is
/// GeometricMeanPercentile over its kinds, and the better (lower) decile
/// over chunks is returned; with fewer than two chunks, the whole load's
/// value.
double ChunkedKindPercentile(
    const std::vector<std::pair<std::string, double>>& samples, double p,
    size_t min_samples, size_t chunk = 1000);

/// Events per second from ascending completion times (seconds from the
/// start of the load): the better decile over chunks of `chunk` events of
/// each chunk's rate; with fewer than two chunks, count / last completion.
/// Bursts of host interference on the disk and CPUs last seconds, so a
/// run's rate follows its quietest tenth.
double ChunkedRate(const std::vector<double>& end_s, size_t chunk = 1000);

/// The p99 when there are at least 1000 samples; otherwise the 10th-largest
/// sample (the highest rank with ten samples at or beyond it), or the
/// largest when there are fewer than ten. 0 for no samples.
double TailValue(std::vector<double> samples);

/// Median of a non-empty set (the p50 above, for small repeat counts).
double Median(std::vector<double> samples);

/// One timed call in the traced run. Spans of one operation share `op`;
/// `rung` is the ladder level the call entered (1 = socket ... 5 = core);
/// `name` is "entry" for the span covering the whole operation at that
/// rung, anything else for a sub-span inside it.
struct Span {
  int64_t op = 0;
  int rung = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;

  double duration_us() const { return end_us - start_us; }
};

/// Per-operation self time of rung `upper`: its entry span's duration minus
/// the entry span of the same operation at rung `lower`. Operations
/// missing an entry span at either rung are skipped. Keyed by op.
std::map<int64_t, double> LadderSelfTimes(const std::vector<Span>& spans,
                                          int upper, int lower);

/// Durations of every span named `name` at `rung` whose op is in `ops`
/// (all ops when `ops` is empty).
std::vector<double> SpanDurations(const std::vector<Span>& spans, int rung,
                                  const std::string& name,
                                  const std::vector<int64_t>& ops = {});

}  // namespace tdgbench

#endif  // TDGBENCH_STATS_H_
