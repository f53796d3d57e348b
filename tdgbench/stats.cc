#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"
#include "util/string_util.h"

namespace tdgbench {

tdg::util::StatusOr<double> Percentile(std::vector<double> samples,
                                       double p) {
  if (!(p > 0 && p <= 100)) {
    return tdg::util::Status::InvalidArgument("percentile must be in (0,100]");
  }
  const double n = static_cast<double>(samples.size());
  const double needed = p > 50 ? std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9)
                               : 1.0;
  if (samples.empty() || n < needed) {
    return tdg::util::Status::FailedPrecondition(tdg::util::StrFormat(
        "p%g needs at least %.0f samples, have %zu", p, needed,
        samples.size()));
  }
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50).value();
}

double BestQuartile(std::vector<double> values, bool higher_is_better) {
  return BetterShare(std::move(values), 0.25, higher_is_better);
}

double BetterShare(std::vector<double> values, double share,
                   bool higher_is_better) {
  TDG_CHECK(!values.empty());
  // Nearest rank from the better end; a share of repetitions is not a
  // tail estimate, so Percentile's sample floor does not apply.
  std::sort(values.begin(), values.end());
  if (higher_is_better) std::reverse(values.begin(), values.end());
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(share * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

double GeometricMeanPercentile(
    const std::map<std::string, std::vector<double>>& groups, double p,
    size_t min_samples) {
  double log_sum = 0;
  int counted = 0;
  for (const auto& [name, samples] : groups) {
    if (samples.size() < std::max<size_t>(min_samples, 1)) continue;
    log_sum += std::log(Percentile(samples, p).value());
    ++counted;
  }
  return counted == 0 ? 0 : std::exp(log_sum / counted);
}

tdg::util::StatusOr<double> ChunkedPercentile(
    const std::vector<double>& samples, double p, size_t chunk) {
  const size_t chunks = chunk == 0 ? 0 : samples.size() / chunk;
  if (chunks < 2) return Percentile(samples, p);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto end = c + 1 == chunks
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(chunk);
    TDG_ASSIGN_OR_RETURN(double value,
                         Percentile(std::vector<double>(begin, end), p));
    per_chunk.push_back(value);
  }
  return BestQuartile(std::move(per_chunk), /*higher_is_better=*/false);
}

double ChunkedKindPercentile(
    const std::vector<std::pair<std::string, double>>& samples, double p,
    size_t min_samples, size_t chunk) {
  auto value = [&](size_t begin, size_t end) {
    std::map<std::string, std::vector<double>> by_kind;
    for (size_t i = begin; i < end; ++i) {
      by_kind[samples[i].first].push_back(samples[i].second);
    }
    return GeometricMeanPercentile(by_kind, p, min_samples);
  };
  const size_t chunks = chunk == 0 ? 0 : samples.size() / chunk;
  if (chunks < 2) return value(0, samples.size());
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    per_chunk.push_back(
        value(c * chunk, c + 1 == chunks ? samples.size() : (c + 1) * chunk));
  }
  return BetterShare(std::move(per_chunk), 0.1, /*higher_is_better=*/false);
}

double ChunkedRate(const std::vector<double>& end_s, size_t chunk) {
  if (end_s.empty()) return 0;
  const size_t chunks = chunk == 0 ? 0 : end_s.size() / chunk;
  if (chunks < 2) return static_cast<double>(end_s.size()) / end_s.back();
  std::vector<double> rates;
  double previous_end = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t last =
        c + 1 == chunks ? end_s.size() - 1 : (c + 1) * chunk - 1;
    const size_t count = last + 1 - c * chunk;
    rates.push_back(static_cast<double>(count) / (end_s[last] - previous_end));
    previous_end = end_s[last];
  }
  return BetterShare(std::move(rates), 0.1, /*higher_is_better=*/true);
}

double TailValue(std::vector<double> samples) {
  if (samples.empty()) return 0;
  if (samples.size() >= 1000) return Percentile(std::move(samples), 99).value();
  std::sort(samples.begin(), samples.end());
  const size_t from_top = std::min<size_t>(10, samples.size());
  return samples[samples.size() - from_top];
}

std::map<int64_t, double> LadderSelfTimes(const std::vector<Span>& spans,
                                          int upper, int lower) {
  std::unordered_map<int64_t, double> lower_entry;
  for (const Span& span : spans) {
    if (span.rung == lower && span.name == "entry") {
      lower_entry[span.op] = span.duration_us();
    }
  }
  std::map<int64_t, double> self;
  for (const Span& span : spans) {
    if (span.rung != upper || span.name != "entry") continue;
    auto it = lower_entry.find(span.op);
    if (it != lower_entry.end()) {
      self[span.op] = span.duration_us() - it->second;
    }
  }
  return self;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans, int rung,
                                  const std::string& name,
                                  const std::vector<int64_t>& ops) {
  const std::unordered_set<int64_t> wanted(ops.begin(), ops.end());
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.rung == rung && span.name == name &&
        (wanted.empty() || wanted.count(span.op) != 0)) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

}  // namespace tdgbench
