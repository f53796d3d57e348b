// Head-to-head throughput of the SoA kernels (core/soa.h) against the AoS
// reference oracle (core/reference/reference_kernels.h) — the certification
// bench for the structure-of-arrays refactor (DESIGN.md §11).
//
// Five kernels x n in {10^3, 10^4, 10^5}:
//   deficits      SkillDeficits (max + broadcast subtract)
//   sort          descending-skill argsort (radix vs stable_sort)
//   star_round    one full DyGroups star round (sort + form + update)
//   clique_round  one full DyGroups clique round (Theorem-3 prefix path)
//   swap_delta    the O(n/k) local-search swap objective (4 group gains)
//
// Usage:
//   bench_soa_kernels                      # compare both paths, print speedup
//   bench_soa_kernels --path=soa --report_out=soa.json [--profile]
//   bench_soa_kernels --path=reference --report_out=ref.json [--profile]
//   bench_soa_kernels --blackbox=bb.bin    # flight recorder on (overhead
//                                          # certificate, DESIGN.md §12)
//
// The two single-path reports use identical case keys, so the speedup claim
// is certified end-to-end by:
//   tdg_perfdiff --baseline=ref.json --candidate=soa.json [--metric=...]
// (see bench/reports/ for the committed artifacts and ci/check.sh `soa` for
// the automated self-diff gate).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/objective.h"
#include "core/reference/reference_kernels.h"
#include "core/soa.h"

namespace tdg::bench {
namespace {

constexpr int kGroups = 5;     // paper §V-B2 default k
constexpr double kRate = 0.5;  // paper §V-B2 default r

struct BenchCase {
  const char* kernel;
  int n;
};

// One timed execution of `kernel` on `path`. Returns an objective value
// derived from the kernel's output, so the reporter can cross-check that
// both paths computed the same thing (identical objectives in ref.json and
// soa.json are the differential contract showing up in the artifacts).
double RunOnce(const std::string& path, const std::string& kernel,
               const SkillVector& skills, const Grouping& swap_grouping,
               const LearningGainFunction& gain) {
  const bool soa_path = path == "soa";
  if (kernel == "deficits") {
    std::vector<double> deficits = soa_path
                                       ? SkillDeficits(skills)
                                       : reference::SkillDeficits(skills);
    return soa::OrderedSum(deficits);
  }
  if (kernel == "sort") {
    std::vector<int> ids = soa_path
                               ? SortedByskillDescending(skills)
                               : reference::SortedByskillDescending(skills);
    return static_cast<double>(ids.front()) +
           static_cast<double>(ids.back());
  }
  if (kernel == "star_round" || kernel == "clique_round") {
    const InteractionMode mode = kernel == "star_round"
                                     ? InteractionMode::kStar
                                     : InteractionMode::kClique;
    SkillVector updated = skills;
    if (soa_path) {
      auto gain_or = soa::DyGroupsRound(
          mode == InteractionMode::kStar ? soa::DyGroupsLayout::kStarBlocks
                                         : soa::DyGroupsLayout::kRoundRobin,
          mode, gain, updated, kGroups, soa::ThreadLocalArena());
      TDG_CHECK(gain_or.ok()) << gain_or.status();
      return gain_or.value();
    }
    auto grouping = mode == InteractionMode::kStar
                        ? reference::DyGroupsStarLocal(updated, kGroups)
                        : reference::DyGroupsCliqueLocal(updated, kGroups);
    TDG_CHECK(grouping.ok()) << grouping.status();
    auto gain_or =
        reference::ApplyRound(mode, grouping.value(), gain, updated);
    TDG_CHECK(gain_or.ok()) << gain_or.status();
    return gain_or.value();
  }
  TDG_CHECK(kernel == "swap_delta") << "unknown kernel " << kernel;
  const int size_a = static_cast<int>(swap_grouping.groups[0].size());
  if (soa_path) {
    auto delta = EvaluateRoundGainDelta(
        InteractionMode::kStar, swap_grouping, gain, skills, /*group_a=*/0,
        /*index_a=*/size_a / 2, /*group_b=*/1, /*index_b=*/size_a / 3,
        nullptr, nullptr);
    TDG_CHECK(delta.ok()) << delta.status();
    return delta.value().delta;
  }
  // Reference swap delta: member-vector copies + four oracle group gains,
  // exactly what the production path computed before the arena kernels.
  std::vector<int> swapped_a = swap_grouping.groups[0];
  std::vector<int> swapped_b = swap_grouping.groups[1];
  std::swap(swapped_a[size_a / 2], swapped_b[size_a / 3]);
  auto old_a = reference::EvaluateGroupGain(
      InteractionMode::kStar, swap_grouping.groups[0], gain, skills);
  auto old_b = reference::EvaluateGroupGain(
      InteractionMode::kStar, swap_grouping.groups[1], gain, skills);
  auto new_a = reference::EvaluateGroupGain(InteractionMode::kStar,
                                            swapped_a, gain, skills);
  auto new_b = reference::EvaluateGroupGain(InteractionMode::kStar,
                                            swapped_b, gain, skills);
  TDG_CHECK(old_a.ok() && old_b.ok() && new_a.ok() && new_b.ok());
  return (new_a.value() + new_b.value()) - (old_a.value() + old_b.value());
}

// Mean wall micros over `reps` repetitions, each recorded into the global
// BenchReporter under a path-independent case key.
double RunCase(const std::string& path, const BenchCase& bench_case,
               int reps) {
  random::Rng rng(42);
  SkillVector skills = random::GenerateSkills(
      rng, random::SkillDistribution::kLogNormal, bench_case.n);
  for (double& s : skills) s += 1e-9;
  LinearGain gain(kRate);
  auto swap_grouping = reference::DyGroupsStarLocal(skills, kGroups);
  TDG_CHECK(swap_grouping.ok()) << swap_grouping.status();

  const std::string case_key = std::string(bench_case.kernel) +
                               "/n=" + std::to_string(bench_case.n);
  // One untimed warm-up settles the arena and the page cache for both paths.
  RunOnce(path, bench_case.kernel, skills, swap_grouping.value(), gain);

  double total_micros = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
    double objective = RunOnce(path, bench_case.kernel, skills,
                               swap_grouping.value(), gain);
    bench_rep.watch().Pause();
    bench_rep.set_objective(objective);
    total_micros += static_cast<double>(bench_rep.watch().TotalMicros());
  }
  return total_micros / reps;
}

int Main(int argc, char** argv) {
  std::string path = "both";
  std::string blackbox;
  obs::GlobalBenchReporter().ParseReportFlag(argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--path=", 0) == 0) path = std::string(arg.substr(7));
    if (arg.rfind("--blackbox=", 0) == 0) {
      blackbox = std::string(arg.substr(11));
    }
    if (arg == "--profile") obs::SetProfilingEnabled(true);
  }
  if (!blackbox.empty()) {
    // The flight-recorder overhead certificate: identical case keys with
    // and without --blackbox, gated by tdg_perfdiff (ci/check.sh blackbox,
    // bench/reports/soa_kernels_blackbox_*.json).
    obs::FlightRecorder::Options recorder_options;
    recorder_options.path = blackbox;
    auto status = obs::FlightRecorder::Global().Start(recorder_options);
    TDG_CHECK(status.ok()) << status;
  }
  if (path != "both" && path != "soa" && path != "reference") {
    std::fprintf(stderr, "unknown --path=%s (both|soa|reference)\n",
                 path.c_str());
    return 2;
  }
  if (path == "both" && obs::GlobalBenchReporter().enabled()) {
    std::fprintf(stderr,
                 "--report_out needs --path=soa or --path=reference so the "
                 "artifact's case keys name exactly one implementation\n");
    return 2;
  }
  PrintHeader("SoA kernel throughput vs AoS reference",
              "DESIGN.md §11 (structure-of-arrays data plane)");
  std::printf("k=%d r=%.2f\n\n", kGroups, kRate);

  const BenchCase cases[] = {
      {"deficits", 1000},     {"deficits", 10000},     {"deficits", 100000},
      {"sort", 1000},         {"sort", 10000},         {"sort", 100000},
      {"star_round", 1000},   {"star_round", 10000},   {"star_round", 100000},
      {"clique_round", 1000}, {"clique_round", 10000}, {"clique_round", 100000},
      {"swap_delta", 1000},   {"swap_delta", 10000},   {"swap_delta", 100000},
  };
  std::printf("%-22s %14s %14s %9s\n", "case", "reference_us", "soa_us",
              "speedup");
  for (const BenchCase& bench_case : cases) {
    // Small cases run tens of microseconds on a shared machine: without a
    // deep rep count the scheduler-noise outliers dominate the perfdiff
    // bootstrap and the verdicts flap.
    const int reps =
        bench_case.n >= 100000 ? 7 : (bench_case.n >= 10000 ? 25 : 80);
    double ref_us = 0.0;
    double soa_us = 0.0;
    if (path != "soa") ref_us = RunCase("reference", bench_case, reps);
    if (path != "reference") soa_us = RunCase("soa", bench_case, reps);
    std::string label = std::string(bench_case.kernel) +
                        "/n=" + std::to_string(bench_case.n);
    if (path == "both") {
      std::printf("%-22s %14.1f %14.1f %8.2fx\n", label.c_str(), ref_us,
                  soa_us, soa_us > 0 ? ref_us / soa_us : 0.0);
    } else {
      std::printf("%-22s %14.1f %14.1f %9s\n", label.c_str(), ref_us, soa_us,
                  "-");
    }
  }

  if (!blackbox.empty()) obs::FlightRecorder::Global().Stop();
  EmitReport(argc, argv);
  return 0;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) { return tdg::bench::Main(argc, argv); }
