// Shared declarations of the repository benchmark (perfbench).
//
// One process runs one workload.  Untraced runs time the library's
// public entry points end to end; traced runs replay the same work step
// by step from this code and time each layer's public functions (see
// traced.cpp).  Every run ends by printing one JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "config/deployment.hpp"
#include "core/service.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace config = iotsan::config;
namespace core = iotsan::core;
namespace json = iotsan::json;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the recorded reference verdicts.
  std::string reference_dir;
  /// Scratch directory inside the checkout (registry files, logs).
  std::string work_dir;
  /// Fixed open-loop arrival rate of fleet_edit, edits per second.
  double fleet_rate = 0;
  /// Prints the paper76 reference for `seed` instead of benchmarking.
  bool record_reference = false;
  /// Stops after set-up and reports only setup_s (run.py starts a few
  /// such processes so setup_s is a median over fresh processes).
  bool setup_only = false;
};

/// Called by a workload when its set-up is done: setup_s is the time
/// from process start to this call.
void MarkSetupDone();

/// Lanes of the parallel comparison runs: four, never more than the host
/// has.
int Jobs4();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it
/// (0 when none qualifies), written as e.g. 95.
int TailPercentile(std::size_t samples);

/// One reported metric: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// What one run of a workload produced.
struct RunResult {
  std::map<std::string, Metric> metrics;
  /// Metrics printed for a reader but not part of the JSON result line
  /// (tail percentiles a short run cannot gate, the fleet generator's
  /// lateness and rate).
  std::map<std::string, Metric> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions, printed to stderr.
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Violated property ids listed in a rendered check report, sorted.
std::vector<std::string> ViolatedIdsFromText(const std::string& text);

/// The report text with the wall-clock figure of the "explored ..."
/// line replaced by a fixed token: two runs of one check agree byte for
/// byte on everything else.
std::string WithoutSeconds(const std::string& text);

// ---- inputs (inputs.cpp) -----------------------------------------------------

/// bench_table8_verification_time's quiet system: 5 related apps over
/// 10 devices, no device carries a role, so no invariant applies.
config::Deployment QuietSystem();
/// The Table 8 check of the quiet system: all five apps in one model.
core::CheckRequest Table8Request(int events, int jobs);
inline constexpr int kTable8Events = 8;
/// Set-up runs the check once at this smaller bound, so code and
/// allocator pages are warm before the first timed verdict.
inline constexpr int kTable8WarmUpEvents = 4;

/// bench_fleet_delta's home: one violating presence/lock pair plus
/// `thresholds.size()` "It's Too Cold" instances on private
/// sensor/heater pairs, instance i configured with thresholds[i].
json::Value FleetHomeJson(const std::vector<int>& thresholds);

/// One of the paper's 76 manually configured systems as a check request
/// (82 requests: each expert group twice, 70 volunteer configs once).
struct AuditCase {
  std::string name;
  core::CheckRequest request;
};
/// Expert groups at events=3 and with failures at events=2, then the
/// 70 volunteer configurations drawn from `volunteer_seed` at events=3.
std::vector<AuditCase> Paper76Cases(std::uint64_t volunteer_seed);
/// Set-up pass at one event, verdicts unchecked: parses every app and
/// property once, so the first timed pass is not an outlier.
void WarmUp(const std::vector<AuditCase>& cases);

/// The reference verdicts: case name -> sorted violated property ids.
using Verdicts = std::map<std::string, std::vector<std::string>>;
/// Loads <dir>/paper76_seed<seed>.json; throws iotsan::Error when the
/// file is missing or malformed, or disagrees with the answers the
/// repository's tests pin.
Verdicts LoadPaper76Reference(const std::string& dir, std::uint64_t seed);
json::Value Paper76ReferenceJson(std::uint64_t seed, const Verdicts& verdicts);

/// Volunteer seed of the paper workload, and the held-out one whose
/// recorded verdicts the traced run re-checks.
inline constexpr std::uint64_t kVolunteerSeed = 2018;
inline constexpr std::uint64_t kHeldOutSeed = 7;

// ---- workloads ---------------------------------------------------------------

void AddMetric(RunResult& out, const std::string& name, double value,
               const std::string& unit, std::uint64_t samples);
/// verdict_ms_p50, plus the tail percentile the sample count supports
/// (shown to a reader, not gated: most runs are too short for p95).
void AddLatencies(RunResult& out, const std::vector<double>& verdict_ms);

RunResult RunTable8(const Args& args);
RunResult RunPaper76(const Args& args);
RunResult RunFleetEdit(const Args& args);
int RecordPaper76Reference(const Args& args);

// Traced runs (traced.cpp).
RunResult TraceTable8(const Args& args);
RunResult TracePaper76(const Args& args);
RunResult TraceFleetEdit(const Args& args);

}  // namespace perfbench
