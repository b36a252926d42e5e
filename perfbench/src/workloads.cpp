// Untraced workloads: the end-to-end figures.  Each calls the library's
// public entry points exactly as a user of that surface would and checks
// every verdict against its reference.
#include <algorithm>

#include "bench.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace iotsan;

void AddMetric(RunResult& out, const std::string& name, double value,
               const std::string& unit, std::uint64_t samples) {
  out.metrics[name] = Metric{value, unit, samples};
}

void AddLatencies(RunResult& out, const std::vector<double>& verdict_ms) {
  AddMetric(out, "verdict_ms_p50", Median(verdict_ms), "ms",
            verdict_ms.size());
  if (const int p = TailPercentile(verdict_ms.size())) {
    out.info["verdict_ms_p" + std::to_string(p)] =
        Metric{Quantile(verdict_ms, p / 100.0), "ms", verdict_ms.size()};
  }
}

// ---- table8_serial -------------------------------------------------------------

RunResult RunTable8(const Args& args) {
  RunResult out;
  const core::CheckRequest request = Table8Request(kTable8Events, 1);
  core::RunCheck(Table8Request(kTable8WarmUpEvents, 1));
  MarkSetupDone();
  if (args.setup_only) return out;

  std::vector<double> verdict_ms;
  std::uint64_t states = 0;
  std::uint64_t expected_states = 0;
  double search_s = 0;
  const Clock::time_point start = Clock::now();
  // At least three verdicts, so the median is not a single sample.
  while (verdict_ms.size() < 3 || SecondsSince(start) < args.seconds) {
    ++out.attempted;
    const Clock::time_point t = Clock::now();
    const core::CheckResponse response = core::RunCheck(request);
    verdict_ms.push_back(MillisSince(t));
    const core::SanitizerReport& report = response.report;
    if (!report.completed || !report.violations.empty() ||
        !report.rejected_apps.empty()) {
      out.Fail("table8: verdict differs from the reference (no violation)");
    }
    if (expected_states == 0) expected_states = report.states_explored;
    if (report.states_explored != expected_states) {
      out.Fail("table8: state count changed between identical checks");
    }
    states += report.states_explored;
    search_s += report.seconds;
  }
  const double wall = SecondsSince(start);
  AddLatencies(out, verdict_ms);
  AddMetric(out, "verdicts_per_s", verdict_ms.size() / wall, "1/s",
            verdict_ms.size());
  AddMetric(out, "states_per_s", states / search_s, "1/s", verdict_ms.size());
  return out;
}

// ---- paper76_audit -------------------------------------------------------------

void WarmUp(const std::vector<AuditCase>& cases) {
  for (const AuditCase& c : cases) {
    core::CheckRequest warm = c.request;
    warm.options.events = 1;
    core::RunCheck(warm);
  }
}

RunResult RunPaper76(const Args& args) {
  RunResult out;
  const std::vector<AuditCase> cases = Paper76Cases(kVolunteerSeed);
  const Verdicts reference =
      LoadPaper76Reference(args.reference_dir, kVolunteerSeed);
  // The seed picks the order systems are checked in; each pass checks
  // all 82 requests, so every run sees the same mix.
  WarmUp(cases);
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(args.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  MarkSetupDone();
  if (args.setup_only) return out;

  std::vector<double> verdict_ms;
  std::uint64_t states = 0;
  double search_s = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i : order) {
      const AuditCase& c = cases[i];
      ++out.attempted;
      try {
        const Clock::time_point t = Clock::now();
        const core::CheckResponse response = core::RunCheck(c.request);
        verdict_ms.push_back(MillisSince(t));
        auto it = reference.find(c.name);
        if (it == reference.end() ||
            response.report.ViolatedPropertyIds() != it->second ||
            !response.report.completed) {
          out.Fail("paper76: verdict differs from the reference for " +
                   c.name);
        }
        states += response.report.states_explored;
        search_s += response.report.seconds;
      } catch (const std::exception& e) {
        out.Fail("paper76: " + c.name + ": " + e.what());
      }
    }
  } while (SecondsSince(start) < args.seconds);
  const double wall = SecondsSince(start);
  AddLatencies(out, verdict_ms);
  AddMetric(out, "verdicts_per_s", verdict_ms.size() / wall, "1/s",
            verdict_ms.size());
  AddMetric(out, "states_per_s", states / search_s, "1/s", verdict_ms.size());
  return out;
}

int RecordPaper76Reference(const Args& args) {
  Verdicts verdicts;
  for (const AuditCase& c : Paper76Cases(args.seed)) {
    verdicts[c.name] = core::RunCheck(c.request).report.ViolatedPropertyIds();
  }
  std::printf("%s\n", Paper76ReferenceJson(args.seed, verdicts).Dump(2).c_str());
  return 0;
}

}  // namespace perfbench
