// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference-dir <dir> --work-dir <dir> [--fleet-rate <r>]
//             [--setup-only] [--record-reference]
//
// Runs one workload in this process and prints a human-readable table
// (each metric with its unit and sample count) followed by one JSON
// result line.  perfbench/run.py builds this binary and calls it.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();
Clock::time_point g_setup_done{};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw iotsan::Error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--reference-dir") {
      args.reference_dir = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--fleet-rate") {
      args.fleet_rate = std::stod(value());
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--record-reference") {
      args.record_reference = true;
    } else {
      throw iotsan::Error("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) throw iotsan::Error("--seconds must be > 0");
  return args;
}

RunResult Dispatch(const Args& args) {
  const std::string& w = args.workload;
  if (w == "table8_serial") {
    return args.trace ? TraceTable8(args) : RunTable8(args);
  }
  if (w == "paper76_audit") {
    return args.trace ? TracePaper76(args) : RunPaper76(args);
  }
  if (w == "fleet_edit") {
    return args.trace ? TraceFleetEdit(args) : RunFleetEdit(args);
  }
  throw iotsan::Error("unknown workload '" + w + "'");
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Print(const Args& args, const RunResult& result) {
  const iotsan::build::BuildInfo& build = iotsan::build::GetBuildInfo();
  std::printf("workload %s  seed %llu  trace %d  (nproc %u, %s, %s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              build.compiler.c_str(), build.build_type.c_str());
  std::printf("%-32s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto* table : {&result.metrics, &result.info}) {
    for (const auto& [name, m] : *table) {
      std::printf("%-32s %16.6g  %-6s %llu\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }
  std::printf("%-32s %16.6g  %-6s %llu\n", "fail_ratio",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0,
              "ratio", static_cast<unsigned long long>(result.attempted));
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

void MarkSetupDone() { g_setup_done = Clock::now(); }

int Jobs4() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw == 0 ? 1 : std::min(4u, hw));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = ParseArgs(argc, argv);
    if (args.record_reference) return RecordPaper76Reference(args);
    // `iotsan serve` always keeps a telemetry registry live, and the
    // instrumentation is meant to stay on, so every workload runs with one.
    iotsan::telemetry::Registry registry;
    iotsan::telemetry::SetActive(&registry);
    RunResult result = Dispatch(args);
    iotsan::telemetry::SetActive(nullptr);
    if (g_setup_done == Clock::time_point{}) {
      throw iotsan::Error("workload never finished its set-up");
    }
    // A traced run reports per-layer metrics only.
    if (!args.trace) {
      result.metrics["setup_s"] = Metric{
          std::chrono::duration<double>(g_setup_done - g_process_start)
              .count(),
          "s", 1};
      result.metrics["peak_rss_mb"] = Metric{PeakRssMb(), "MiB", 1};
    }
    if (args.setup_only) {
      result.attempted = 1;
      const Metric setup = result.metrics["setup_s"];
      result.metrics.clear();
      result.metrics["setup_s"] = setup;
    }
    Print(args, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
