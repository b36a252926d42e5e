#include "cli/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <type_traits>

#include "util/error.hpp"

namespace iotsan::cli {

namespace {

/// Stores a parsed flag into one CliFlags field, by the field's type: the
/// value text, the range-checked number, or true for a switch.
template <auto Field>
constexpr FlagSetter Set = [](CliFlags& flags,
                              [[maybe_unused]] const std::string& value,
                              [[maybe_unused]] long long number) {
  using T = std::remove_reference_t<decltype(flags.*Field)>;
  if constexpr (std::is_same_v<T, std::string>) {
    flags.*Field = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    flags.*Field = true;
  } else {
    flags.*Field = static_cast<T>(number);
  }
};

constexpr FlagSpec kFlagTable[] = {
    {"--events", "N", kCmdCheck | kCmdAttribute | kCmdPromela | kCmdCluster,
     "external-event bound per run (Algorithm 1; default 3, attribute: 2)"},
    {"--jobs", "N", kCmdCheck | kCmdAttribute | kCmdServe | kCmdCluster,
     "worker threads for the search (0 = all hardware threads; default 1, "
     "serve: 0); verdicts and totals are identical for any N"},
    {"--failures", nullptr, kCmdCheck | kCmdCluster,
     "enumerate device/communication failure scenarios per event (paper §8)"},
    {"--mono", nullptr, kCmdCheck,
     "skip dependency analysis; check all apps in one monolithic model"},
    {"--bitstate", nullptr, kCmdCheck | kCmdAttribute | kCmdCluster,
     "use Spin-style BITSTATE hashing instead of the exhaustive store"},
    {"--bitstate-bits", "P", kCmdCheck | kCmdAttribute | kCmdCluster,
     "BITSTATE bit-field size as a power of two (Spin -w; default 27 = "
     "16 MiB)"},
    {"--state-compression", nullptr, kCmdCheck | kCmdAttribute | kCmdCluster,
     "Spin-style COLLAPSE store keys: intern per-device/app-state/timer "
     "components instead of hashing full state vectors"},
    {"--first", nullptr, kCmdCheck | kCmdCluster,
     "stop at the first property violation"},
    {"--properties", "FILE", kCmdCheck | kCmdCluster,
     "load additional user-defined safety properties from JSON",
     Set<&CliFlags::properties_path>},
    {"--allow-discovery", nullptr, kCmdCheck | kCmdAttribute | kCmdCluster,
     "check dynamic-device-discovery apps instead of rejecting them"},
    {"--stats", nullptr,
     kCmdCheck | kCmdAttribute | kCmdDeps | kCmdServe | kCmdCluster,
     "print telemetry after the run: counters, per-phase durations, store "
     "diagnostics", Set<&CliFlags::stats>},
    {"--trace-out", "FILE", kCmdCheck | kCmdAttribute | kCmdDeps | kCmdServe,
     "write a JSONL span trace (one JSON object per line) to FILE",
     Set<&CliFlags::trace_out>},
    {"--progress-every", "N", kCmdCheck,
     "report search progress to stderr every N expanded states",
     Set<&CliFlags::progress_every>, 0, 1000000000000000000LL},
    {"--artifacts-dir", "DIR", kCmdCheck | kCmdAttribute,
     "write one violation artifact (JSON: run manifest + structured "
     "trace) per violated property into DIR", Set<&CliFlags::artifacts_dir>},
    {"--replay", "FILE", kCmdCheck,
     "deterministically re-execute a recorded violation artifact instead "
     "of searching; exit 0 iff it reproduces", Set<&CliFlags::replay_path>},
    {"--reverify-bitstate", nullptr, kCmdCheck | kCmdAttribute,
     "replay-verify every BITSTATE violation with an exhaustive store "
     "before reporting it (false-positive filter)"},
    {"--cache-dir", "DIR", kCmdCheck | kCmdAttribute | kCmdServe,
     "memoize per-group verification results in DIR; warm re-checks of "
     "unchanged groups skip the search (see docs/caching.md)",
     Set<&CliFlags::cache_dir>},
    {"--metrics-out", "FILE", kCmdCheck,
     "write counters and latency histograms as Prometheus text "
     "exposition (the same format GET /v1/metrics serves) to FILE",
     Set<&CliFlags::metrics_out>},
    {"--access-log", "FILE", kCmdServe,
     "append one JSON line per request (request id, status, latency, "
     "queue wait, cache delta) to FILE", Set<&CliFlags::access_log>},
    {"--registry-dir", "DIR", kCmdServe,
     "persist fleet deployments (/v1/deployments) in DIR; without it "
     "the registry is memory-only (docs/fleet.md)",
     Set<&CliFlags::registry_dir>},
    {"--if-match", "REVISION", kCmdFleet,
     "fleet check: only run against this deployment revision (the ETag "
     "from put/get); a stale pin fails with the server's 409",
     Set<&CliFlags::if_match>},
    {"--host", "ADDR", kCmdServe | kCmdTop | kCmdFleet,
     "bind address for the HTTP service (default 127.0.0.1); top/fleet: "
     "the address to call", Set<&CliFlags::host>},
    {"--port", "N", kCmdServe | kCmdTop | kCmdFleet,
     "TCP port for the HTTP service (0 = kernel-assigned; default 8080); "
     "top/fleet: the port to call",
     Set<&CliFlags::port>, 0, 65535},
    {"--http-workers", "N", kCmdServe,
     "HTTP session threads draining the accept queue (default 4)",
     Set<&CliFlags::http_workers>, 1, 256},
    {"--max-queue", "N", kCmdServe,
     "accepted-connection queue bound; beyond it the acceptor sheds "
     "with 503 queue_full (default 64)",
     Set<&CliFlags::max_queue>, 1, 65536},
    {"--deadline", "SECONDS", kCmdServe | kCmdCluster,
     "default wall-clock budget per request, seconds (0 = none); "
     "requests may override via options.deadlineSeconds"},
    {"--log-level", "LEVEL", kCmdServe,
     "structured-log threshold on stderr: debug, info, warn (default), "
     "error, or off (docs/observability.md)", Set<&CliFlags::log_level>},
    {"--log-json", nullptr, kCmdServe,
     "emit structured log lines as JSON objects instead of text",
     Set<&CliFlags::log_json>},
    {"--interval", "SECONDS", kCmdTop,
     "refresh period of the live status view (default 2)",
     Set<&CliFlags::interval_seconds>, 1, 3600},
    {"--once", nullptr, kCmdTop,
     "print one status snapshot and exit (plain output, no screen "
     "redraw)", Set<&CliFlags::once>},
    {"--workers", "LIST", kCmdServe | kCmdCluster,
     "comma-separated worker endpoints (host:port,...) the coordinator "
     "dispatches work units to (docs/cluster.md)", Set<&CliFlags::workers>},
    {"--coordinator", nullptr, kCmdServe,
     "serve as a cluster coordinator: plan /v1/check requests into work "
     "units and dispatch them across --workers", Set<&CliFlags::coordinator>},
    {"--unit-deadline", "SECONDS", kCmdServe | kCmdCluster,
     "per-work-unit dispatch deadline before the coordinator retries or "
     "re-dispatches (default 600)",
     Set<&CliFlags::unit_deadline_seconds>, 1, 86400},
    {"--no-local-fallback", nullptr, kCmdServe | kCmdCluster,
     "fail the check when no worker is reachable instead of degrading "
     "to local execution", Set<&CliFlags::no_local_fallback>},
    {"--help", nullptr,
     kCmdCheck | kCmdAttribute | kCmdDeps | kCmdPromela | kCmdServe |
         kCmdTop | kCmdFleet | kCmdCluster,
     "show this help", Set<&CliFlags::help>},
};

struct CommandSpec {
  unsigned id;
  const char* name;
  const char* positionals;
  const char* summary;
};

constexpr CommandSpec kCommands[] = {
    {kCmdCheck, "check", "<deployment.json>",
     "verify a deployment against the active safety properties"},
    {kCmdAttribute, "attribute", "<app.smartscript|corpus-name> "
                                 "<deployment.json>",
     "vet a new app before installation (§9 Output Analyzer)"},
    {kCmdDeps, "deps", "<deployment.json>",
     "print the dependency graph and related sets (§5)"},
    {kCmdPromela, "promela", "<deployment.json>",
     "emit the generated Promela model (§6/§8)"},
    {kCmdServe, "serve", "",
     "run the resident HTTP/JSON verification service (docs/server.md)"},
    {kCmdTop, "top", "",
     "live terminal view of a running service's in-flight checks "
     "(polls GET /v1/status)"},
    {kCmdFleet, "fleet", "<list|put|get|rm|check> [id] [deployment.json]",
     "manage a serving fleet registry over /v1/deployments "
     "(docs/fleet.md)"},
    {kCmdCluster, "cluster", "check <deployment.json> --workers LIST",
     "coordinate one verification across remote iotsan workers "
     "(docs/cluster.md)"},
    {0, "cache", "<stats|prune|clear> <DIR>",
     "inspect or maintain an incremental-analysis cache directory"},
    {0, "apps", "", "list the bundled corpus apps"},
    {0, "version", "", "print the tool version and build information"},
    {0, "help", "", "show this help"},
};

/// Flag letters for the global help ("CA" = check and attribute).
std::string CommandLetters(unsigned mask) {
  std::string out;
  if (mask & kCmdCheck) out += 'C';
  if (mask & kCmdAttribute) out += 'A';
  if (mask & kCmdDeps) out += 'D';
  if (mask & kCmdPromela) out += 'P';
  if (mask & kCmdServe) out += 'S';
  if (mask & kCmdTop) out += 'T';
  if (mask & kCmdFleet) out += 'F';
  if (mask & kCmdCluster) out += 'L';
  return out;
}

/// `--help` is listed apart from the other flags.
bool IsHelp(const FlagSpec& spec) { return spec.set == Set<&CliFlags::help>; }

std::string FlagUsage(const FlagSpec& spec) {
  std::string out = spec.name;
  if (spec.arg != nullptr) {
    out += ' ';
    out += spec.arg;
  }
  return out;
}

}  // namespace

std::span<const FlagSpec> FlagTable() { return kFlagTable; }

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagSpec& spec : kFlagTable) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string UsageFor(unsigned command) {
  std::string out = "usage: iotsan";
  for (const CommandSpec& cmd : kCommands) {
    if (cmd.id != command) continue;
    out += ' ';
    out += cmd.name;
    if (cmd.positionals[0] != '\0') {
      out += ' ';
      out += cmd.positionals;
    }
  }
  for (const FlagSpec& spec : kFlagTable) {
    if (IsHelp(spec) || !(spec.commands & command)) continue;
    out += " [" + FlagUsage(spec) + "]";
  }
  return out;
}

void PrintHelp(std::FILE* out) {
  std::fprintf(out, "iotsan — IoT safety sanitizer (IotSan, CoNEXT '18)\n\n");
  std::fprintf(out, "commands:\n");
  for (const CommandSpec& cmd : kCommands) {
    std::string invocation = cmd.name;
    if (cmd.positionals[0] != '\0') {
      invocation += ' ';
      invocation += cmd.positionals;
    }
    std::fprintf(out, "  %-52s %s\n", invocation.c_str(), cmd.summary);
  }
  std::fprintf(out, "\nflags (letters mark the accepting commands: "
                    "C=check, A=attribute, D=deps, P=promela, S=serve, "
                    "T=top, F=fleet, L=cluster):\n");
  for (const FlagSpec& spec : kFlagTable) {
    if (IsHelp(spec)) continue;
    std::fprintf(out, "  %-4s %-22s %s\n",
                 CommandLetters(spec.commands).c_str(),
                 FlagUsage(spec).c_str(), spec.help);
  }
  std::fprintf(out,
               "\ntelemetry: --stats prints counters, per-phase durations "
               "and store fill after the\nrun; --trace-out writes one JSON "
               "object per span (name, start_us, dur_us, depth,\nattrs).  "
               "See docs/observability.md for the schema and the counter "
               "taxonomy.\n");
}

long long ParseFlagInt(const std::string& flag, const std::string& value,
                       long long min_value, long long max_value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  // strtoll silently skips leading whitespace; a flag value must be all
  // digits (with an optional sign), nothing else.
  const bool leading_space =
      !value.empty() && std::isspace(static_cast<unsigned char>(value[0]));
  if (value.empty() || leading_space || end != value.c_str() + value.size() ||
      errno != 0) {
    throw Error("option " + flag + " wants an integer, got '" + value + "'");
  }
  if (parsed < min_value || parsed > max_value) {
    throw Error("option " + flag + " wants a value in [" +
                std::to_string(min_value) + ", " + std::to_string(max_value) +
                "], got " + value);
  }
  return parsed;
}

std::vector<std::string> ParseFlags(unsigned command,
                                    const std::vector<std::string>& args,
                                    CliFlags& flags) {
  std::vector<std::string> positionals;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
      continue;
    }
    const FlagSpec* spec = FindFlag(arg);
    if (spec == nullptr) {
      throw Error("unknown option: " + arg + " (see 'iotsan help')");
    }
    if (!(spec->commands & command)) {
      throw Error("option " + arg + " does not apply to this command\n" +
                  UsageFor(command));
    }
    // Request options take their range and setter from core's table.
    const core::RequestOptionSpec* option =
        spec->set == nullptr ? core::FindRequestOptionFlag(arg) : nullptr;
    const long long min = option != nullptr ? option->min : spec->min;
    const long long max = option != nullptr ? option->max : spec->max;
    std::string value;
    long long number = 1;  // a switch is on when named
    if (spec->arg != nullptr) {
      if (i + 1 >= args.size()) {
        throw Error("option " + arg + " needs a value (" + spec->arg + ")");
      }
      value = args[++i];
      // Numeric flags declare their valid range in the table; validate
      // here so every command (and the tests) share one strict parser.
      if (min < max) number = ParseFlagInt(spec->name, value, min, max);
    }
    if (option != nullptr) {
      option->set(flags, number);
    } else {
      spec->set(flags, value, number);
    }
  }
  return positionals;
}

}  // namespace iotsan::cli
