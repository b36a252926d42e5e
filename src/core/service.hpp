// Shared check/attribute entry point for every front end.
//
// The CLI (tools/iotsan_cli.cpp) and the verification service
// (src/server) assemble requests from different surfaces — flag tables
// vs. HTTP JSON bodies — but both funnel into the request structs here,
// and both render reports through the same functions, so the two can
// never drift: the server's `text` field is byte-identical to what
// `iotsan check` / `iotsan attribute` print for the same inputs (modulo
// the CLI-only --stats / telemetry / artifact insertions, which are
// composed around these pieces, not inside them).
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "attrib/output_analyzer.hpp"
#include "core/request_options.hpp"
#include "core/sanitizer.hpp"
#include "props/property.hpp"
#include "util/json.hpp"

namespace iotsan::util {
class ThreadPool;
}  // namespace iotsan::util

namespace iotsan::core {

/// Execution environment shared across requests (none of it owned):
/// the result cache and thread pool a resident server keeps warm, plus
/// an optional interrupt flag (signal handler / shutdown) polled by the
/// search between cascade drains.
struct ServiceEnv {
  cache::ResultCache* cache = nullptr;
  util::ThreadPool* pool = nullptr;
  const std::atomic<bool>* interrupt = nullptr;
  std::uint64_t progress_every = 0;
  telemetry::ProgressCallback on_progress;
  /// Coarse per-group progress (one call per finished related-set
  /// group), independent of the per-state stream above — the server
  /// wires this into its in-flight table and SSE events; the CLI leaves
  /// it empty.
  telemetry::GroupProgressCallback on_group_progress;
  /// Correlation id of the request this run serves ("" outside a
  /// server request).  The server copies the shared env per request and
  /// fills this in; it flows into CheckOptions::request_id from there.
  std::string request_id;
};

// ---- check -------------------------------------------------------------------

struct CheckRequest {
  config::Deployment deployment;
  /// App sources by definition name (overrides/extends the corpus).
  std::map<std::string, std::string> extra_sources;
  std::vector<props::Property> extra_properties;
  RequestOptions options;
};

struct CheckResponse {
  SanitizerReport report;
  /// Exactly the text `iotsan check` prints by default (header +
  /// verdict, no --stats/telemetry/artifact lines).
  std::string text;
  int exit_code = 0;  // 0 = clean, 1 = violations found
};

/// Builds the SanitizerOptions the CLI would build from these request
/// options (exposed so callers can tweak before running).
SanitizerOptions MakeCheckOptions(const RequestOptions& options,
                                  const ServiceEnv& env);

/// What a check request runs with, built in one place for every front
/// end: a Sanitizer over the deployment and its inline app sources, and
/// MakeCheckOptions plus the request's user properties.
struct PreparedCheck {
  Sanitizer sanitizer;
  SanitizerOptions options;
};
PreparedCheck PrepareCheck(const CheckRequest& request, const ServiceEnv& env);

/// Wraps a finished report: rendered text (RenderCheckReport) and exit
/// code.
CheckResponse MakeCheckResponse(const config::Deployment& deployment,
                                SanitizerReport report);

/// Runs the full pipeline: the one code path behind `iotsan check` and
/// `POST /v1/check`.
CheckResponse RunCheck(const CheckRequest& request,
                       const ServiceEnv& env = {});

/// Runs one cluster work unit: checks exactly the related-set group
/// named by `request.options.group_apps` (optionally one branch shard /
/// bitstate lane of it) and returns the raw CheckResult.  The
/// coordinator — which planned the group from the same deployment —
/// merges unit results through MergeGroupResult/FinalizeReport, so a
/// sharded run reproduces a single-node report byte for byte.  Throws
/// iotsan::Error on out-of-range app indices.
checker::CheckResult RunCheckUnit(const CheckRequest& request,
                                  const ServiceEnv& env = {});

/// "system: ..." through the "explored ... in ...s" line (plus any
/// REJECTED lines) — everything `iotsan check` prints before the
/// optional --stats block.
std::string RenderCheckHeader(const config::Deployment& deployment,
                              const SanitizerReport& report);

/// The "-- search stats --" block printed under --stats (leading "\n"
/// included).
std::string RenderSearchStats(const SanitizerReport& report, bool bitstate);

/// One FormatViolation block per violation, each newline-terminated
/// (empty string when clean).
std::string RenderViolations(const SanitizerReport& report);

/// "RESULT: ..." line.
std::string RenderResultLine(const SanitizerReport& report);

/// Header + "\n" + violations + result line: the default CLI output.
std::string RenderCheckReport(const config::Deployment& deployment,
                              const SanitizerReport& report);

/// Structured form of the report for the JSON API: verdict, search and
/// store statistics, and the full violation objects
/// (checker::ViolationToJson).
json::Value CheckReportToJson(const config::Deployment& deployment,
                              const SanitizerReport& report);

// ---- attribute ---------------------------------------------------------------

struct AttributeRequest {
  /// SmartScript source of the app being vetted.
  std::string app_source;
  config::Deployment deployment;
  RequestOptions options;
};

struct AttributeResponse {
  attrib::AttributionResult result;
  /// App name parsed from the source.
  std::string app_name;
  /// Exactly the text `iotsan attribute` prints by default.
  std::string text;
  int exit_code = 0;  // 0 = clean, 1 = any other verdict
};

attrib::AttributionOptions MakeAttributionOptions(
    const RequestOptions& options, const ServiceEnv& env);

/// The one code path behind `iotsan attribute` and `POST /v1/attribute`.
AttributeResponse RunAttribute(const AttributeRequest& request,
                               const ServiceEnv& env = {});

/// FormatAttribution plus the safe-configurations line, each
/// newline-terminated.
std::string RenderAttributionReport(const std::string& app_name,
                                    const attrib::AttributionResult& result);

/// Structured form for the JSON API: verdict, ratios, violated
/// properties, evidence, safe configuration count.
json::Value AttributionToJson(const std::string& app_name,
                              const attrib::AttributionResult& result);

// ---- shared helpers ----------------------------------------------------------

/// "16.0 MiB" / "1.5 KiB" / "12 B" — shared by report rendering and the
/// cache maintenance command.
std::string HumanBytes(std::uint64_t bytes);

}  // namespace iotsan::core
