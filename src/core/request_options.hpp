// The result-affecting request options and the one table that declares
// them.
//
// Each option is one row: its JSON key, its CLI flag, its integer range
// (or a boolean switch), one setter into RequestOptions, and how the
// cluster coordinator forwards it to workers.  The CLI flag parser
// (src/cli), the service's "options" validation (src/server) and the
// cluster unit request (src/cluster) all loop over this table, so an
// option is added in one place and the front ends cannot drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace iotsan::core {

/// The result-affecting options a check/attribute request may carry,
/// mirroring the CLI flags of the same names.  Defaults match the CLI.
struct RequestOptions {
  int events = -1;  // -1 = the command's default (check: 3, attribute: 2)
  int jobs = 1;     // worker threads (0 = hardware concurrency)
  bool failures = false;
  bool mono = false;
  bool bitstate = false;
  int bitstate_bits_pow = 0;  // 0 = default (27)
  bool por = false;               // ample-set partial-order reduction
  bool state_compression = false; // COLLAPSE store-key compression
  bool first = false;
  bool reverify_bitstate = false;
  bool allow_discovery = false;
  /// Wall-clock budget per request in seconds (0 = none).  Rides the
  /// checker's existing CancelFn budget plumbing; a hit run reports
  /// `completed = false` ("budget hit") and is never cached.
  double deadline_seconds = 0;
  /// Cluster work-unit subset (src/cluster).  Non-empty `group_apps`
  /// switches the request from "check the whole deployment" to "check
  /// exactly this related-set group": indices into deployment.apps, as
  /// planned by the coordinator's PlanGroups.  Served by RunCheckUnit.
  std::vector<std::size_t> group_apps;

  bool operator==(const RequestOptions&) const = default;
};

/// How the cluster coordinator sends an option to its workers.  The two
/// options a worker must not take from the coordinator as-is are also
/// the two a resident server fills from its own defaults when a request
/// leaves them out.
enum class Forward {
  kWhenSet,  // sent when set (true / above zero)
  kNever,    // the coordinator's group plan already applied it (mono)
  kPoolSize, // never sent: each server sizes it from its own pool (jobs)
  kAlways,   // always sent, so a worker's own default never cuts a unit
             // short; a server fills it from its config when absent
};

/// One row of the request-option table.
struct RequestOptionSpec {
  const char* json_key;  // the service's and the cluster wire's key
  const char* flag;      // the CLI's `--flag`
  // Integer options are valid in [min, max]; min == max marks a boolean
  // switch (set with 1, cleared with 0).
  long long min = 0;
  long long max = 0;
  Forward forward = Forward::kWhenSet;
  void (*set)(RequestOptions& options, long long value) = nullptr;
  long long (*get)(const RequestOptions& options) = nullptr;

  bool integer() const { return min < max; }
};

/// The table, in help order.
std::span<const RequestOptionSpec> RequestOptionTable();

/// Row lookups by JSON key and by `--flag`; nullptr when not an option.
const RequestOptionSpec* FindRequestOption(std::string_view json_key);
const RequestOptionSpec* FindRequestOptionFlag(std::string_view flag);

}  // namespace iotsan::core
