// Distributed verification: a cluster coordinator over N iotsan
// workers.
//
// The coordinator runs a check through the same core::GroupRunner a
// single node uses and fills its slots remotely: each planned
// related-set group is one work unit, dispatched to a worker's
// `POST /v1/check` with the `groupApps` option.  A worker searches one
// large group with its own `--jobs`, so a group is never split further.
//
// Determinism: units are exactly the computations a single node
// performs, merged in plan order by the runner, so a cluster run's
// verdicts, violation ordering, counter-example traces and summed
// counters are byte-identical to a single-node run on exhaustive
// stores — regardless of worker count, dispatch order, or mid-run
// worker death.
//
// Robustness: workers are probed against /v1/health, every dispatch is
// bounded by a deadline and retried with jittered exponential backoff,
// units on a dead worker are re-dispatched to survivors, units no
// survivor takes run locally on the same plan, and when no worker is
// reachable the runner computes every group locally, with a warning.  All of it is visible through the `cluster.*` counters, a
// dispatch-latency histogram, and per-worker rows in /v1/status.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "util/json.hpp"

namespace iotsan::cluster {

struct WorkerSpec {
  std::string host;
  int port = 0;
  std::string endpoint() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port,host:port,..." (the --workers flag).  Hostnames
/// are allowed; ports must be 1..65535.  Throws iotsan::Error.
std::vector<WorkerSpec> ParseWorkerList(const std::string& list);

struct ClusterOptions {
  std::vector<WorkerSpec> workers;
  /// Per-unit dispatch deadline in seconds: the HTTP inactivity budget
  /// one unit gets on one worker before the coordinator abandons the
  /// attempt (and retries / re-dispatches).
  double unit_deadline_seconds = 600;
  int connect_timeout_ms = 2000;
  /// Transport attempts per unit on one worker before it is declared
  /// dead and the unit re-queued.
  int max_attempts = 3;
  int backoff_base_ms = 50;
  int backoff_max_ms = 2000;
  /// Jitter PRNG seed (decorrelate retries; tests pin it).
  std::uint64_t jitter_seed = 1;
  /// Run remaining units locally when every worker is unreachable
  /// (false = fail the check instead).
  bool allow_local_fallback = true;
};

/// Per-worker health and accounting, surfaced as /v1/status rows.
struct WorkerStatus {
  std::string endpoint;
  bool healthy = false;
  std::uint64_t units_done = 0;
  std::uint64_t units_failed = 0;
  std::uint64_t retries = 0;
  double last_latency_ms = 0;
  std::string last_error;
};

struct ClusterOutcome {
  core::CheckResponse response;
  std::size_t units_total = 0;
  std::size_t units_remote = 0;
  std::size_t units_local = 0;
  std::size_t units_redispatched = 0;
  /// True when no worker was reachable and the whole check ran locally.
  bool degraded_local = false;
};

// ---- wire format (exposed for tests) -----------------------------------------

/// The iotsan.request/1 envelope dispatching the related-set group
/// `group_apps` (app indices into deployment.apps) of `request` to a
/// worker's POST /v1/check.
json::Value UnitRequestJson(const core::CheckRequest& request,
                            const std::vector<std::size_t>& group_apps);

// ---- coordinator -------------------------------------------------------------

class Coordinator {
 public:
  explicit Coordinator(ClusterOptions options);

  /// Probes every worker's GET /v1/health; refreshes the status rows
  /// and returns how many answered healthy.
  std::size_t ProbeWorkers();

  /// Plans, dispatches, and merges one verification; `seconds` is wall
  /// time.  Deterministic fields of the response match core::RunCheck
  /// exactly (see header comment).  Throws iotsan::Error when no worker is reachable and
  /// local fallback is disabled.
  ClusterOutcome Check(const core::CheckRequest& request,
                       const core::ServiceEnv& env = {});

  std::vector<WorkerStatus> WorkerRows() const;
  const ClusterOptions& options() const { return options_; }

 private:
  struct WorkerState {
    WorkerSpec spec;
    WorkerStatus status;
  };

  ClusterOptions options_;
  mutable std::mutex mutex_;  // guards workers_ status fields
  std::vector<WorkerState> workers_;
};

}  // namespace iotsan::cluster
