// fleet_edit's pieces shared by its untraced and traced runs: the
// seeded edit stream, the in-process server, and the open-loop sender.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "server/server.hpp"

namespace perfbench {

/// The 150-app home: the violating presence/lock pair + 148 instances.
inline constexpr int kColdApps = 148;
/// Every verdict on this home: the §8 / Fig. 7 pair.  The edited apps
/// bind only role-less devices, so no edit can change it.
inline const std::vector<std::string> kFleetReference = {"P06", "P10"};

/// Seeded threshold edits of single "It's Too Cold" instances.  The
/// edits of one stream are distinct (instance, threshold) pairs until it
/// wraps around, so no edit is a result-cache hit.  Thread-safe.
class EditStream {
 public:
  explicit EditStream(std::uint64_t seed);

  /// The PUT body (iotsan.request/1 envelope) of the home as it stands.
  std::string CurrentBody();
  /// Applies the next edit and returns the new PUT body.
  std::string NextBody();

 private:
  struct Edit {
    int app = 0;
    int threshold = 0;
  };
  std::mutex mutex_;
  std::vector<Edit> edits_;
  std::size_t next_ = 0;
  std::vector<int> thresholds_;
};

/// An in-process `iotsan serve` as fleet_edit runs it: registry in a
/// private directory under the work dir, 2 HTTP workers, 1 checker lane.
/// Removes its directory when destroyed.
class BenchServer {
 public:
  BenchServer(const Args& args, bool with_access_log);
  ~BenchServer();
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  /// PUTs `body` as the home, then POSTs its check.  Returns "" when
  /// both answered 2xx with the reference verdict, else what went
  /// wrong; `text` receives the check's report.
  std::string EditAndCheck(const std::string& body, std::string* text);

  /// Stops the server (flushing its access log); idempotent.
  void Stop() { server_->Stop(); }
  int port() const { return server_->port(); }
  std::string access_log() const { return dir_ + "/access.jsonl"; }

 private:
  std::string dir_;
  std::unique_ptr<iotsan::server::Server> server_;
};

/// The initial PUT of the home and its cold full check (150 groups);
/// throws iotsan::Error unless both succeed with the reference verdict.
void ColdStart(BenchServer& server, EditStream& edits);

/// What an open-loop phase measured, per arrival.
struct OpenLoop {
  std::vector<double> latency_ms;  // from each arrival's due time
  std::vector<double> late_ms;     // how late the sender started it
  std::vector<std::string> errors; // "" = served with the reference verdict
};

/// Seeded Poisson arrivals at `rate` per second for `seconds`, served
/// by two sender threads (so at most two connections).
OpenLoop RunOpenLoop(BenchServer& server, EditStream& edits, double rate,
                     double seconds, std::uint64_t seed);

}  // namespace perfbench
