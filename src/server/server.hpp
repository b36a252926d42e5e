// The verification service: `iotsan serve` — a resident, concurrent
// HTTP/JSON daemon over the sanitizer.
//
// Why a daemon: the one-shot CLI pays process startup, corpus load, and
// thread-pool spin-up on every invocation.  A resident server amortizes
// all of that and — the actual throughput win — shares one long-lived
// ThreadPool and one ResultCache across every request, so warm repeats
// of unchanged (deployment, options) groups skip the state-space search
// entirely.
//
// Topology: one acceptor thread feeds a bounded queue of accepted
// connections, drained by `http_workers` session threads.  Each session
// parses HTTP/1.1 requests (keep-alive), routes them through
// server/handlers, and runs checks on the shared pool.  Load is shed
// early: a full queue answers 503 `queue_full` in the acceptor without
// buffering the request; oversized bodies answer 413 without reading
// them.  Per-request deadlines reuse the checker's CancelFn budget
// plumbing (CheckOptions::time_budget_seconds / interrupt).
//
// Shutdown: Stop() (or SIGINT/SIGTERM via util/interrupt in the CLI)
// stops accepting, serves every connection already accepted or queued,
// finishes requests whose bytes are in flight, then joins all threads.
// No third-party dependencies: POSIX sockets only.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "cluster/cluster.hpp"
#include "registry/fleet.hpp"
#include "server/events.hpp"
#include "server/handlers.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::server {

struct ServerConfig {
  /// Bind address.  Loopback by default: the service speaks plain HTTP
  /// and should only face an ingress proxy or local clients.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (see port()).
  int port = 8080;
  /// Checker worker lanes shared by all requests (0 = hardware threads).
  int jobs = 0;
  /// HTTP session threads draining the accept queue.
  int http_workers = 4;
  /// Result-cache disk directory ("" = in-memory cache only).
  std::string cache_dir;
  /// Bound on accepted-but-unserved connections; beyond it the acceptor
  /// sheds with 503 instead of buffering without limit.
  std::size_t max_queue = 64;
  /// Request body limit; larger Content-Lengths are answered 413
  /// without reading the body.
  std::size_t max_body_bytes = 4 * 1024 * 1024;
  /// Default wall-clock budget per check/attribute request, seconds
  /// (0 = none).  Requests may override via options.deadlineSeconds.
  /// Note: the budget is part of the cache fingerprint, so mixed
  /// deadlines partition the cache.
  double request_deadline_seconds = 0;
  /// JSONL access log: one object per request (request id, method,
  /// path, status, latency, queue wait, body bytes, error code, cache
  /// hit/miss delta).  "" disables.
  std::string access_log_path;
  /// Fleet registry persistence root for /v1/deployments ("" = the
  /// registry is memory-only; deployments do not survive a restart).
  std::string registry_dir;
  /// Cluster coordinator mode (`iotsan serve --coordinator --workers
  /// host:port,...`): when `coordinator` is set and `cluster.workers`
  /// is non-empty, whole-deployment /v1/check requests are planned into
  /// work units and dispatched across the worker fleet (docs/cluster.md).
  bool coordinator = false;
  cluster::ClusterOptions cluster;
};

/// Append-only JSONL request log shared by the session threads.
///
/// Writes are buffered: a request appends its line to an in-memory
/// buffer under the mutex and only crosses into the kernel once the
/// buffer passes a threshold — a health-check storm costs string
/// appends, not one write(2)+flush per request.  The buffer is drained
/// explicitly on shutdown (Server::Stop) and rotation (Reopen), so the
/// file is always complete when anyone is told to read it.
class AccessLog {
 public:
  /// Opens `path` for append; throws iotsan::Error when it cannot.
  explicit AccessLog(const std::string& path);

  struct Entry {
    std::string request_id;
    std::string method;
    std::string path;
    int status = 0;
    std::uint64_t latency_us = 0;
    std::uint64_t queue_us = 0;
    std::uint64_t bytes = 0;          // request body size
    std::string error_code;           // "" on success
    std::string deployment;           // fleet endpoints only ("" elsewhere)
    std::uint64_t cache_hits = 0;     // delta across this request
    std::uint64_t cache_misses = 0;   // delta across this request
  };

  /// Serializes `entry` as one buffered JSON line.
  void Write(const Entry& entry);

  /// Drains the buffer to disk and flushes the stream.
  void Flush();

  /// Rotation support (SIGHUP): flushes, closes, and reopens the same
  /// path — an external rotator renames the old file first, Reopen
  /// starts the new one.  On reopen failure the old stream is kept and
  /// a warning is logged; the server keeps serving.
  void Reopen();

 private:
  /// Buffered bytes before an implicit drain.
  static constexpr std::size_t kFlushThresholdBytes = 8192;

  void FlushLocked();

  std::string path_;
  std::mutex mutex_;
  std::ofstream out_;
  std::string buffer_;  // complete lines awaiting a drain
  std::chrono::system_clock::time_point epoch_{};
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + session threads.
  /// Throws iotsan::Error when the socket cannot be bound.
  void Start();

  /// The bound port (resolved when config.port was 0).
  int port() const { return port_; }

  /// Graceful drain: stop accepting, serve everything already accepted
  /// or queued, join all threads, flush the trace sink.  Idempotent.
  void Stop();

  /// Marks the drain flag without blocking (safe from the main loop
  /// when a signal flag went up; call Stop() afterwards to join).
  void RequestStop() { stopping_.store(true, std::memory_order_relaxed); }

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// The shared result cache (tests seed it / assert hit counts).
  cache::ResultCache& result_cache() { return *cache_; }
  /// The fleet registry behind /v1/deployments (valid after Start()).
  registry::Fleet& fleet() { return *fleet_; }
  /// The cluster coordinator (null unless config.coordinator).
  cluster::Coordinator* coordinator() { return coordinator_.get(); }
  const ServerConfig& config() const { return config_; }

  /// Flushes and reopens the access log (SIGHUP rotation); no-op when
  /// no access log is configured.
  void RotateAccessLog();

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t shed_queue_full = 0;
  };
  Stats stats() const;

 private:
  void AcceptorMain();
  void SessionMain();
  /// Serves one connection until close/error/drain; returns requests
  /// answered.  `queue_wait_us` is how long the connection sat in the
  /// accept queue (attributed to its first request).
  std::uint64_t ServeConnection(int fd, std::uint64_t queue_wait_us);
  bool PopConnection(int& fd, std::uint64_t& queue_wait_us);
  /// Holds `fd` open as an SSE stream (`GET /v1/events`): subscribes to
  /// the broker, relays events as chunked frames, ends on client
  /// disconnect or drain.  Returns the stream duration in microseconds.
  std::uint64_t ServeEventStream(int fd, const std::string& request_id);

  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<cache::ResultCache> cache_;
  std::unique_ptr<registry::Fleet> fleet_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  ServiceState service_;
  InflightTable inflight_;
  EventBroker events_;

  std::thread acceptor_;
  std::vector<std::thread> sessions_;

  std::unique_ptr<AccessLog> access_log_;

  // Bounded queue of accepted connection fds, each stamped with its
  // enqueue time so the queue-wait distribution is measurable.
  struct QueuedConnection {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued{};
  };
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<QueuedConnection> queue_;
  /// Set (under queue_mutex_) once the acceptor has exited: only then is
  /// the queue final, so sessions drain until this is set and the queue
  /// is empty.  `stopping_` alone is not enough, since the acceptor may
  /// still queue one last connection after it is raised.
  bool accepting_done_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> active_connections_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
};

}  // namespace iotsan::server
