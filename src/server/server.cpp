#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace iotsan::server {

namespace {

constexpr int kAcceptPollMs = 200;
/// SSE stream cadence: how often the event queue and the peer's
/// liveness are checked, and how often an idle stream emits a comment
/// frame so intermediaries do not time it out.
constexpr int kEventPollMs = 100;
constexpr int kEventKeepaliveMs = 15'000;

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

std::uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

AccessLog::AccessLog(const std::string& path)
    : path_(path), epoch_(std::chrono::system_clock::now()) {
  if (!util::OpenAppend(out_, path)) {
    throw Error("serve: cannot open access log: " + path);
  }
}

void AccessLog::Write(const Entry& entry) {
  json::Object line;
  line["ts"] = std::chrono::duration<double>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
  line["id"] = entry.request_id;
  line["method"] = entry.method;
  line["path"] = entry.path;
  line["status"] = entry.status;
  line["latency_us"] = static_cast<std::int64_t>(entry.latency_us);
  line["queue_us"] = static_cast<std::int64_t>(entry.queue_us);
  line["bytes"] = static_cast<std::int64_t>(entry.bytes);
  if (!entry.error_code.empty()) {
    json::Object error;
    error["code"] = entry.error_code;
    line["error"] = std::move(error);
  }
  if (!entry.deployment.empty()) line["deployment"] = entry.deployment;
  line["cache_hits"] = static_cast<std::int64_t>(entry.cache_hits);
  line["cache_misses"] = static_cast<std::int64_t>(entry.cache_misses);
  const std::string text = json::Value(std::move(line)).Dump(0);
  std::lock_guard<std::mutex> lock(mutex_);
  buffer_ += text;
  buffer_ += '\n';
  if (buffer_.size() >= kFlushThresholdBytes) FlushLocked();
}

void AccessLog::FlushLocked() {
  if (!buffer_.empty()) {
    out_ << buffer_;
    buffer_.clear();
  }
  out_.flush();
}

void AccessLog::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushLocked();
}

void AccessLog::Reopen() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushLocked();
  std::ofstream reopened;
  if (!util::OpenAppend(reopened, path_)) {
    util::LogWarn("server", "access log reopen failed; keeping old stream",
                  {{"path", path_}});
    return;
  }
  out_ = std::move(reopened);
  util::LogInfo("server", "access log reopened", {{"path", path_}});
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { Stop(); }

void Server::Start() {
  if (running_.load()) return;
  stopping_.store(false);
  accepting_done_ = false;

  // Warm state shared by every request: the checker pool and the result
  // cache.
  pool_ = std::make_unique<util::ThreadPool>(
      util::ResolveJobs(config_.jobs));
  if (!config_.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(config_.access_log_path);
  }
  cache::CacheConfig cache_config;
  cache_config.dir = config_.cache_dir;
  cache_ = std::make_unique<cache::ResultCache>(cache_config);
  registry::StoreConfig store_config;
  store_config.dir = config_.registry_dir;
  fleet_ = std::make_unique<registry::Fleet>(store_config);
  if (auto* t = telemetry::Active()) {
    ++t->parallel.pools_created;
    t->parallel.workers_spawned += pool_->jobs() - 1;
  }

  service_.env.pool = pool_.get();
  service_.env.cache = cache_.get();
  service_.request_deadline_seconds = config_.request_deadline_seconds;
  service_.draining = &stopping_;
  service_.active_connections = &active_connections_;
  service_.queue_depth = &queue_depth_;
  service_.start_time = std::chrono::steady_clock::now();
  service_.inflight = &inflight_;
  service_.events = &events_;
  service_.registry = fleet_.get();
  if (config_.coordinator && !config_.cluster.workers.empty()) {
    coordinator_ = std::make_unique<cluster::Coordinator>(config_.cluster);
    coordinator_->ProbeWorkers();
  }
  service_.coordinator = coordinator_.get();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("serve: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: invalid bind address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: cannot bind " + config_.host + ":" +
                std::to_string(config_.port) + ": " + reason);
  }
  if (::listen(listen_fd_, 128) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  running_.store(true);
  const int workers = config_.http_workers < 1 ? 1 : config_.http_workers;
  sessions_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    sessions_.emplace_back([this] { SessionMain(); });
  }
  acceptor_ = std::thread([this] { AcceptorMain(); });
}

void Server::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  // The acceptor is done: whatever sits in the queue is the complete
  // set of accepted-but-unserved connections.  Wake the sessions so
  // they drain it and exit.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    accepting_done_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& session : sessions_) {
    if (session.joinable()) session.join();
  }
  sessions_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  if (auto* t = telemetry::Active()) {
    const util::ThreadPool::Stats stats = pool_->stats();
    t->parallel.tasks_run += stats.tasks_run;
    t->parallel.tasks_stolen += stats.tasks_stolen;
  }
  pool_.reset();
  running_.store(false);
  if (access_log_ != nullptr) access_log_->Flush();
  if (auto* sink = telemetry::ActiveTrace()) sink->Flush();
}

void Server::RotateAccessLog() {
  if (access_log_ != nullptr) access_log_->Reopen();
}

Server::Stats Server::stats() const {
  return {connections_accepted_.load(), requests_served_.load(),
          shed_queue_full_.load()};
}

void Server::AcceptorMain() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (auto* t = telemetry::Active()) ++t->server.connections_accepted;

    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= config_.max_queue) {
        shed = true;
      } else {
        queue_.push_back({fd, std::chrono::steady_clock::now()});
        queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      }
    }
    if (shed) {
      // Load shedding in the acceptor: answer without buffering the
      // request so a burst cannot OOM the server.
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      if (auto* t = telemetry::Active()) ++t->server.shed_queue_full;
      HttpResponse response = ErrorResponse(
          503, kErrQueueFull,
          "request queue is full; retry with backoff");
      response.close = true;
      WriteHttpResponse(fd, response);
      CloseFd(fd);
      continue;
    }
    queue_cv_.notify_one();
  }
}

bool Server::PopConnection(int& fd, std::uint64_t& queue_wait_us) {
  QueuedConnection conn;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock, [this] { return !queue_.empty() || accepting_done_; });
    // Drain semantics: even while stopping, accepted connections are
    // served; a session only exits once the acceptor is done and the
    // queue is empty.
    if (queue_.empty()) return false;
    conn = queue_.front();
    queue_.pop_front();
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
  }
  fd = conn.fd;
  queue_wait_us = ElapsedUs(conn.enqueued);
  if (auto* t = telemetry::Active()) {
    t->server_hist.queue_wait_us.Record(queue_wait_us);
  }
  return true;
}

void Server::SessionMain() {
  while (true) {
    int fd = -1;
    std::uint64_t queue_wait_us = 0;
    if (!PopConnection(fd, queue_wait_us)) return;
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    requests_served_.fetch_add(ServeConnection(fd, queue_wait_us),
                               std::memory_order_relaxed);
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::uint64_t Server::ServeConnection(int fd, std::uint64_t queue_wait_us) {
  ReadLimits limits;
  limits.max_body_bytes = config_.max_body_bytes;
  ConnectionBuffer buffer;
  std::uint64_t served = 0;
  while (true) {
    HttpRequest request;
    const ReadStatus status =
        ReadHttpRequest(fd, limits, &stopping_, buffer, request);
    HttpResponse response;
    RequestContext context;
    // The queue wait belongs to the connection's first request; later
    // keep-alive requests never sat in the accept queue.
    const std::uint64_t request_queue_us = served == 0 ? queue_wait_us : 0;
    const auto handle_start = std::chrono::steady_clock::now();
    auto* t_before = telemetry::Active();
    const std::uint64_t hits_before =
        t_before != nullptr
            ? t_before->cache.hits.load(std::memory_order_relaxed)
            : 0;
    const std::uint64_t misses_before =
        t_before != nullptr
            ? t_before->cache.misses.load(std::memory_order_relaxed)
            : 0;
    switch (status) {
      case ReadStatus::kOk: {
        if (auto* t = telemetry::Active()) {
          t->server_hist.request_body_bytes.Record(request.body.size());
        }
        const std::string path =
            request.target.substr(0, request.target.find('?'));
        if (request.method == "GET" && path == "/v1/events") {
          // The SSE endpoint holds its response open for the rest of
          // the connection (chunked frames), so it is served here,
          // outside Route's one-request/one-response shape.
          if (auto* t = telemetry::Active()) ++t->server.requests;
          const auto id_header = request.headers.find("x-request-id");
          const std::string stream_id =
              id_header != request.headers.end() &&
                      IsValidRequestId(id_header->second)
                  ? id_header->second
                  : GenerateRequestId();
          const std::uint64_t stream_us = ServeEventStream(fd, stream_id);
          if (auto* t = telemetry::Active()) ++t->server.responses_ok;
          if (access_log_ != nullptr) {
            AccessLog::Entry entry;
            entry.request_id = stream_id;
            entry.method = request.method;
            entry.path = path;
            entry.status = 200;
            entry.latency_us = stream_us;
            entry.queue_us = request_queue_us;
            access_log_->Write(entry);
          }
          CloseFd(fd);
          return served + 1;
        }
        response = Route(request, service_, &context);
        ++served;
        break;
      }
      case ReadStatus::kClosed:
      case ReadStatus::kInterrupted:
        CloseFd(fd);
        return served;
      case ReadStatus::kTooLarge:
        if (auto* t = telemetry::Active()) ++t->server.shed_oversized;
        context.request_id = GenerateRequestId();
        context.error_code = kErrTooLarge;
        response = ErrorResponse(
            413, kErrTooLarge,
            "request exceeds the server limits (max body " +
                std::to_string(config_.max_body_bytes) + " bytes)",
            context.request_id);
        response.close = true;
        break;
      case ReadStatus::kTimeout:
        context.request_id = GenerateRequestId();
        context.error_code = kErrTimeout;
        response = ErrorResponse(408, kErrTimeout,
                                 "idle connection timed out",
                                 context.request_id);
        response.close = true;
        break;
      case ReadStatus::kMalformed:
        if (auto* t = telemetry::Active()) ++t->server.bad_requests;
        context.request_id = GenerateRequestId();
        context.error_code = kErrBadRequest;
        response = ErrorResponse(400, kErrBadRequest,
                                 "malformed HTTP request",
                                 context.request_id);
        response.close = true;
        break;
    }
    const std::uint64_t latency_us = ElapsedUs(handle_start);
    if (status == ReadStatus::kOk) {
      if (auto* t = telemetry::Active()) {
        t->server_hist.request_duration_us.Record(latency_us);
      }
    }
    if (access_log_ != nullptr) {
      AccessLog::Entry entry;
      entry.request_id = context.request_id;
      entry.method = request.method;
      entry.path =
          request.target.substr(0, request.target.find('?'));
      entry.status = response.status;
      entry.latency_us = latency_us;
      entry.queue_us = request_queue_us;
      entry.bytes = request.body.size();
      entry.error_code = context.error_code;
      entry.deployment = context.deployment_id;
      if (auto* t = telemetry::Active()) {
        entry.cache_hits =
            t->cache.hits.load(std::memory_order_relaxed) - hits_before;
        entry.cache_misses =
            t->cache.misses.load(std::memory_order_relaxed) - misses_before;
      }
      access_log_->Write(entry);
    }
    if (status == ReadStatus::kOk &&
        stopping_.load(std::memory_order_relaxed)) {
      // Drain: answer the request we already accepted, then close.
      response.close = true;
    }
    const bool ok = WriteHttpResponse(fd, response);
    if (!ok || response.close || !request.KeepAlive()) {
      CloseFd(fd);
      return served;
    }
  }
}

std::uint64_t Server::ServeEventStream(int fd,
                                       const std::string& request_id) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<EventBroker::Subscription> subscription =
      events_.Subscribe();
  util::LogDebug("server", "sse stream opened",
                 {{"request_id", request_id}});
  HttpResponse head;
  head.status = 200;
  head.content_type = "text/event-stream";
  head.headers.emplace_back("Cache-Control", "no-cache");
  head.headers.emplace_back("X-Request-Id", request_id);
  bool ok = WriteStreamHead(fd, head);
  if (ok) {
    // Opening event: the subscriber knows the stream is live before the
    // first progress tick (which may be seconds away).
    ok = WriteChunk(fd, "event: hello\ndata: {\"request_id\":\"" +
                            request_id + "\"}\n\n");
  }
  int idle_ms = 0;
  while (ok && !stopping_.load(std::memory_order_relaxed)) {
    Event event;
    if (subscription->Next(event, kEventPollMs)) {
      idle_ms = 0;
      ok = WriteChunk(fd, "event: " + event.name + "\ndata: " +
                              event.data + "\n\n");
      continue;
    }
    if (PeerClosed(fd)) break;
    idle_ms += kEventPollMs;
    if (idle_ms >= kEventKeepaliveMs) {
      // SSE comment frame: ignored by clients, keeps proxies from
      // timing out an idle stream.
      ok = WriteChunk(fd, ": keepalive\n\n");
      idle_ms = 0;
    }
  }
  if (ok) WriteLastChunk(fd);
  events_.Unsubscribe(subscription);
  util::LogDebug("server", "sse stream closed",
                 {{"request_id", request_id},
                  {"dropped_events", subscription->dropped()}});
  return ElapsedUs(start);
}

}  // namespace iotsan::server
