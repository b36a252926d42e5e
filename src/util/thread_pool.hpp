// A small work-stealing thread pool for the parallel search layers.
//
// Design goals, in order:
//   * Nestable fork/join — Sanitizer::Check fans related sets across the
//     pool, each group's checker fans its root (event × failure)
//     branches across the *same* pool, and attribution fans
//     configurations one level above both.  ParallelFor may therefore be
//     called from inside a pool task; the caller always helps execute
//     tasks while it waits, so composing the three layers over one pool
//     never oversubscribes or deadlocks.
//   * Determinism support, not determinism itself — the pool makes no
//     ordering promises.  Callers that need deterministic output (the
//     checker does) index their results by task id and merge in task
//     order after the join.
//   * Zero dependencies — util sits below telemetry, so everything the
//     pool reports crosses the layer boundary the other way: telemetry
//     installs plain function pointers via SetPoolHooks, and every pool
//     reports its creation, its task timings, and its lifetime Stats at
//     destruction through them, never including a telemetry header.
//     Callers therefore only decide whether to borrow a pool or own one;
//     none of them counts it.
//
// Topology: one deque ("lane") per worker plus lane 0 for the owning
// thread.  An owner pushes and pops its own lane LIFO (good locality for
// nested joins); idle workers steal FIFO from the other end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iotsan::util {

/// Resolves a user-facing `--jobs` value: 0 = one lane per hardware
/// thread, negative or 1 = serial, otherwise the value itself.
unsigned ResolveJobs(int jobs);

/// Process-wide pool observers (telemetry installs them; see the layering
/// note above).  Every pool reports through all four; each must be safe
/// to call from any pool thread.
struct PoolHooks {
  /// Once per executed task body, with its run time in microseconds.
  void (*on_task_run)(std::uint64_t micros);
  /// Once per idle gap a worker spends between failing to get a task and
  /// obtaining the next one, in microseconds.
  void (*on_steal_wait)(std::uint64_t micros);
  /// Once per pool, when its `jobs` lanes are up (jobs - 1 threads).
  void (*on_created)(unsigned jobs);
  /// Once per pool, after its workers have joined, with the lifetime
  /// totals of ThreadPool::stats().
  void (*on_destroyed)(std::uint64_t tasks_run, std::uint64_t tasks_stolen);
};

/// Installs `hooks` (which must outlive every pool that reports through
/// them), or uninstalls with nullptr.  Read with acquire loads;
/// install/uninstall only between runs (the same contract as
/// telemetry::SetActive, which is the expected caller).
void SetPoolHooks(const PoolHooks* hooks);

class ThreadPool {
 public:
  /// Creates `jobs` lanes: lane 0 belongs to the constructing/calling
  /// thread, lanes 1..jobs-1 get a dedicated worker thread each.
  /// `jobs` is clamped to >= 1 (a 1-lane pool runs everything inline).
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes (worker threads + the caller's lane).
  unsigned jobs() const { return jobs_; }

  /// Lane index of the calling thread: its own lane for pool workers,
  /// 0 for every external thread (including the owner).
  unsigned CurrentLane() const;

  struct Stats {
    std::uint64_t tasks_run = 0;     // bodies executed
    std::uint64_t tasks_stolen = 0;  // executed on a lane != push lane
  };
  Stats stats() const;

  /// Runs `body(0..count-1)`, each index exactly once, potentially in
  /// parallel, and returns when all have completed.  The calling thread
  /// participates (and may execute tasks of unrelated concurrent
  /// batches while it waits — that is what makes nesting safe).  The
  /// first exception thrown by any body is rethrown here after the
  /// join; remaining bodies still run.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerMain(unsigned lane);
  void Push(unsigned lane, std::function<void()> task);
  /// Pops from the calling lane (LIFO) or steals from another (FIFO).
  std::function<void()> TryGet(unsigned lane);

  unsigned jobs_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

}  // namespace iotsan::util
