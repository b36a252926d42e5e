// Concurrency tests for the shared visited-state stores and the work-
// stealing pool behind --jobs (docs/performance.md).
//
// The stores are hammered from many threads with overlapping state sets
// and then compared against a serial replay of the same inserts: the
// exhaustive store must agree exactly (no lost or duplicated states),
// the bitstate store's bit field must end in the identical configuration
// (fetch_or is commutative), with its new-state count bounded by the
// serial answer below and the raw insert count above.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checker/state_store.hpp"
#include "util/thread_pool.hpp"

#include "gtest/gtest.h"

namespace iotsan::checker {
namespace {

constexpr int kThreads = 8;

std::span<const std::uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Thread t inserts states [t * 600, t * 600 + 1000): neighbouring
/// threads overlap on 400 states, so every worker races others on part
/// of its range.
std::vector<std::string> StatesFor(int thread) {
  std::vector<std::string> states;
  for (int i = thread * 600; i < thread * 600 + 1000; ++i) {
    states.push_back("state-vector-" + std::to_string(i));
  }
  return states;
}

TEST(StateStoreConcurrencyTest, ExhaustiveStoreLosesNoInserts) {
  ExhaustiveStore store(16);
  std::atomic<std::uint64_t> new_states{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &new_states, t] {
      for (const std::string& state : StatesFor(t)) {
        if (!store.TestAndInsert(Bytes(state))) {
          new_states.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Serial replay: the distinct union of all per-thread ranges.
  std::set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& state : StatesFor(t)) distinct.insert(state);
  }
  // Exactly one thread won each race; every state is represented once.
  EXPECT_EQ(store.size(), distinct.size());
  EXPECT_EQ(new_states.load(), distinct.size());
  // Accounted memory matches a serial build of the same store.
  ExhaustiveStore serial;
  for (const std::string& state : distinct) serial.TestAndInsert(Bytes(state));
  EXPECT_EQ(store.memory_bytes(), serial.memory_bytes());
  // Every inserted state re-probes as seen.
  for (const std::string& state : distinct) {
    EXPECT_TRUE(store.TestAndInsert(Bytes(state)));
  }
}

TEST(StateStoreConcurrencyTest, HashOncePathLosesNoInsertsUnderCollisions) {
  // Callers that hash once hand the hash in.  Here every state carries
  // one of only four hashes, so all eight workers race on four buckets
  // of a few shards: byte comparison alone must keep membership exact.
  ExhaustiveStore store(16);
  std::atomic<std::uint64_t> new_states{0};
  auto forced_hash = [](const std::string& state) {
    return (ExhaustiveStore::Hash(Bytes(state)) & 3) << 32;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& state : StatesFor(t)) {
        if (!store.TestAndInsertHashed(Bytes(state), forced_hash(state))) {
          new_states.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& state : StatesFor(t)) distinct.insert(state);
  }
  EXPECT_EQ(store.size(), distinct.size());
  EXPECT_EQ(new_states.load(), distinct.size());
  for (const std::string& state : distinct) {
    EXPECT_TRUE(store.TestAndInsertHashed(Bytes(state), forced_hash(state)));
  }
}

TEST(StateStoreConcurrencyTest, BitstateStoreMatchesSerialReplay) {
  BitstateStore store(std::size_t{1} << 20);
  std::atomic<std::uint64_t> insert_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &insert_calls, t] {
      for (const std::string& state : StatesFor(t)) {
        store.TestAndInsert(Bytes(state));
        insert_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& state : StatesFor(t)) distinct.insert(state);
  }
  BitstateStore serial(std::size_t{1} << 20);
  for (const std::string& state : distinct) serial.TestAndInsert(Bytes(state));

  // fetch_or is commutative, so the final bit field is exactly the
  // serial one regardless of interleaving.
  EXPECT_DOUBLE_EQ(store.Occupancy(), serial.Occupancy());
  // Two threads racing the same fresh state may both see it as new, so
  // the parallel count can exceed the serial one — but never the raw
  // number of insert calls, and never drop below the serial answer.
  EXPECT_GE(store.size(), serial.size());
  EXPECT_LE(store.size(), insert_calls.load());
  // Every state hammered in re-probes as seen.
  for (const std::string& state : distinct) {
    EXPECT_TRUE(store.TestAndInsert(Bytes(state)));
  }
}

TEST(StateStoreConcurrencyTest, InternPoolAssignsConsistentIndices) {
  // The COLLAPSE codec's pools are hammered exactly like the exhaustive
  // store: overlapping component sets from racing workers.  Each
  // distinct byte vector must end up with exactly one stable index.
  InternPool pool(16);
  std::vector<std::thread> threads;
  // Per-thread observations: (component, index) pairs seen while racing.
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> seen(
      kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &seen, t] {
      for (const std::string& component : StatesFor(t)) {
        seen[static_cast<std::size_t>(t)].emplace_back(
            component, pool.Intern(Bytes(component)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& component : StatesFor(t)) {
      distinct.insert(component);
    }
  }
  EXPECT_EQ(pool.size(), distinct.size());
  EXPECT_EQ(pool.lookups(), static_cast<std::uint64_t>(kThreads) * 1000);
  EXPECT_EQ(pool.hits(), pool.lookups() - pool.size());
  EXPECT_GT(pool.memory_bytes(), 0u);

  // Whatever index a racing thread observed must be what the pool hands
  // out forever after — and every thread must have agreed at the time.
  std::map<std::string, std::uint32_t> canonical;
  for (const std::string& component : distinct) {
    canonical[component] = pool.Intern(Bytes(component));
  }
  std::set<std::uint32_t> indices;
  for (const auto& [component, index] : canonical) {
    EXPECT_LT(index, pool.size());
    indices.insert(index);
  }
  EXPECT_EQ(indices.size(), distinct.size());  // no two share an index
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [component, index] : seen[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(index, canonical[component]) << component;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  constexpr std::size_t kCount = 4096;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  const util::ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_run, kCount);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // The checker nests branch-level ParallelFor inside the sanitizer's
  // group-level one; waiting callers must help drain the pool instead of
  // deadlocking on occupied workers.
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&pool, &total](std::size_t) {
    pool.ParallelFor(8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ExceptionsPropagateToTheCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(16,
                                [](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_EQ(util::ResolveJobs(1), 1u);
  EXPECT_EQ(util::ResolveJobs(4), 4u);
  EXPECT_EQ(util::ResolveJobs(-3), 1u);
  EXPECT_GE(util::ResolveJobs(0), 1u);  // hardware concurrency, >= 1
}

}  // namespace
}  // namespace iotsan::checker
