// Telemetry: lightweight observability for the checking pipeline.
//
// Four cooperating pieces, all zero-dependency and lock-free on the
// counting hot path:
//   * Registry — named monotonic counters and gauges.  Counters are
//     relaxed std::atomic<uint64_t> members grouped in structs, so the
//     parallel search workers tick them without synchronization;
//     instrumented code pays exactly one branch per event when telemetry
//     is disabled (`if (auto* t = Active())`) and one relaxed increment
//     when enabled.  Each counter names itself once, at its declaration
//     in a group struct, and registers with its group, so snapshots,
//     reset and JSON are loops.  Snapshots are taken on demand; nothing
//     is formatted until asked.
//   * Histogram — HdrHistogram-style log-linear latency/size
//     distributions (fixed buckets, relaxed-atomic increments, no mutex
//     on record).  Registered alongside the counters and exposed as
//     Prometheus histogram families (telemetry/prometheus.hpp).
//   * TraceSink + ScopedSpan — RAII phase spans over a steady clock.
//     Each completed span is one JSON object per line (JSONL): name,
//     start_us, dur_us, depth, attrs.  The sink also aggregates
//     per-name totals so `--stats` can report per-phase cost without a
//     trace file.  Span completion takes a mutex (spans are rare —
//     phases, not states).
//   * ProgressSnapshot — the periodic search-progress report the
//     checker hands to `CheckOptions::on_progress`: states/sec, depth
//     histogram, queue-drain counts, pruning ratio, store fill, and the
//     parallel.* section (jobs, branch progress, per-worker states).
//
// The active Registry/TraceSink are process-global raw pointers set by
// the embedding tool (CLI, bench, test); the globals must only be
// flipped between runs, not during one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace iotsan::telemetry {

// ---- Counter registry --------------------------------------------------------

/// Whether a sample is a monotonically increasing counter or a
/// last-written gauge — Prometheus exposition needs the distinction for
/// its `# TYPE` lines (JSON output carries values only and is unchanged
/// by the kind).
enum class SampleKind { kCounter, kGauge };

struct Sample {
  std::string name;
  std::uint64_t value = 0;
  SampleKind kind = SampleKind::kCounter;
};

class Counter;
class Histogram;

/// A named family of metrics ("search", "store").  Each metric declared
/// in a group struct registers itself here as it is constructed, so a
/// metric is named exactly once, at its declaration, and the Registry's
/// snapshots, reset and JSON list it in declaration order.
template <typename Metric>
class MetricGroup {
 public:
  struct Member {
    const char* name;
    Metric* metric;
    SampleKind kind;
  };

  /// Appends this group to `groups`, its Registry's list.
  MetricGroup(std::vector<MetricGroup*>& groups, const char* name)
      : name_(name) {
    groups.push_back(this);
  }

  const char* name() const { return name_; }
  const std::vector<Member>& members() const { return members_; }
  void Register(const char* name, Metric* metric,
                SampleKind kind = SampleKind::kCounter) {
    members_.push_back({name, metric, kind});
  }

 private:
  const char* name_;
  std::vector<Member> members_;
};

using CounterGroup = MetricGroup<Counter>;
using HistogramGroup = MetricGroup<Histogram>;

/// Relaxed atomic counter (or last-written gauge): worker threads tick
/// concurrently; exact cross-counter consistency is only guaranteed at
/// rest (between runs).  Registration happens once, at construction;
/// the counter itself is one atomic word, so a tick stays one relaxed
/// increment.
class Counter : public std::atomic<std::uint64_t> {
 public:
  Counter(CounterGroup* group, const char* name,
          SampleKind kind = SampleKind::kCounter)
      : std::atomic<std::uint64_t>(0) {
    group->Register(name, this, kind);
  }
  using std::atomic<std::uint64_t>::operator=;
};
static_assert(sizeof(Counter) == sizeof(std::uint64_t),
              "a Counter must stay one atomic word");

/// A last-written value rather than a monotonic count.
class Gauge : public Counter {
 public:
  Gauge(CounterGroup* group, const char* name)
      : Counter(group, name, SampleKind::kGauge) {}
  using Counter::operator=;
};

/// Search-layer counters (checker + cascade engine).  All monotonic.
struct SearchCounters : CounterGroup {
  Counter states_explored{this, "states_explored"};  // stable states expanded
  Counter states_matched{this, "states_matched"};  // pruned as already-seen
  Counter transitions{this, "transitions"};  // (event, failure) applications
  // cascades drained to quiescence
  Counter cascade_drains{this, "cascade_drains"};
  Counter events_injected{this, "events_injected"};  // external events injected
  // app handler invocations
  Counter handler_dispatches{this, "handler_dispatches"};
  // property-expression evaluations
  Counter invariant_evals{this, "invariant_evals"};
  Counter violations_recorded{this, "violations_recorded"};
  Counter budget_stops{this, "budget_stops"};  // runs cut short by a budget
  // on_progress invocations
  Counter progress_reports{this, "progress_reports"};
  // deterministic trace re-executions
  Counter replays_run{this, "replays_run"};
  // replays that re-fired the property
  Counter replays_reproduced{this, "replays_reproduced"};
  // bitstate violations replay killed
  Counter replays_refuted{this, "replays_refuted"};
};

/// Pipeline-layer counters (translator, dependency analyzer, model
/// generator, output analyzer).  All monotonic.
struct PipelineCounters : CounterGroup {
  Counter apps_parsed{this, "apps_parsed"};  // SmartScript sources parsed
  Counter parse_failures{this, "parse_failures"};
  Counter type_problems{this, "type_problems"};  // type-inference diagnostics
  // edges in dependency graphs
  Counter dependency_edges{this, "dependency_edges"};
  Counter related_sets{this, "related_sets"};  // related sets computed
  Counter models_built{this, "models_built"};  // SystemModel instantiations
  Counter checks_run{this, "checks_run"};  // Checker::Run completions
  // attribution configurations
  Counter configs_enumerated{this, "configs_enumerated"};
  Counter attributions{this, "attributions"};  // AttributeApp completions
};

/// State-store gauges: last-written values, not monotonic.  Ratios are
/// kept in fixed point so every sample is a uint64 (permille = 1/1000,
/// ppm = 1/1e6).
struct StoreGauges : CounterGroup {
  Gauge entries{this, "entries"};
  Gauge memory_bytes{this, "memory_bytes"};
  Gauge fill_permille{this, "fill_permille"};  // bit occupancy for BITSTATE
  // estimated hash-omission probability
  Gauge omission_ppm{this, "omission_ppm"};
  /// Average store bytes paid per stored state (key bytes + bookkeeping +
  /// intern-pool arenas when COLLAPSE compression is on).  The headline
  /// gauge the compression work is measured by.
  Gauge bytes_per_state{this, "bytes_per_state"};
  /// How many checks ended above the 50%-occupancy saturation threshold
  /// (the stderr warning itself is emitted once per run; this counter
  /// still ticks per saturated check).  Monotonic, unlike the gauges.
  Counter saturation_warnings{this, "saturation_warnings"};
};

/// Partial-order-reduction counters (cascade engine, concurrent
/// scheduling with --por).  All monotonic.
struct PorCounters : CounterGroup {
  // expansions reduced to one pick
  Counter ample_singletons{this, "ample_singletons"};
  // expansions that fanned out fully
  Counter full_expansions{this, "full_expansions"};
  // picks skipped by ample singletons
  Counter interleavings_pruned{this, "interleavings_pruned"};
  // full: some footprint unboundable
  Counter fallback_unknown{this, "fallback_unknown"};
  // full: property-relevant write
  Counter fallback_visible{this, "fallback_visible"};
  // full: overlapping footprints
  Counter fallback_conflict{this, "fallback_conflict"};
  // full: cascade-bound proviso
  Counter fallback_depth{this, "fallback_depth"};
};

/// COLLAPSE state-compression counters (--state-compression).  Pool
/// entries/bytes are gauges (last-written); the rest are monotonic.
struct CompressCounters : CounterGroup {
  // states turned into index tuples
  Counter states_encoded{this, "states_encoded"};
  // component lookups across all pools
  Counter intern_lookups{this, "intern_lookups"};
  // ... served by an existing pool entry
  Counter intern_hits{this, "intern_hits"};
  Gauge pool_entries{this, "pool_entries"};  // distinct interned components
  Gauge pool_bytes{this, "pool_bytes"};  // arena + index bytes across pools
};

/// Incremental-analysis cache counters (src/cache): per-group result
/// memoization across check/attribute runs.  All monotonic.
struct CacheCounters : CounterGroup {
  Counter lookups{this, "lookups"};  // Lookup() calls (memory or disk)
  Counter hits{this, "hits"};  // results served from the cache
  // ... of which from the in-memory LRU
  Counter hits_memory{this, "hits_memory"};
  Counter hits_disk{this, "hits_disk"};  // ... of which deserialized from disk
  Counter misses{this, "misses"};  // lookups that fell through to a check
  Counter stores{this, "stores"};  // entries written (memory and/or disk)
  // results refused (incomplete/bitstate)
  Counter store_skips{this, "store_skips"};
  Counter evictions{this, "evictions"};  // LRU entries displaced from memory
  // unreadable disk entries treated as miss
  Counter corrupt_entries{this, "corrupt_entries"};
  Counter bytes_read{this, "bytes_read"};  // disk entry bytes deserialized
  Counter bytes_written{this, "bytes_written"};  // disk entry bytes written
  // lookups that waited on an in-flight key
  Counter singleflight_waits{this, "singleflight_waits"};
};

/// Parallel-execution counters: thread-pool activity and how much work
/// each fan-out layer partitioned.  All monotonic.
struct ParallelCounters : CounterGroup {
  Counter pools_created{this, "pools_created"};  // thread pools constructed
  // dedicated worker threads started
  Counter workers_spawned{this, "workers_spawned"};
  Counter tasks_run{this, "tasks_run"};  // pool task bodies executed
  // tasks executed on a lane != push lane
  Counter tasks_stolen{this, "tasks_stolen"};
  // checker root (event × failure) branches
  Counter branch_tasks{this, "branch_tasks"};
  // sanitizer related sets fanned out
  Counter group_tasks{this, "group_tasks"};
  // attribution configurations fanned out
  Counter config_tasks{this, "config_tasks"};
};

/// Verification-service counters (src/server): HTTP traffic, request
/// outcomes, and load shedding.  Monotonic except the two gauges.
struct ServerCounters : CounterGroup {
  // TCP connections accepted
  Counter connections_accepted{this, "connections_accepted"};
  Counter requests{this, "requests"};  // HTTP requests routed
  Counter responses_ok{this, "responses_ok"};  // 2xx responses
  // 4xx responses
  Counter responses_client_error{this, "responses_client_error"};
  // 5xx responses
  Counter responses_server_error{this, "responses_server_error"};
  Counter checks{this, "checks"};  // POST /v1/check handled
  Counter attributions{this, "attributions"};  // POST /v1/attribute handled
  Counter bad_requests{this, "bad_requests"};  // malformed HTTP / JSON / schema
  // connections shed with 503
  Counter shed_queue_full{this, "shed_queue_full"};
  Counter shed_oversized{this, "shed_oversized"};  // requests shed with 413
  // requests stopped by their deadline
  Counter deadline_hits{this, "deadline_hits"};
  // sessions currently serving
  Gauge active_connections{this, "active_connections"};
  Gauge queue_depth{this, "queue_depth"};  // accepted-but-unserved conns
};

/// Fleet-registry counters (src/registry): deployment lifecycle plus
/// the delta re-verification's group classification.  The reused /
/// recomputed split is the incrementality headline — the CI fleet
/// smoke asserts `registry.groups_reused > 0` after a 1-app edit.
struct FleetRegistryCounters : CounterGroup {
  Counter deployments_put{this, "deployments_put"};  // PUT upserts accepted
  Counter deployments_deleted{this, "deployments_deleted"};  // DELETE removals
  // checks with no reusable prior groups
  Counter checks_full{this, "checks_full"};
  // checks that reused >=1 retained group
  Counter checks_delta{this, "checks_delta"};
  // groups classified across all checks
  Counter groups_total{this, "groups_total"};
  // unchanged groups served from the prior rev
  Counter groups_reused{this, "groups_reused"};
  // dirty + added groups re-run
  Counter groups_recomputed{this, "groups_recomputed"};
  // If-Match guard rejections (409)
  Counter revision_conflicts{this, "revision_conflicts"};
  // unreadable store entries (= not_found)
  Counter corrupt_entries{this, "corrupt_entries"};
  Counter evictions{this, "evictions"};  // in-memory LRU layer evictions
};

/// Cluster-coordinator counters (src/cluster): work-unit lifecycle and
/// worker-fleet health.  Monotonic except workers_healthy.
struct ClusterCounters : CounterGroup {
  Counter checks{this, "checks"};  // coordinated checks run
  // work units produced by the planner
  Counter units_planned{this, "units_planned"};
  // dispatch attempts (retries included)
  Counter units_dispatched{this, "units_dispatched"};
  // units merged into a report
  Counter units_completed{this, "units_completed"};
  // units re-queued off a failed worker
  Counter units_redispatched{this, "units_redispatched"};
  // units that fell back to local execution
  Counter units_local{this, "units_local"};
  // whole checks degraded to local
  Counter local_fallback_checks{this, "local_fallback_checks"};
  Counter retries{this, "retries"};  // transient-error retry sleeps
  // workers marked dead mid-check
  Counter worker_failures{this, "worker_failures"};
  Counter health_probes{this, "health_probes"};  // GET /v1/health probes sent
  // healthy workers at last probe
  Gauge workers_healthy{this, "workers_healthy"};
};

/// Byte-level memory accounting: where a verification's footprint
/// lives.  The store gauges split by kind so a bitstate run's fixed
/// bit-field and an exhaustive run's growing hash sets are separately
/// visible; peak_rss_bytes is the OS's high-water mark for the whole
/// process (monotonic by construction — getrusage never goes down).
/// These are the baseline the planned COLLAPSE/arena compression work
/// will be measured against.
struct MemoryGauges : CounterGroup {
  // last exhaustive-store footprint
  Gauge store_exhaustive_bytes{this, "store_exhaustive_bytes"};
  // last bitstate bit-field size
  Gauge store_bitstate_bytes{this, "store_bitstate_bytes"};
  // JSONL span bytes emitted (monotonic)
  Counter trace_buffer_bytes{this, "trace_buffer_bytes"};
  // in-memory result-cache footprint
  Gauge cache_resident_bytes{this, "cache_resident_bytes"};
  Gauge peak_rss_bytes{this, "peak_rss_bytes"};  // process peak RSS, monotonic
};

// ---- Histograms --------------------------------------------------------------

/// A mergeable point-in-time view of one Histogram: total count/sum,
/// the largest recorded value, and the non-empty buckets in ascending
/// order of their inclusive upper bound.
struct HistogramSnapshot {
  struct Bucket {
    std::uint64_t le = 0;     // inclusive upper bound of the bucket
    std::uint64_t count = 0;  // records in this bucket (not cumulative)
  };
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<Bucket> buckets;

  /// Upper-bound estimate of the q-quantile (q in [0, 1]); 0 when empty.
  /// The answer is the bound of the bucket holding the target rank, so
  /// it is exact for small values and within the bucket width (12.5%)
  /// beyond the linear range.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }

  /// Folds `other` in: counts add bucket-wise, max takes the larger.
  void Merge(const HistogramSnapshot& other);
};

/// A lock-free log-linear histogram for microsecond latencies and byte
/// sizes (HdrHistogram's bucketing, fixed at 8 sub-buckets per power of
/// two: values 0..7 are exact, larger ones land within 12.5% of their
/// bucket bound).  Record() is wait-free — one relaxed fetch_add per
/// bucket/sum plus a relaxed CAS loop for the max — so search workers,
/// pool threads, and HTTP sessions record concurrently with no mutex.
class Histogram {
 public:
  /// log2 of the sub-bucket count per power of two.
  static constexpr unsigned kSubBucketBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  /// Bucket count covering 0 .. 2^62-1 (larger values clamp into the
  /// last bucket): 8 exact + 8 per msb position 3..61.
  static constexpr std::size_t kBuckets = kSubBuckets * 60;

  Histogram() = default;
  /// A registered histogram, listed under `group` as `name`.
  Histogram(HistogramGroup* group, const char* name) {
    group->Register(name, this);
  }

  void Record(std::uint64_t value);

  /// Index of the bucket holding `value`, and the bucket's inclusive
  /// upper bound (exposed for the tests).
  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketUpperBound(std::size_t index);

  /// Relaxed-consistent snapshot: buckets recorded mid-snapshot may or
  /// may not appear; exact totals are only guaranteed at rest.
  HistogramSnapshot TakeSnapshot() const;

  void Reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Search-layer distributions: how long one related-set group takes to
/// check end to end (cache hits included — that is the latency a caller
/// observes) and the search throughput each computed group achieved.
struct SearchHistograms : HistogramGroup {
  Histogram group_check_duration_us{this, "group_check_duration_us"};
  Histogram group_states_per_second{this, "group_states_per_second"};
};

/// Cache lookup latency, split by outcome so a disk-heavy cache cannot
/// hide behind fast memory hits.
struct CacheHistograms : HistogramGroup {
  Histogram lookup_hit_duration_us{this, "lookup_hit_duration_us"};
  Histogram lookup_miss_duration_us{this, "lookup_miss_duration_us"};
};

/// Thread-pool distributions, fed through util::SetPoolHooks (the
/// pool itself stays below telemetry): per-task run time and how long an
/// idle worker waited before it obtained its next task.
struct ParallelHistograms : HistogramGroup {
  Histogram task_run_duration_us{this, "task_run_duration_us"};
  Histogram steal_wait_duration_us{this, "steal_wait_duration_us"};
};

/// Verification-service distributions: request handling latency, how
/// long an accepted connection sat in the queue before a session thread
/// picked it up, and request body sizes.
struct ServerHistograms : HistogramGroup {
  Histogram request_duration_us{this, "request_duration_us"};
  Histogram queue_wait_us{this, "queue_wait_us"};
  Histogram request_body_bytes{this, "request_body_bytes"};
};

/// Fleet-registry distributions: wall-clock latency of a full check vs.
/// a delta re-check (the bench_fleet_delta headline split).
struct FleetRegistryHistograms : HistogramGroup {
  Histogram full_check_duration_us{this, "full_check_duration_us"};
  Histogram delta_check_duration_us{this, "delta_check_duration_us"};
};

/// Cluster distributions: end-to-end latency of one dispatched work
/// unit (HTTP round trip included — the coordinator's cost per unit).
struct ClusterHistograms : HistogramGroup {
  Histogram dispatch_latency_us{this, "dispatch_latency_us"};
};

/// One named histogram in a Registry snapshot ("server.request_duration_us").
struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

class Registry {
  // Declared first: each group below (an aggregate whose first element
  // is its MetricGroup base) appends itself as it is built, so the
  // lists keep declaration order.
  std::vector<CounterGroup*> counter_groups_;
  std::vector<HistogramGroup*> histogram_groups_;

 public:
  SearchCounters search{{counter_groups_, "search"}};
  PipelineCounters pipeline{{counter_groups_, "pipeline"}};
  StoreGauges store{{counter_groups_, "store"}};
  PorCounters por{{counter_groups_, "por"}};
  CompressCounters compress{{counter_groups_, "compress"}};
  ParallelCounters parallel{{counter_groups_, "parallel"}};
  CacheCounters cache{{counter_groups_, "cache"}};
  ServerCounters server{{counter_groups_, "server"}};
  FleetRegistryCounters registry{{counter_groups_, "registry"}};
  ClusterCounters cluster{{counter_groups_, "cluster"}};
  MemoryGauges memory{{counter_groups_, "memory"}};

  SearchHistograms search_hist{{histogram_groups_, "search"}};
  CacheHistograms cache_hist{{histogram_groups_, "cache"}};
  ParallelHistograms parallel_hist{{histogram_groups_, "parallel"}};
  ServerHistograms server_hist{{histogram_groups_, "server"}};
  FleetRegistryHistograms registry_hist{{histogram_groups_, "registry"}};
  ClusterHistograms cluster_hist{{histogram_groups_, "cluster"}};

  /// All counters and gauges as dotted names ("search.states_explored"),
  /// in a stable order, each tagged counter vs. gauge.
  std::vector<Sample> Snapshot() const;

  /// All histograms as dotted names, in a stable order.
  std::vector<HistogramSample> SnapshotHistograms() const;

  /// One object per counter group: {"search": {...}, "store": {...}, ...}.
  json::Value ToJson() const;

  void Reset();
};

/// The process-global registry; null = telemetry disabled (the one
/// branch instrumented code pays).
Registry* Active();
void SetActive(Registry* registry);

/// The process's peak resident-set size in bytes (getrusage), 0 when
/// unavailable.  Monotonic: the kernel's high-water mark never drops.
std::uint64_t ReadPeakRssBytes();

/// Samples ReadPeakRssBytes() into `registry.memory.peak_rss_bytes`
/// and returns the value — called at check completion and on every
/// metrics/status snapshot so the gauge stays fresh without a poller.
std::uint64_t SamplePeakRss(Registry& registry);

// ---- Phase spans and the JSONL trace sink ------------------------------------

class TraceSink {
 public:
  /// Totals-only sink: spans are timed and aggregated but not written.
  TraceSink();
  /// Additionally appends one JSON object per completed span to `path`.
  /// Throws iotsan::Error when the file cannot be opened.
  explicit TraceSink(const std::string& path);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  struct Total {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  /// Aggregated span durations by name.
  const std::map<std::string, Total, std::less<>>& totals() const {
    return totals_;
  }

  /// Microseconds since the sink was created (steady clock).
  std::uint64_t NowUs() const;

  void Flush();

 private:
  friend class ScopedSpan;

  void EndSpan(const std::string& name, std::uint64_t start_us,
               std::uint64_t dur_us, int depth, const json::Object* attrs);

  std::chrono::steady_clock::time_point epoch_;
  std::ofstream out_;
  bool to_file_ = false;
  std::atomic<int> open_spans_{0};  // current nesting depth
  // Guards totals_ and the output stream: spans may complete on pool
  // worker threads concurrently.
  std::mutex mutex_;
  std::map<std::string, Total, std::less<>> totals_;
};

/// The process-global trace sink; null = tracing disabled.
TraceSink* ActiveTrace();
void SetActiveTrace(TraceSink* sink);

/// RAII phase span.  Construction records the start time and nesting
/// depth; destruction emits one JSONL line and feeds the per-name
/// totals.  A null sink makes every operation a no-op (the clock is not
/// even read).
class ScopedSpan {
 public:
  ScopedSpan(TraceSink* sink, std::string_view name);
  /// Opens the span on the process-global sink (ActiveTrace()).
  explicit ScopedSpan(std::string_view name)
      : ScopedSpan(ActiveTrace(), name) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach a key/value attribute, emitted with the span's JSONL line.
  void Attr(std::string_view key, std::string_view value);
  void Attr(std::string_view key, std::int64_t value);
  void Attr(std::string_view key, std::uint64_t value);
  void Attr(std::string_view key, double value);

 private:
  json::Object& MutableAttrs();

  TraceSink* sink_;
  std::string name_;
  std::uint64_t start_us_ = 0;
  int depth_ = 0;
  std::unique_ptr<json::Object> attrs_;  // allocated only when used
};

// ---- Search progress ---------------------------------------------------------

/// A point-in-time view of a running (or finished) search, delivered to
/// `CheckOptions::on_progress` every `progress_every` expanded states
/// and once more when a budget stops the run.
struct ProgressSnapshot {
  std::uint64_t states_explored = 0;
  std::uint64_t states_matched = 0;
  std::uint64_t transitions = 0;
  std::uint64_t cascade_drains = 0;
  double elapsed_seconds = 0;
  double states_per_second = 0;
  /// matched / (explored + matched): how much of the reachable frontier
  /// the store is pruning.
  double pruning_ratio = 0;
  /// Bit occupancy for BITSTATE stores, 0 for exhaustive.
  double store_fill_ratio = 0;
  /// States expanded per external-event depth (index 0 = initial state).
  std::vector<std::uint64_t> depth_histogram;

  // ---- parallel.* section (meaningful when jobs > 1) ----
  /// Worker lanes the search runs on (1 = serial).
  int jobs = 1;
  /// Root-level (event × failure) branches partitioned across workers.
  std::uint64_t branches_total = 0;
  std::uint64_t branches_done = 0;
  /// States expanded per worker lane (empty for serial runs).
  std::vector<std::uint64_t> worker_states_explored;

  // ---- cache.* section (meaningful when an analysis cache is active) ----
  /// Related-set groups served from / missed by the incremental analysis
  /// cache so far this run (mirrors the active Registry's cache.hits /
  /// cache.misses at snapshot time; both 0 when no cache is configured).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

using ProgressCallback = std::function<void(const ProgressSnapshot&)>;

/// One-line human rendering ("progress: 12000 states (3400/s), ...").
std::string FormatProgress(const ProgressSnapshot& snapshot);

// ---- Group progress ----------------------------------------------------------

/// Coarse progress of one whole verification: how many related-set
/// groups have finished out of how many dispatched.  Emitted by the
/// sanitizer after each group completes (from whichever pool thread ran
/// it), separately from the per-state ProgressSnapshot stream so the
/// CLI's stderr cadence is untouched.  This is what feeds the server's
/// in-flight request table (`GET /v1/status`) and SSE progress events.
struct GroupProgress {
  std::uint64_t groups_total = 0;
  std::uint64_t groups_done = 0;     // completed groups, including this one
  std::uint64_t states_explored = 0; // cumulative across finished groups
  std::uint64_t store_memory_bytes = 0;  // this group's store footprint
  double seconds = 0;                // this group's search time
};

using GroupProgressCallback = std::function<void(const GroupProgress&)>;

}  // namespace iotsan::telemetry
