#include "telemetry/telemetry.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::telemetry {

namespace {

Registry* g_registry = nullptr;
TraceSink* g_trace = nullptr;

// Pool hooks: the thread pool sits below telemetry, so it calls back
// through util::SetPoolHooks instead of including this header.  The
// hooks re-check Active() per report, so a pool outliving one registry
// simply stops reporting.  These are the only places the pool counters
// tick: every pool counts itself, whoever owns it.
void RecordPoolTaskRun(std::uint64_t us) {
  if (auto* t = Active()) t->parallel_hist.task_run_duration_us.Record(us);
}

void RecordPoolStealWait(std::uint64_t us) {
  if (auto* t = Active()) t->parallel_hist.steal_wait_duration_us.Record(us);
}

void CountPoolCreated(unsigned jobs) {
  if (auto* t = Active()) {
    ++t->parallel.pools_created;
    t->parallel.workers_spawned += jobs - 1;
  }
}

void CountPoolDestroyed(std::uint64_t tasks_run, std::uint64_t tasks_stolen) {
  if (auto* t = Active()) {
    t->parallel.tasks_run += tasks_run;
    t->parallel.tasks_stolen += tasks_stolen;
  }
}

}  // namespace

// ---- Registry ----------------------------------------------------------------

Registry* Active() { return g_registry; }

void SetActive(Registry* registry) {
  g_registry = registry;
  static constexpr util::PoolHooks kPoolHooks = {
      &RecordPoolTaskRun, &RecordPoolStealWait, &CountPoolCreated,
      &CountPoolDestroyed};
  util::SetPoolHooks(registry != nullptr ? &kPoolHooks : nullptr);
}

std::vector<Sample> Registry::Snapshot() const {
  std::vector<Sample> out;
  for (const CounterGroup* group : counter_groups_) {
    for (const CounterGroup::Member& m : group->members()) {
      out.push_back({std::string(group->name()) + "." + m.name,
                     m.metric->load(std::memory_order_relaxed), m.kind});
    }
  }
  return out;
}

std::vector<HistogramSample> Registry::SnapshotHistograms() const {
  std::vector<HistogramSample> out;
  for (const HistogramGroup* group : histogram_groups_) {
    for (const HistogramGroup::Member& m : group->members()) {
      out.push_back({std::string(group->name()) + "." + m.name,
                     m.metric->TakeSnapshot()});
    }
  }
  return out;
}

void Registry::Reset() {
  for (CounterGroup* group : counter_groups_) {
    for (const CounterGroup::Member& m : group->members()) m.metric->store(0);
  }
  for (HistogramGroup* group : histogram_groups_) {
    for (const HistogramGroup::Member& m : group->members()) {
      m.metric->Reset();
    }
  }
}

json::Value Registry::ToJson() const {
  json::Object doc;
  for (const CounterGroup* group : counter_groups_) {
    json::Object values;
    for (const CounterGroup::Member& m : group->members()) {
      values[m.name] = json::Value(static_cast<std::int64_t>(
          m.metric->load(std::memory_order_relaxed)));
    }
    doc[group->name()] = json::Value(std::move(values));
  }
  return json::Value(std::move(doc));
}

std::uint64_t ReadPeakRssBytes() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes (BSD reports bytes; this repo
  // targets POSIX/Linux — see the server's socket layer).
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

std::uint64_t SamplePeakRss(Registry& registry) {
  const std::uint64_t rss = ReadPeakRssBytes();
  // Monotonic even if the platform lies: never write a smaller value.
  std::uint64_t seen = registry.memory.peak_rss_bytes.load(
      std::memory_order_relaxed);
  while (rss > seen && !registry.memory.peak_rss_bytes.compare_exchange_weak(
                           seen, rss, std::memory_order_relaxed)) {
  }
  return std::max(rss, seen);
}

// ---- Histogram ---------------------------------------------------------------

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // Position of the most significant bit (>= kSubBucketBits here); the
  // kSubBucketBits bits right below it pick the linear sub-bucket.
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(value));
  const unsigned group = msb - kSubBucketBits + 1;
  const std::uint64_t sub =
      (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
  const std::size_t index =
      static_cast<std::size_t>(group) * kSubBuckets +
      static_cast<std::size_t>(sub);
  return index < kBuckets ? index : kBuckets - 1;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t group = index / kSubBuckets;
  const std::uint64_t sub = index % kSubBuckets;
  const unsigned shift = static_cast<unsigned>(group) - 1;
  return ((kSubBuckets + sub + 1) << shift) - 1;
}

void Histogram::Record(std::uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) out.buckets.push_back({BucketUpperBound(i), n});
  }
  return out;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (const Bucket& bucket : buckets) {
    cumulative += bucket.count;
    if (cumulative >= rank) {
      // The last bucket's nominal bound can overshoot the true maximum;
      // never report a quantile above an observed value.
      return static_cast<double>(std::min(bucket.le, max));
    }
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  std::vector<Bucket> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].le < other.buckets[b].le)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() || other.buckets[b].le < buckets[a].le) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.push_back({buckets[a].le,
                        buckets[a].count + other.buckets[b].count});
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

// ---- TraceSink ---------------------------------------------------------------

TraceSink* ActiveTrace() { return g_trace; }
void SetActiveTrace(TraceSink* sink) { g_trace = sink; }

TraceSink::TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

TraceSink::TraceSink(const std::string& path)
    : epoch_(std::chrono::steady_clock::now()),
      out_(path, std::ios::trunc),
      to_file_(true) {
  if (!out_) throw Error("cannot open trace file: " + path);
}

TraceSink::~TraceSink() {
  if (to_file_) out_.flush();
}

std::uint64_t TraceSink::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceSink::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (to_file_) out_.flush();
}

void TraceSink::EndSpan(const std::string& name, std::uint64_t start_us,
                        std::uint64_t dur_us, int depth,
                        const json::Object* attrs) {
  std::lock_guard<std::mutex> lock(mutex_);
  Total& total = totals_[name];
  ++total.count;
  total.total_us += dur_us;
  if (!to_file_) return;
  // One JSON object per line; spans appear in completion order
  // (children before their parent), which keeps emission O(1) and the
  // stream well-formed even if the process dies mid-run.
  json::Object line;
  line["name"] = json::Value(name);
  line["start_us"] = json::Value(static_cast<std::int64_t>(start_us));
  line["dur_us"] = json::Value(static_cast<std::int64_t>(dur_us));
  line["depth"] = json::Value(depth);
  if (attrs != nullptr && !attrs->empty()) {
    line["attrs"] = json::Value(*attrs);
  }
  const std::string text = json::Value(std::move(line)).Dump();
  out_ << text << '\n';
  if (auto* t = Active()) t->memory.trace_buffer_bytes += text.size() + 1;
}

// ---- ScopedSpan --------------------------------------------------------------

ScopedSpan::ScopedSpan(TraceSink* sink, std::string_view name) : sink_(sink) {
  if (sink_ == nullptr) return;
  name_ = name;
  start_us_ = sink_->NowUs();
  depth_ = sink_->open_spans_++;
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) return;
  --sink_->open_spans_;
  sink_->EndSpan(name_, start_us_, sink_->NowUs() - start_us_, depth_,
                 attrs_.get());
}

json::Object& ScopedSpan::MutableAttrs() {
  if (!attrs_) attrs_ = std::make_unique<json::Object>();
  return *attrs_;
}

void ScopedSpan::Attr(std::string_view key, std::string_view value) {
  if (sink_ == nullptr) return;
  MutableAttrs()[std::string(key)] = json::Value(std::string(value));
}

void ScopedSpan::Attr(std::string_view key, std::int64_t value) {
  if (sink_ == nullptr) return;
  MutableAttrs()[std::string(key)] = json::Value(value);
}

void ScopedSpan::Attr(std::string_view key, std::uint64_t value) {
  Attr(key, static_cast<std::int64_t>(value));
}

void ScopedSpan::Attr(std::string_view key, double value) {
  if (sink_ == nullptr) return;
  MutableAttrs()[std::string(key)] = json::Value(value);
}

// ---- Progress ----------------------------------------------------------------

std::string FormatProgress(const ProgressSnapshot& snapshot) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "progress: %" PRIu64 " states (%.0f/s), %" PRIu64
                " matched (%.1f%% pruned), %" PRIu64 " transitions, %" PRIu64
                " drains",
                snapshot.states_explored, snapshot.states_per_second,
                snapshot.states_matched, snapshot.pruning_ratio * 100.0,
                snapshot.transitions, snapshot.cascade_drains);
  std::string out = head;
  if (!snapshot.depth_histogram.empty()) {
    out += ", depth ";
    for (std::size_t i = 0; i < snapshot.depth_histogram.size(); ++i) {
      if (i > 0) out += '|';
      out += std::to_string(snapshot.depth_histogram[i]);
    }
  }
  if (snapshot.store_fill_ratio > 0) {
    char fill[48];
    std::snprintf(fill, sizeof(fill), ", store fill %.2f%%",
                  snapshot.store_fill_ratio * 100.0);
    out += fill;
  }
  if (snapshot.jobs > 1) {
    char par[96];
    std::snprintf(par, sizeof(par),
                  ", jobs %d, branches %" PRIu64 "/%" PRIu64, snapshot.jobs,
                  snapshot.branches_done, snapshot.branches_total);
    out += par;
  }
  if (snapshot.cache_hits + snapshot.cache_misses > 0) {
    char cache[64];
    std::snprintf(cache, sizeof(cache),
                  ", cache %" PRIu64 " hit/%" PRIu64 " miss",
                  snapshot.cache_hits, snapshot.cache_misses);
    out += cache;
  }
  return out;
}

}  // namespace iotsan::telemetry
