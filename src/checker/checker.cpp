#include "checker/checker.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

#include "checker/collapse.hpp"
#include "checker/state_store.hpp"
#include "model/footprint.hpp"
#include "model/state_view.hpp"
#include "props/eval.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::checker {

bool CheckResult::HasViolation(const std::string& property_id) const {
  return Find(property_id) != nullptr;
}

const Violation* CheckResult::Find(const std::string& property_id) const {
  for (const Violation& v : violations) {
    if (v.property_id == property_id) return &v;
  }
  return nullptr;
}

telemetry::ProgressSnapshot CheckResult::Progress() const {
  telemetry::ProgressSnapshot snapshot;
  snapshot.jobs = jobs;
  snapshot.branches_total = parallel_branches;
  snapshot.branches_done = parallel_branches;
  snapshot.worker_states_explored = worker_states_explored;
  snapshot.states_explored = states_explored;
  snapshot.states_matched = states_matched;
  snapshot.transitions = transitions;
  snapshot.cascade_drains = cascade_drains;
  snapshot.elapsed_seconds = seconds;
  snapshot.states_per_second =
      seconds > 0 ? static_cast<double>(states_explored) / seconds : 0;
  const double considered =
      static_cast<double>(states_explored + states_matched);
  snapshot.pruning_ratio =
      considered > 0 ? static_cast<double>(states_matched) / considered : 0;
  snapshot.store_fill_ratio = store_fill_ratio;
  snapshot.depth_histogram = depth_histogram;
  if (auto* t = telemetry::Active()) {
    snapshot.cache_hits = t->cache.hits;
    snapshot.cache_misses = t->cache.misses;
  }
  return snapshot;
}

std::string_view PropertyKindName(props::PropertyKind kind) {
  switch (kind) {
    case props::PropertyKind::kInvariant: return "invariant";
    case props::PropertyKind::kNoConflict: return "no_conflict";
    case props::PropertyKind::kNoRepeat: return "no_repeat";
    case props::PropertyKind::kNoNetworkLeak: return "no_network_leak";
    case props::PropertyKind::kSmsRecipient: return "sms_recipient";
    case props::PropertyKind::kNoSensitiveCmd: return "no_sensitive_cmd";
    case props::PropertyKind::kNoFakeEvent: return "no_fake_event";
    case props::PropertyKind::kRobustness: return "robustness";
  }
  return "invariant";
}

props::PropertyKind PropertyKindFromName(std::string_view name) {
  for (props::PropertyKind kind :
       {props::PropertyKind::kInvariant, props::PropertyKind::kNoConflict,
        props::PropertyKind::kNoRepeat, props::PropertyKind::kNoNetworkLeak,
        props::PropertyKind::kSmsRecipient,
        props::PropertyKind::kNoSensitiveCmd,
        props::PropertyKind::kNoFakeEvent,
        props::PropertyKind::kRobustness}) {
    if (name == PropertyKindName(kind)) return kind;
  }
  return props::PropertyKind::kInvariant;
}

json::Value ViolationToJson(const Violation& violation) {
  json::Object obj;
  obj["property_id"] = violation.property_id;
  obj["category"] = violation.category;
  obj["description"] = violation.description;
  obj["kind"] = std::string(PropertyKindName(violation.kind));
  json::Array steps;
  for (const TraceStep& step : violation.steps) steps.push_back(ToJson(step));
  obj["steps"] = std::move(steps);
  obj["detail"] = violation.detail;
  json::Array apps;
  for (const std::string& app : violation.apps) apps.push_back(app);
  obj["apps"] = std::move(apps);
  json::Array model_apps;
  for (const std::string& app : violation.model_apps) model_apps.push_back(app);
  obj["model_apps"] = std::move(model_apps);
  obj["failure"] = violation.failure;
  obj["depth"] = violation.depth;
  obj["occurrences"] = static_cast<std::int64_t>(violation.occurrences);
  obj["replay_verified"] = violation.replay_verified;
  return obj;
}

Violation ViolationFromJson(const json::Value& value) {
  Violation violation;
  violation.property_id = value.GetString("property_id");
  violation.category = value.GetString("category");
  violation.description = value.GetString("description");
  violation.kind = PropertyKindFromName(value.GetString("kind", "invariant"));
  if (value.Has("steps")) {
    for (const json::Value& step : value.At("steps").AsArray()) {
      violation.steps.push_back(TraceStepFromJson(step));
    }
  }
  violation.detail = value.GetString("detail");
  if (value.Has("apps")) {
    for (const json::Value& app : value.At("apps").AsArray()) {
      violation.apps.push_back(app.AsString());
    }
  }
  if (value.Has("model_apps")) {
    for (const json::Value& app : value.At("model_apps").AsArray()) {
      violation.model_apps.push_back(app.AsString());
    }
  }
  violation.failure = value.GetString("failure");
  violation.depth = static_cast<int>(value.GetNumber("depth"));
  violation.occurrences =
      static_cast<std::uint64_t>(value.GetNumber("occurrences", 1));
  violation.replay_verified = value.GetBool("replay_verified");
  return violation;
}

json::Value CheckResultToJson(const CheckResult& result) {
  json::Object res;
  json::Array violations;
  for (const Violation& v : result.violations) {
    violations.push_back(ViolationToJson(v));
  }
  res["violations"] = std::move(violations);
  res["states_explored"] = static_cast<std::int64_t>(result.states_explored);
  res["states_matched"] = static_cast<std::int64_t>(result.states_matched);
  res["transitions"] = static_cast<std::int64_t>(result.transitions);
  res["cascade_drains"] = static_cast<std::int64_t>(result.cascade_drains);
  res["completed"] = result.completed;
  // The original compute time: a replayed result reports the seconds
  // its run measured, so merged reports match the run that computed it.
  res["seconds"] = result.seconds;
  res["store_fill_ratio"] = result.store_fill_ratio;
  res["est_omission_probability"] = result.est_omission_probability;
  res["store_entries"] = static_cast<std::int64_t>(result.store_entries);
  res["store_memory_bytes"] =
      static_cast<std::int64_t>(result.store_memory_bytes);
  res["store_bytes_per_state"] = result.store_bytes_per_state;
  res["compress_pool_entries"] =
      static_cast<std::int64_t>(result.compress_pool_entries);
  res["compress_pool_bytes"] =
      static_cast<std::int64_t>(result.compress_pool_bytes);
  res["compress_lookups"] = static_cast<std::int64_t>(result.compress_lookups);
  res["compress_hits"] = static_cast<std::int64_t>(result.compress_hits);
  json::Array depths;
  for (std::uint64_t count : result.depth_histogram) {
    depths.push_back(static_cast<std::int64_t>(count));
  }
  res["depth_histogram"] = std::move(depths);
  return res;
}

CheckResult CheckResultFromJson(const json::Value& doc) {
  CheckResult result;
  for (const json::Value& v : doc.At("violations").AsArray()) {
    result.violations.push_back(ViolationFromJson(v));
  }
  auto count = [&doc](const char* key) {
    return static_cast<std::uint64_t>(doc.GetNumber(key));
  };
  result.states_explored = count("states_explored");
  result.states_matched = count("states_matched");
  result.transitions = count("transitions");
  result.cascade_drains = count("cascade_drains");
  result.completed = doc.GetBool("completed", true);
  result.seconds = doc.GetNumber("seconds");
  result.store_fill_ratio = doc.GetNumber("store_fill_ratio");
  result.est_omission_probability = doc.GetNumber("est_omission_probability");
  result.store_entries = count("store_entries");
  result.store_memory_bytes = count("store_memory_bytes");
  // The COLLAPSE diagnostics and the depth histogram arrived after the
  // cache schema froze; older documents read back with them zeroed.
  result.store_bytes_per_state = doc.GetNumber("store_bytes_per_state");
  result.compress_pool_entries = count("compress_pool_entries");
  result.compress_pool_bytes = count("compress_pool_bytes");
  result.compress_lookups = count("compress_lookups");
  result.compress_hits = count("compress_hits");
  if (doc.Has("depth_histogram")) {
    for (const json::Value& depth : doc.At("depth_histogram").AsArray()) {
      result.depth_histogram.push_back(
          static_cast<std::uint64_t>(depth.AsNumber()));
    }
  }
  return result;
}

namespace {

/// Copies the run-so-far analysis-cache tallies into a progress
/// snapshot (both 0 when telemetry or the cache is off).
void FillCacheProgress(telemetry::ProgressSnapshot& snapshot) {
  if (auto* t = telemetry::Active()) {
    snapshot.cache_hits = t->cache.hits;
    snapshot.cache_misses = t->cache.misses;
  }
}

using Clock = std::chrono::steady_clock;

// The once-per-run latch for the bitstate saturation warning: re-armed
// by ResetSaturationWarning() (the CLI does so per command), so a run
// checking dozens of related sets warns once instead of once per check.
// An atomic_flag because parallel workers (or parallel related-set
// checks) may finish saturated checks concurrently: exactly one of them
// wins the test_and_set and prints.
std::atomic_flag g_saturation_warned = ATOMIC_FLAG_INIT;

/// One step of a guided (replay) search: the recorded external event,
/// failure scenario, and interleaving choice, resolved against a
/// concrete model.
struct GuideStep {
  model::ExternalEvent event;
  model::FailureScenario failure;
  int outcome_index = 0;
};

/// Resolves an artifact's name-based event coordinates to model indices.
/// Throws iotsan::Error when the model does not match the recording.
std::vector<GuideStep> ResolveSteps(const model::SystemModel& model,
                                    const std::vector<TraceStep>& steps) {
  std::vector<GuideStep> guide;
  for (const TraceStep& step : steps) {
    GuideStep g;
    g.outcome_index = step.outcome_index;
    g.failure.sensor_offline = step.sensor_offline;
    g.failure.actuator_offline = step.actuator_offline;
    g.failure.comm_fail = step.comm_fail;
    if (step.kind == "sensor") {
      g.event.kind = model::ExternalEventSpec::Kind::kSensor;
      g.event.device = model.DeviceIndex(step.device);
      if (g.event.device < 0) {
        throw Error("replay: device '" + step.device +
                    "' is not in the model");
      }
      const devices::Device& device = model.devices()[g.event.device];
      g.event.attribute = device.AttributeIndex(step.attribute);
      if (g.event.attribute < 0) {
        throw Error("replay: device '" + step.device +
                    "' has no attribute '" + step.attribute + "'");
      }
      const devices::AttributeSpec& attr =
          *device.attributes()[g.event.attribute];
      g.event.value = -1;
      for (int v = 0; v < attr.domain_size(); ++v) {
        if (attr.ValueName(v) == step.value) {
          g.event.value = v;
          break;
        }
      }
      if (g.event.value < 0) {
        throw Error("replay: attribute '" + step.attribute +
                    "' has no value '" + step.value + "'");
      }
    } else if (step.kind == "app_touch") {
      g.event.kind = model::ExternalEventSpec::Kind::kAppTouch;
      g.event.app = -1;
      for (std::size_t a = 0; a < model.apps().size(); ++a) {
        if (model.apps()[a].config.label == step.app) {
          g.event.app = static_cast<int>(a);
          break;
        }
      }
      if (g.event.app < 0) {
        throw Error("replay: app '" + step.app + "' is not in the model");
      }
    } else if (step.kind == "timer") {
      g.event.kind = model::ExternalEventSpec::Kind::kTimerTick;
    } else if (step.kind == "user_mode") {
      g.event.kind = model::ExternalEventSpec::Kind::kUserModeChange;
      g.event.value = -1;
      for (std::size_t m = 0; m < model.modes().size(); ++m) {
        if (model.modes()[m] == step.value) {
          g.event.value = static_cast<int>(m);
          break;
        }
      }
      if (g.event.value < 0) {
        throw Error("replay: mode '" + step.value + "' is not in the model");
      }
    } else {
      throw Error("replay: unknown event kind '" + step.kind + "'");
    }
    guide.push_back(std::move(g));
  }
  return guide;
}

// ---- Canonical counter-example selection -------------------------------------
//
// A property can fire on many edges of the search.  Which edge a DFS
// reaches first depends on exploration order, and under parallel search
// exploration order depends on scheduling — so "first found" would make
// reports vary run to run.  Instead every path (serial and parallel)
// keeps the *minimal* counter-example: fewest external events, ties
// broken by the identifying event coordinates.  Only the coordinates
// that determine the re-execution (kind/device/attribute/value/app,
// failure flags, interleaving index) participate: they fix the entire
// step content, so comparing the rest would be redundant.

/// The coordinates that order counter-example steps, by stable names.
/// Views point into the step or the model, which outlive the identity.
struct StepIdentity {
  std::string_view kind;
  std::string_view device;
  std::string_view attribute;
  std::string value;  // built: numeric value names are formatted
  std::string_view app;
  bool sensor_offline = false;
  bool actuator_offline = false;
  bool comm_fail = false;
  int outcome_index = 0;
};

StepIdentity IdentityOf(const TraceStep& step) {
  return {step.kind,           step.device,    step.attribute,
          step.value,          step.app,       step.sensor_offline,
          step.actuator_offline, step.comm_fail, step.outcome_index};
}

/// The identity MakeStep would record for this (event, failure,
/// interleaving), built without the rest of the step.
StepIdentity IdentityOf(const model::SystemModel& model,
                        const model::ExternalEvent& event,
                        const model::FailureScenario& failure,
                        int outcome_index) {
  StepIdentity id;
  switch (event.kind) {
    case model::ExternalEventSpec::Kind::kSensor: {
      const devices::Device& device = model.devices()[event.device];
      const devices::AttributeSpec& attr =
          *device.attributes()[event.attribute];
      id.kind = "sensor";
      id.device = device.id();
      id.attribute = attr.name;
      id.value = attr.ValueName(event.value);
      break;
    }
    case model::ExternalEventSpec::Kind::kAppTouch:
      id.kind = "app_touch";
      id.app = model.apps()[event.app].config.label;
      break;
    case model::ExternalEventSpec::Kind::kTimerTick:
      id.kind = "timer";
      break;
    case model::ExternalEventSpec::Kind::kUserModeChange:
      id.kind = "user_mode";
      id.value = model.modes()[event.value];
      break;
  }
  id.sensor_offline = failure.sensor_offline;
  id.actuator_offline = failure.actuator_offline;
  id.comm_fail = failure.comm_fail;
  id.outcome_index = outcome_index;
  return id;
}

int CompareStepIdentity(const StepIdentity& a, const StepIdentity& b) {
  if (int c = a.kind.compare(b.kind)) return c;
  if (int c = a.device.compare(b.device)) return c;
  if (int c = a.attribute.compare(b.attribute)) return c;
  if (int c = a.value.compare(b.value)) return c;
  if (int c = a.app.compare(b.app)) return c;
  if (a.sensor_offline != b.sensor_offline) return a.sensor_offline ? 1 : -1;
  if (a.actuator_offline != b.actuator_offline) {
    return a.actuator_offline ? 1 : -1;
  }
  if (a.comm_fail != b.comm_fail) return a.comm_fail ? 1 : -1;
  if (a.outcome_index != b.outcome_index) {
    return a.outcome_index < b.outcome_index ? -1 : 1;
  }
  return 0;
}

/// Orders two counter-examples: fewer steps first, then step by step by
/// identity, then by detail.  `a_step(i)` yields the identity of step i
/// of path a, so a compact search path compares against recorded
/// TraceSteps without building them.
template <typename StepA>
int ComparePaths(std::size_t a_size, StepA a_step, const std::string& a_detail,
                 const std::vector<TraceStep>& b,
                 const std::string& b_detail) {
  if (a_size != b.size()) return a_size < b.size() ? -1 : 1;
  for (std::size_t i = 0; i < a_size; ++i) {
    if (int c = CompareStepIdentity(a_step(i), IdentityOf(b[i]))) return c;
  }
  return a_detail.compare(b_detail);
}

}  // namespace

// Public (checker.hpp): the cluster coordinator merges branch-shard and
// swarm-lane results from remote workers through these, so distributed
// merges canonicalize exactly like the in-process parallel path.
void MergeViolationInto(Violation& existing, Violation v) {
  existing.occurrences += v.occurrences;
  for (std::string& app : v.apps) {
    bool known = false;
    for (const std::string& have : existing.apps) {
      known = known || have == app;
    }
    if (!known) existing.apps.push_back(std::move(app));
  }
  auto step = [&v](std::size_t i) { return IdentityOf(v.steps[i]); };
  if (ComparePaths(v.steps.size(), step, v.detail, existing.steps,
                   existing.detail) < 0) {
    existing.steps = std::move(v.steps);
    existing.detail = std::move(v.detail);
    existing.depth = v.depth;
    existing.failure = std::move(v.failure);
  }
}

void CanonicalizeViolations(std::vector<Violation>& violations) {
  for (Violation& v : violations) std::sort(v.apps.begin(), v.apps.end());
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.property_id < b.property_id;
            });
}

namespace {

// ---- Run-finalization helpers (shared by serial and parallel paths) ----------

void NoteStoreDiagnostics(CheckResult& result, const StateStore& store,
                          const CollapseCodec* codec) {
  result.store_entries = store.size();
  result.store_memory_bytes = store.memory_bytes();
  result.store_fill_ratio = store.FillRatio();
  result.est_omission_probability = store.EstOmissionProbability();
  if (codec != nullptr) {
    result.compress_states_encoded = codec->states_encoded();
    result.compress_pool_entries = codec->pool_entries();
    result.compress_pool_bytes = codec->pool_bytes();
    result.compress_lookups = codec->lookups();
    result.compress_hits = codec->hits();
  }
  if (result.store_entries > 0) {
    result.store_bytes_per_state =
        static_cast<double>(result.store_memory_bytes +
                            result.compress_pool_bytes) /
        static_cast<double>(result.store_entries);
  }
}

void WarnIfSaturated(const CheckResult& result, const CheckOptions& options) {
  if (options.store != StoreKind::kBitstate ||
      result.store_fill_ratio <= 0.5) {
    return;
  }
  if (auto* t = telemetry::Active()) ++t->store.saturation_warnings;
  // Spin's rule of thumb: above 50% occupancy BITSTATE coverage is
  // unreliable — a saturated bit field silently under-reports
  // violations.  Emitted once per run (ResetSaturationWarning re-arms),
  // mirrored per check in store.saturation_warnings.
  if (!g_saturation_warned.test_and_set()) {
    util::LogWarn(
        "checker",
        "bitstate store saturated; coverage is unreliable, increase "
        "bitstate_bits",
        {{"fill_ratio", result.store_fill_ratio},
         {"est_omission_probability", result.est_omission_probability},
         {"store_bytes", result.store_memory_bytes}});
  }
}

void TickFinishTelemetry(const CheckResult& result,
                         const CheckOptions& options) {
  auto* t = telemetry::Active();
  if (t == nullptr) return;
  t->search.states_explored += result.states_explored;
  t->search.states_matched += result.states_matched;
  t->search.transitions += result.transitions;
  t->search.cascade_drains += result.cascade_drains;
  t->search.violations_recorded += result.violations.size();
  if (!result.completed) ++t->search.budget_stops;
  ++t->pipeline.checks_run;
  t->store.entries = result.store_entries;
  t->store.memory_bytes = result.store_memory_bytes;
  t->store.fill_permille =
      static_cast<std::uint64_t>(result.store_fill_ratio * 1000.0);
  t->store.omission_ppm =
      static_cast<std::uint64_t>(result.est_omission_probability * 1e6);
  t->store.bytes_per_state =
      static_cast<std::uint64_t>(result.store_bytes_per_state);
  if (options.state_compression) {
    t->compress.states_encoded += result.compress_states_encoded;
    t->compress.intern_lookups += result.compress_lookups;
    t->compress.intern_hits += result.compress_hits;
    t->compress.pool_entries = result.compress_pool_entries;
    t->compress.pool_bytes = result.compress_pool_bytes;
  }
  // Memory accounting: the store footprint lands in the gauge for its
  // kind, and the OS high-water mark is refreshed while it is still
  // inflated by the live store (sampling later would under-report).
  if (options.store == StoreKind::kBitstate) {
    t->memory.store_bitstate_bytes = result.store_memory_bytes;
  } else {
    t->memory.store_exhaustive_bytes = result.store_memory_bytes;
  }
  telemetry::SamplePeakRss(*t);
}

// ---- Shared state of a parallel search ---------------------------------------

/// Crossbar between the branch workers of one parallel run: the shared
/// visited-state store, global budget/stop flags, and the live totals
/// that budgets and progress reports read.  Everything per-branch (path
/// context, violations, exact counters) stays worker-local in each
/// branch's CheckResult and is merged deterministically afterwards.
struct SharedSearch {
  SharedSearch(std::size_t depth_levels, unsigned lanes)
      : depth_histogram(depth_levels), worker_states(lanes) {}

  StateStore* store = nullptr;
  util::ThreadPool* pool = nullptr;
  /// Shared POR oracle / COLLAPSE codec (null when the feature is off);
  /// both are thread-safe, so every branch worker uses the same instance.
  const model::FootprintIndex* footprints = nullptr;
  CollapseCodec* codec = nullptr;
  Clock::time_point start;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> states_explored{0};
  std::atomic<std::uint64_t> states_matched{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> cascade_drains{0};
  std::vector<std::atomic<std::uint64_t>> depth_histogram;
  std::vector<std::atomic<std::uint64_t>> worker_states;
  std::uint64_t branches_total = 0;
  std::atomic<std::uint64_t> branches_done{0};
  // Serializes on_progress invocations (the callback is user code).
  std::mutex progress_mutex;
};

class Search {
 public:
  /// `guide` switches the search into guided-replay mode: the recorded
  /// path is followed step by step (no event enumeration, no store
  /// pruning), re-running the monitors and invariants along the way —
  /// Spin's guided simulation of a .trail file.  `shared` switches it
  /// into parallel-worker mode: the store, clock, and budgets come from
  /// the shared run; drive it with RunBranch instead of Run.
  Search(const model::SystemModel& model, const CheckOptions& options,
         const std::vector<GuideStep>* guide = nullptr,
         SharedSearch* shared = nullptr)
      : model_(model),
        options_(options),
        owned_footprints_(MakeFootprints(model, options, shared)),
        footprints_(shared != nullptr ? shared->footprints
                                      : owned_footprints_.get()),
        engine_(model, footprints_, /*notes=*/false),
        noted_engine_(model, footprints_, /*notes=*/true),
        guide_(guide),
        shared_(shared) {
    for (const props::Property& property : model_.active_properties()) {
      const props::Property*& slot =
          monitors_[static_cast<std::size_t>(property.kind)];
      if (slot == nullptr) slot = &property;
    }
    if (shared_ != nullptr) {
      store_ = shared_->store;
      codec_ = shared_->codec;
      start_ = shared_->start;
      lane_ = shared_->pool->CurrentLane();
    } else {
      if (options.store == StoreKind::kExhaustive) {
        owned_store_ = std::make_unique<ExhaustiveStore>();
      } else {
        owned_store_ = std::make_unique<BitstateStore>(options.bitstate_bits,
                                                       3,
                                                       options.bitstate_seed);
      }
      store_ = owned_store_.get();
      if (options.state_compression) {
        owned_codec_ = std::make_unique<CollapseCodec>(model);
        codec_ = owned_codec_.get();
      }
    }
    result_.depth_histogram.assign(
        static_cast<std::size_t>(std::max(options.max_events, 0)) + 1, 0);
    cancel_ = [this] { return BudgetExceeded(); };
  }

  CheckResult Run() {
    telemetry::ScopedSpan span(guide_ != nullptr ? "replay" : "check");
    if (!options_.request_id.empty()) {
      span.Attr("request_id", options_.request_id);
    }
    start_ = Clock::now();
    model::SystemState initial = model_.MakeInitialState();
    EncodeStateKey(initial);
    store_->TestAndInsert(key_scratch_);
    Explore(initial, 0);
    result_.seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    FinishDiagnostics();
    span.Attr("states", result_.states_explored);
    span.Attr("transitions", result_.transitions);
    span.Attr("completed", std::int64_t{result_.completed ? 1 : 0});
    CanonicalizeViolations(result_.violations);
    return std::move(result_);
  }

  /// Parallel-worker entry: explores one root (event × failure) branch
  /// against the shared store.  The initial state is accounted by the
  /// driver, so this starts directly with the branch's cascade.
  CheckResult RunBranch(const model::SystemState& initial,
                        const model::ExternalEvent& event,
                        const model::FailureScenario& failure) {
    if (!BudgetExceeded()) {
      std::vector<model::StepOutcome> outcomes = engine_.Apply(
          initial, event, failure, options_.scheduling, cancel_);
      result_.cascade_drains += outcomes.size();
      shared_->cascade_drains.fetch_add(outcomes.size(),
                                        std::memory_order_relaxed);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (BudgetExceeded()) break;
        ProcessOutcome(initial, event, failure, outcomes[i], 0,
                       static_cast<int>(i));
      }
    }
    shared_->branches_done.fetch_add(1, std::memory_order_relaxed);
    return std::move(result_);
  }

 private:
  const model::SystemModel& model_;
  const CheckOptions& options_;
  // Declared before engine_: the engine captures the footprint pointer at
  // construction (member-init order).
  std::unique_ptr<model::FootprintIndex> owned_footprints_;
  const model::FootprintIndex* footprints_ = nullptr;
  // engine_ keeps no notes, in the free search and in guided replay;
  // noted_engine_ re-applies the steps of a recorded violation to build
  // its forensics.
  model::CascadeEngine engine_;
  model::CascadeEngine noted_engine_;
  const std::vector<GuideStep>* guide_;
  SharedSearch* shared_;
  std::unique_ptr<StateStore> owned_store_;
  StateStore* store_ = nullptr;  // owned_store_ or the shared run's store
  std::unique_ptr<CollapseCodec> owned_codec_;
  const CollapseCodec* codec_ = nullptr;  // null = plain serialization keys
  // Per-worker scratch buffers: store keys are built in place so the hot
  // loop performs no per-state allocations once capacity settles.
  std::vector<std::uint8_t> key_scratch_;
  std::vector<std::uint8_t> component_scratch_;
  unsigned lane_ = 0;  // pool lane, for per-worker accounting
  CheckResult result_;
  Clock::time_point start_;
  bool stopped_ = false;
  // Handed to the cascade engine so budgets are honored between drains.
  model::CancelFn cancel_;

  /// One external-event step of the current DFS path, kept compact: what
  /// re-executes it, plus the live state it started from.  `before`
  /// points into a DFS frame that outlives the step's time on the path.
  /// Full TraceSteps are built from these only when a violation is
  /// recorded (BuildSteps).
  struct PathStep {
    model::ExternalEvent event;
    model::FailureScenario failure;
    int outcome_index = 0;
    const model::SystemState* before = nullptr;
  };

  // Current DFS path context: the compact steps, and causality data for
  // violation charging — which app actuated which device, and which
  // apps changed the location mode, along the path.
  std::vector<PathStep> path_;
  std::vector<std::pair<int, int>> path_actuations_;
  std::vector<int> path_mode_setters_;

  // The first active property of each kind (null = inactive), resolved
  // once per search for the monitors; kRobustness is the last kind.
  std::array<const props::Property*,
             static_cast<std::size_t>(props::PropertyKind::kRobustness) + 1>
      monitors_{};

  const props::Property* Monitor(props::PropertyKind kind) const {
    return monitors_[static_cast<std::size_t>(kind)];
  }

  bool BudgetExceeded() {
    if (stopped_) return true;
    if (options_.interrupt != nullptr &&
        options_.interrupt->load(std::memory_order_relaxed)) {
      result_.completed = false;
      stopped_ = true;
      if (shared_ != nullptr) {
        shared_->stop.store(true, std::memory_order_relaxed);
      }
      return true;
    }
    if (shared_ != nullptr) {
      // Budgets are global across workers: compare the shared totals and
      // broadcast the stop so every branch winds down together.
      if (shared_->stop.load(std::memory_order_relaxed)) {
        result_.completed = false;
        stopped_ = true;
        return true;
      }
      if (options_.max_states != 0 &&
          shared_->states_explored.load(std::memory_order_relaxed) >=
              options_.max_states) {
        result_.completed = false;
        stopped_ = true;
        shared_->stop.store(true, std::memory_order_relaxed);
        return true;
      }
      if (options_.time_budget_seconds > 0 &&
          Elapsed() > options_.time_budget_seconds) {
        result_.completed = false;
        stopped_ = true;
        shared_->stop.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
    if (options_.max_states != 0 &&
        result_.states_explored >= options_.max_states) {
      result_.completed = false;
      stopped_ = true;
    }
    if (options_.time_budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start_).count();
      if (elapsed > options_.time_budget_seconds) {
        result_.completed = false;
        stopped_ = true;
      }
    }
    return stopped_;
  }

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// The POR oracle is built once per run: serial searches own theirs,
  /// parallel branch workers share the driver's via SharedSearch.  Null
  /// when POR is off or scheduling is sequential (one dispatch order —
  /// nothing to reduce).
  static std::unique_ptr<model::FootprintIndex> MakeFootprints(
      const model::SystemModel& model, const CheckOptions& options,
      const SharedSearch* shared) {
    if (shared != nullptr) return nullptr;
    if (!options.por || options.scheduling != model::Scheduling::kConcurrent) {
      return nullptr;
    }
    return std::make_unique<model::FootprintIndex>(model);
  }

  /// Rebuilds key_scratch_ with `state`'s store key — COLLAPSE-encoded
  /// when compression is on, the plain serialization otherwise.  The
  /// depth byte, when enabled, is appended by the caller.
  void EncodeStateKey(const model::SystemState& state) {
    key_scratch_.clear();
    if (codec_ != nullptr) {
      codec_->Encode(state, key_scratch_, component_scratch_);
    } else {
      state.SerializeTo(key_scratch_);
    }
  }

  telemetry::ProgressSnapshot ProgressNow() const {
    telemetry::ProgressSnapshot snapshot;
    snapshot.states_explored = result_.states_explored;
    snapshot.states_matched = result_.states_matched;
    snapshot.transitions = result_.transitions;
    snapshot.cascade_drains = result_.cascade_drains;
    snapshot.elapsed_seconds = Elapsed();
    snapshot.states_per_second =
        snapshot.elapsed_seconds > 0
            ? static_cast<double>(result_.states_explored) /
                  snapshot.elapsed_seconds
            : 0;
    const double considered = static_cast<double>(result_.states_explored +
                                                  result_.states_matched);
    snapshot.pruning_ratio =
        considered > 0
            ? static_cast<double>(result_.states_matched) / considered
            : 0;
    snapshot.store_fill_ratio = store_->FillRatio();
    snapshot.depth_histogram = result_.depth_histogram;
    FillCacheProgress(snapshot);
    return snapshot;
  }

  void EmitProgress() {
    options_.on_progress(ProgressNow());
    if (auto* t = telemetry::Active()) ++t->search.progress_reports;
  }

  /// Progress snapshot of a parallel run, built from the shared totals.
  /// Called by whichever worker's increment crossed the progress_every
  /// boundary, under the shared progress mutex.
  void EmitSharedProgress() {
    telemetry::ProgressSnapshot snapshot;
    snapshot.jobs = static_cast<int>(shared_->pool->jobs());
    snapshot.branches_total = shared_->branches_total;
    snapshot.branches_done =
        shared_->branches_done.load(std::memory_order_relaxed);
    snapshot.states_explored =
        shared_->states_explored.load(std::memory_order_relaxed);
    snapshot.states_matched =
        shared_->states_matched.load(std::memory_order_relaxed);
    snapshot.transitions =
        shared_->transitions.load(std::memory_order_relaxed);
    snapshot.cascade_drains =
        shared_->cascade_drains.load(std::memory_order_relaxed);
    snapshot.elapsed_seconds = Elapsed();
    snapshot.states_per_second =
        snapshot.elapsed_seconds > 0
            ? static_cast<double>(snapshot.states_explored) /
                  snapshot.elapsed_seconds
            : 0;
    const double considered = static_cast<double>(snapshot.states_explored +
                                                  snapshot.states_matched);
    snapshot.pruning_ratio =
        considered > 0
            ? static_cast<double>(snapshot.states_matched) / considered
            : 0;
    snapshot.store_fill_ratio = store_->FillRatio();
    snapshot.depth_histogram.reserve(shared_->depth_histogram.size());
    for (const auto& bucket : shared_->depth_histogram) {
      snapshot.depth_histogram.push_back(
          bucket.load(std::memory_order_relaxed));
    }
    snapshot.worker_states_explored.reserve(shared_->worker_states.size());
    for (const auto& lane : shared_->worker_states) {
      snapshot.worker_states_explored.push_back(
          lane.load(std::memory_order_relaxed));
    }
    FillCacheProgress(snapshot);
    std::lock_guard<std::mutex> lock(shared_->progress_mutex);
    options_.on_progress(snapshot);
    if (auto* t = telemetry::Active()) ++t->search.progress_reports;
  }

  void FinishDiagnostics() {
    NoteStoreDiagnostics(result_, *store_, codec_);
    if (guide_ != nullptr) {
      // Guided replays neither saturate the store (exhaustive, short
      // path) nor count as checks: their telemetry is the replay
      // counters the caller ticks.
      return;
    }
    WarnIfSaturated(result_, options_);
    // The final snapshot at stop time: budget-stopped runs still report
    // where the search stood.
    if (!result_.completed && options_.on_progress) EmitProgress();
    TickFinishTelemetry(result_, options_);
  }

  /// Builds the structured record of one external-event step: the event
  /// coordinates (by stable names, for replay), the failure flags, and
  /// everything observed while the cascade drained.
  TraceStep MakeStep(const model::SystemState& before,
                     const model::ExternalEvent& event,
                     const model::FailureScenario& failure,
                     const model::StepOutcome& outcome, int depth,
                     int outcome_index) const {
    TraceStep step;
    step.index = depth + 1;
    step.sim_time_ms = (depth + 1) * 1000;
    switch (event.kind) {
      case model::ExternalEventSpec::Kind::kSensor: {
        const devices::Device& device = model_.devices()[event.device];
        step.kind = "sensor";
        step.device = device.id();
        step.attribute = device.attributes()[event.attribute]->name;
        step.value =
            device.attributes()[event.attribute]->ValueName(event.value);
        break;
      }
      case model::ExternalEventSpec::Kind::kAppTouch:
        step.kind = "app_touch";
        step.app = model_.apps()[event.app].config.label;
        break;
      case model::ExternalEventSpec::Kind::kTimerTick:
        step.kind = "timer";
        break;
      case model::ExternalEventSpec::Kind::kUserModeChange:
        step.kind = "user_mode";
        step.value = model_.modes()[event.value];
        break;
    }
    step.description = event.Describe(model_);
    step.sensor_offline = failure.sensor_offline;
    step.actuator_offline = failure.actuator_offline;
    step.comm_fail = failure.comm_fail;
    step.outcome_index = outcome_index;
    for (const model::HandlerDispatch& d : outcome.log.dispatches) {
      step.dispatches.push_back(
          {model_.apps()[d.app].config.label, d.handler});
    }
    for (const model::CommandRecord& c : outcome.log.commands) {
      TraceCommand command;
      command.app = model_.apps()[c.app].config.label;
      if (c.device >= 0) command.device = model_.devices()[c.device].id();
      command.command = c.spec->name;
      if (c.device >= 0 && c.value_index >= 0) {
        const devices::Device& device = model_.devices()[c.device];
        const int attr = device.AttributeIndex(c.spec->attribute);
        if (attr >= 0) {
          command.value = device.attributes()[attr]->ValueName(c.value_index);
        }
      }
      command.delivered = c.delivered;
      step.commands.push_back(std::move(command));
    }
    step.deltas = DiffStates(model_, before, outcome.state);
    step.notes = outcome.log.trace;
    step.failed_sends = outcome.log.failed_deliveries;
    step.user_notified = outcome.log.user_notified;
    step.queue_peak = outcome.log.max_queue_depth;
    step.truncated = outcome.log.truncated;
    return step;
  }

  /// Full TraceSteps for the current path: the one place counter-example
  /// forensics are built.  The search runs without notes, so each step is
  /// re-applied with notes on; Apply is deterministic, so the re-run
  /// reproduces the recorded outcome with its Fig. 7 lines.
  std::vector<TraceStep> BuildSteps() const {
    std::vector<TraceStep> steps;
    steps.reserve(path_.size());
    for (std::size_t d = 0; d < path_.size(); ++d) {
      const PathStep& step = path_[d];
      const std::vector<model::StepOutcome> outcomes = noted_engine_.Apply(
          *step.before, step.event, step.failure, options_.scheduling);
      steps.push_back(MakeStep(
          *step.before, step.event, step.failure,
          outcomes.at(static_cast<std::size_t>(step.outcome_index)),
          static_cast<int>(d), step.outcome_index));
    }
    return steps;
  }

  /// ComparePaths of the current (compact) path against a recorded one.
  int ComparePathTo(const std::string& detail,
                    const Violation& recorded) const {
    auto step = [this](std::size_t i) {
      const PathStep& p = path_[i];
      return IdentityOf(model_, p.event, p.failure, p.outcome_index);
    };
    return ComparePaths(path_.size(), step, detail, recorded.steps,
                        recorded.detail);
  }

  Violation* RecordViolation(const props::Property& property, int depth,
                             const std::string& failure_label,
                             const std::string& detail,
                             const std::set<int>& charged_apps) {
    for (Violation& existing : result_.violations) {
      if (existing.property_id == property.id) {
        ++existing.occurrences;
        // Accumulate every charged app across re-violations —
        // attribution (§9) needs to know all apps that can drive the
        // system into this bad state — and keep the *canonical*
        // (minimal) counter-example rather than the first found, so the
        // reported trace does not depend on exploration order.
        for (int app : charged_apps) {
          const std::string& label = model_.apps()[app].config.label;
          bool known = false;
          for (const std::string& existing_app : existing.apps) {
            known = known || existing_app == label;
          }
          if (!known) existing.apps.push_back(label);
        }
        if (ComparePathTo(detail, existing) < 0) {
          existing.steps = BuildSteps();
          existing.detail = detail;
          existing.depth = depth;
          existing.failure = failure_label;
        }
        return nullptr;
      }
    }
    Violation violation;
    violation.property_id = property.id;
    violation.category = property.category;
    violation.description = property.description;
    violation.kind = property.kind;
    violation.steps = BuildSteps();
    violation.detail = detail;
    for (int app : charged_apps) {
      violation.apps.push_back(model_.apps()[app].config.label);
    }
    for (const model::InstalledApp& app : model_.apps()) {
      violation.model_apps.push_back(app.config.label);
    }
    violation.failure = failure_label;
    violation.depth = depth;
    result_.violations.push_back(std::move(violation));
    if (options_.stop_at_first_violation) {
      stopped_ = true;
      result_.completed = false;  // the search was cut short on purpose
      if (shared_ != nullptr) {
        shared_->stop.store(true, std::memory_order_relaxed);
      }
    }
    return &result_.violations.back();
  }

  /// Apps responsible for an invariant violation: those that actuated a
  /// device carrying one of the property's roles along the path, plus —
  /// when the property reads the location mode — the apps that changed
  /// the mode.
  std::set<int> ChargedApps(const props::Property& property) const {
    std::set<int> charged;
    for (const auto& [app, device] : path_actuations_) {
      for (const std::string& role : property.roles) {
        if (model_.devices()[device].HasRole(role)) {
          charged.insert(app);
          break;
        }
      }
    }
    if (props::ReferencesMode(property.ParsedExpression())) {
      charged.insert(path_mode_setters_.begin(), path_mode_setters_.end());
    }
    return charged;
  }

  void CheckInvariants(const model::SystemState& state, int depth,
                       const std::string& failure_label) {
    model::ModelStateView view(model_, state);
    for (const props::Property& property : model_.active_properties()) {
      if (stopped_) return;
      if (property.kind != props::PropertyKind::kInvariant) continue;
      if (auto* t = telemetry::Active()) ++t->search.invariant_evals;
      if (props::EvalPropertyExpr(property.ParsedExpression(), view)) {
        continue;
      }
      RecordViolation(property, depth, failure_label,
                      "assertion violated: " + property.description + " (" +
                          property.id + ")",
                      ChargedApps(property));
    }
  }

  void RunMonitors(const model::CascadeLog& log, int depth,
                   const model::FailureScenario& failure,
                   const std::string& failure_label) {
    if (stopped_) return;

    // Conflicting / repeated commands (Algorithm 1, line 16).  Each
    // cascade records at most one violation per monitor kind (the first
    // offending pair in command order) but every offending cascade
    // records — unlike a whole-run short-circuit, this keeps occurrence
    // counts a pure function of the explored-edge set, and therefore
    // identical across serial and parallel schedules.
    if (const props::Property* monitor =
            Monitor(props::PropertyKind::kNoConflict)) {
      bool recorded = false;
      for (std::size_t i = 0; i < log.commands.size() && !recorded; ++i) {
        for (std::size_t j = i + 1; j < log.commands.size(); ++j) {
          const model::CommandRecord& a = log.commands[i];
          const model::CommandRecord& b = log.commands[j];
          if (a.device != b.device) continue;
          const bool conflicting =
              std::find(a.spec->conflicts_with.begin(),
                        a.spec->conflicts_with.end(),
                        b.spec->name) != a.spec->conflicts_with.end();
          if (!conflicting) continue;
          RecordViolation(*monitor, depth, failure_label,
                          "conflicting commands on " +
                              model_.devices()[a.device].id() + ": " +
                              a.spec->name + " vs " + b.spec->name,
                          {a.app, b.app});
          recorded = true;
          break;
        }
      }
    }
    if (const props::Property* monitor =
            Monitor(props::PropertyKind::kNoRepeat)) {
      bool recorded = false;
      for (std::size_t i = 0; i < log.commands.size() && !recorded; ++i) {
        for (std::size_t j = i + 1; j < log.commands.size(); ++j) {
          const model::CommandRecord& a = log.commands[i];
          const model::CommandRecord& b = log.commands[j];
          if (a.device != b.device || a.spec->name != b.spec->name ||
              a.value_index != b.value_index) {
            continue;
          }
          RecordViolation(*monitor, depth, failure_label,
                          "repeated command on " +
                              model_.devices()[a.device].id() + ": " +
                              a.spec->name + " received twice",
                          {a.app, b.app});
          recorded = true;
          break;
        }
      }
    }

    for (const model::ApiCallRecord& api : log.api_calls) {
      if (stopped_) return;
      switch (api.kind) {
        case model::ApiCallRecord::Kind::kHttp:
          if (!model_.deployment().allow_network_interfaces) {
            if (const props::Property* monitor =
                    Monitor(props::PropertyKind::kNoNetworkLeak)) {
              RecordViolation(*monitor, depth, failure_label,
                              "network interface used: " + api.detail,
                              {api.app});
            }
          }
          break;
        case model::ApiCallRecord::Kind::kSms:
          if (api.recipient_mismatch) {
            if (const props::Property* monitor =
                    Monitor(props::PropertyKind::kSmsRecipient)) {
              RecordViolation(*monitor, depth, failure_label,
                              "SMS recipient '" + api.detail +
                                  "' does not match the configured contact",
                              {api.app});
            }
          }
          break;
        case model::ApiCallRecord::Kind::kUnsubscribe:
          if (const props::Property* monitor =
                  Monitor(props::PropertyKind::kNoSensitiveCmd)) {
            RecordViolation(*monitor, depth, failure_label,
                            "security-sensitive command: unsubscribe()",
                            {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kFakeEvent:
          if (const props::Property* monitor =
                  Monitor(props::PropertyKind::kNoFakeEvent)) {
            RecordViolation(*monitor, depth, failure_label,
                            "fake event injected: " + api.detail, {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kPush:
          break;
      }
    }

    // Robustness: a command was lost to a failure and the user was never
    // notified (§8's robustness property).
    const props::Property* robustness =
        Monitor(props::PropertyKind::kRobustness);
    if (failure.Any() && log.failed_deliveries > 0 && !log.user_notified &&
        robustness != nullptr) {
      std::set<int> losers;
      for (const model::CommandRecord& cmd : log.commands) {
        if (!cmd.delivered) losers.insert(cmd.app);
      }
      RecordViolation(*robustness, depth, failure_label,
                      std::to_string(log.failed_deliveries) +
                          " command(s) lost to " + failure_label +
                          " with no user notification",
                      losers);
    }
  }

  /// Processes one drained cascade outcome: extends the path context,
  /// runs the monitors and invariants, and (in free-search mode) prunes
  /// through the store and recurses.  Shared by the free DFS and the
  /// guided replay.
  void ProcessOutcome(const model::SystemState& before,
                      const model::ExternalEvent& event,
                      const model::FailureScenario& failure,
                      const model::StepOutcome& outcome, int depth,
                      int outcome_index) {
    ++result_.transitions;
    if (shared_ != nullptr) {
      shared_->transitions.fetch_add(1, std::memory_order_relaxed);
    }

    const std::size_t actuation_mark = path_actuations_.size();
    const std::size_t mode_mark = path_mode_setters_.size();
    path_.push_back({event, failure, outcome_index, &before});
    path_actuations_.insert(path_actuations_.end(),
                            outcome.log.actuations.begin(),
                            outcome.log.actuations.end());
    path_mode_setters_.insert(path_mode_setters_.end(),
                              outcome.log.mode_setters.begin(),
                              outcome.log.mode_setters.end());

    const std::string failure_label = failure.Any() ? failure.Label() : "";
    RunMonitors(outcome.log, depth + 1, failure, failure_label);
    CheckInvariants(outcome.state, depth + 1, failure_label);

    if (guide_ != nullptr) {
      // Guided replay follows the recorded path unconditionally — a
      // prefix may revisit states the store would prune.
      Explore(outcome.state, depth + 1);
    } else {
      EncodeStateKey(outcome.state);
      if (options_.include_depth_in_state) {
        key_scratch_.push_back(static_cast<std::uint8_t>(depth + 1));
      }
      if (store_->TestAndInsert(key_scratch_)) {
        ++result_.states_matched;
        if (shared_ != nullptr) {
          shared_->states_matched.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        Explore(outcome.state, depth + 1);
      }
    }

    // Restore path context.
    path_.pop_back();
    path_actuations_.resize(actuation_mark);
    path_mode_setters_.resize(mode_mark);
  }

  void Explore(const model::SystemState& state, int depth) {
    if (BudgetExceeded()) return;
    ++result_.states_explored;
    ++result_.depth_histogram[static_cast<std::size_t>(depth)];
    if (shared_ != nullptr) {
      shared_->depth_histogram[static_cast<std::size_t>(depth)].fetch_add(
          1, std::memory_order_relaxed);
      shared_->worker_states[lane_].fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t total =
          shared_->states_explored.fetch_add(1, std::memory_order_relaxed) +
          1;
      if (options_.progress_every != 0 && options_.on_progress &&
          total % options_.progress_every == 0) {
        EmitSharedProgress();
      }
    } else if (options_.progress_every != 0 && options_.on_progress &&
               result_.states_explored % options_.progress_every == 0) {
      EmitProgress();
    }
    if (depth >= options_.max_events) return;

    if (guide_ != nullptr) {
      const GuideStep& g = (*guide_)[static_cast<std::size_t>(depth)];
      std::vector<model::StepOutcome> outcomes = engine_.Apply(
          state, g.event, g.failure, options_.scheduling, cancel_);
      result_.cascade_drains += outcomes.size();
      if (outcomes.empty()) return;
      const int index = std::min(g.outcome_index,
                                 static_cast<int>(outcomes.size()) - 1);
      ProcessOutcome(state, g.event, g.failure,
                     outcomes[static_cast<std::size_t>(index)], depth, index);
      return;
    }

    const auto& scenarios = options_.model_failures
                                ? model::FailureScenario::AllScenarios()
                                : model::FailureScenario::NoFailure();

    for (const model::ExternalEvent& event : engine_.EnabledEvents(state)) {
      for (const model::FailureScenario& failure : scenarios) {
        if (BudgetExceeded()) return;
        std::vector<model::StepOutcome> outcomes = engine_.Apply(
            state, event, failure, options_.scheduling, cancel_);
        result_.cascade_drains += outcomes.size();
        if (shared_ != nullptr) {
          shared_->cascade_drains.fetch_add(outcomes.size(),
                                            std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          if (BudgetExceeded()) return;
          ProcessOutcome(state, event, failure, outcomes[i], depth,
                         static_cast<int>(i));
        }
      }
    }
  }
};

// ---- Parallel driver ---------------------------------------------------------
//
// Partitions the root-level (external event × failure scenario) branches
// of the permutation DFS across a work-stealing pool.  All workers share
// one visited-state store, so the frontier is pruned globally exactly as
// in the serial search.  Determinism: with the exhaustive store every
// reachable (state, depth) pair is inserted exactly once, so the
// multiset of explored edges — and with it the violation set, occurrence
// counts, aggregate counters, and depth histogram — is independent of
// scheduling; per-branch results are merged in branch-enumeration order
// and violations are canonicalized, making the full report byte-stable
// for any jobs value.  (Bitstate relaxes this slightly; see
// docs/performance.md.)
CheckResult RunParallel(const model::SystemModel& model,
                        const CheckOptions& options, unsigned jobs) {
  telemetry::ScopedSpan span("check");
  if (!options.request_id.empty()) {
    span.Attr("request_id", options.request_id);
  }
  const Clock::time_point start = Clock::now();

  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<util::ThreadPool>(jobs);
    pool = owned_pool.get();
  }

  std::unique_ptr<StateStore> store;
  if (options.store == StoreKind::kExhaustive) {
    // ~8 shards per lane keeps two workers off the same mutex without
    // ballooning fixed per-shard overhead.
    store = std::make_unique<ExhaustiveStore>(
        std::min(64u, pool->jobs() * 8));
  } else {
    store = std::make_unique<BitstateStore>(options.bitstate_bits, 3,
                                            options.bitstate_seed);
  }

  std::unique_ptr<model::FootprintIndex> footprints;
  if (options.por && options.scheduling == model::Scheduling::kConcurrent) {
    footprints = std::make_unique<model::FootprintIndex>(model);
  }
  std::unique_ptr<CollapseCodec> codec;
  if (options.state_compression) {
    codec = std::make_unique<CollapseCodec>(model,
                                            std::min(64u, pool->jobs() * 8));
  }

  model::SystemState initial = model.MakeInitialState();
  {
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> scratch;
    if (codec != nullptr) {
      codec->Encode(initial, key, scratch);
    } else {
      initial.SerializeTo(key);
    }
    store->TestAndInsert(key);
  }

  const std::size_t depth_levels =
      static_cast<std::size_t>(std::max(options.max_events, 0)) + 1;
  SharedSearch shared(depth_levels, pool->jobs());
  shared.store = store.get();
  shared.pool = pool;
  shared.footprints = footprints.get();
  shared.codec = codec.get();
  shared.start = start;
  // The initial state is accounted here, not by any branch; it belongs
  // to the driver's lane so the per-lane counts partition the total.
  shared.states_explored.store(1);
  shared.depth_histogram[0].store(1);
  shared.worker_states[pool->CurrentLane()].store(1);

  // Root branches in deterministic enumeration order — the same order
  // the serial DFS would visit them, which is also the merge order.
  struct RootBranch {
    model::ExternalEvent event;
    model::FailureScenario failure;
  };
  std::vector<RootBranch> branches;
  if (options.max_events > 0) {
    model::CascadeEngine root_engine(model);
    const auto& scenarios = options.model_failures
                                ? model::FailureScenario::AllScenarios()
                                : model::FailureScenario::NoFailure();
    for (const model::ExternalEvent& event :
         root_engine.EnabledEvents(initial)) {
      for (const model::FailureScenario& failure : scenarios) {
        branches.push_back({event, failure});
      }
    }
  }
  if (options.branch_modulus > 1) {
    // Branch-shard mode (cluster work units): keep only this shard's
    // residue class.  Enumeration order is deterministic, so shards with
    // residues 0..modulus-1 partition the branch set exactly.
    std::vector<RootBranch> mine;
    for (std::size_t i = 0; i < branches.size(); ++i) {
      if (i % options.branch_modulus ==
          options.branch_residue % options.branch_modulus) {
        mine.push_back(std::move(branches[i]));
      }
    }
    branches = std::move(mine);
  }
  shared.branches_total = branches.size();

  std::vector<CheckResult> branch_results(branches.size());
  pool->ParallelFor(branches.size(), [&](std::size_t i) {
    Search search(model, options, nullptr, &shared);
    branch_results[i] =
        search.RunBranch(initial, branches[i].event, branches[i].failure);
  });

  CheckResult result;
  result.jobs = static_cast<int>(pool->jobs());
  result.parallel_branches = branches.size();
  result.depth_histogram.assign(depth_levels, 0);
  result.states_explored = 1;
  result.depth_histogram[0] = 1;
  for (CheckResult& branch : branch_results) {
    result.states_explored += branch.states_explored;
    result.states_matched += branch.states_matched;
    result.transitions += branch.transitions;
    result.cascade_drains += branch.cascade_drains;
    result.completed = result.completed && branch.completed;
    for (std::size_t d = 0; d < branch.depth_histogram.size(); ++d) {
      result.depth_histogram[d] += branch.depth_histogram[d];
    }
    for (Violation& violation : branch.violations) {
      Violation* existing = nullptr;
      for (Violation& have : result.violations) {
        if (have.property_id == violation.property_id) {
          existing = &have;
          break;
        }
      }
      if (existing == nullptr) {
        result.violations.push_back(std::move(violation));
      } else {
        MergeViolationInto(*existing, std::move(violation));
      }
    }
  }
  if (shared.stop.load()) result.completed = false;
  CanonicalizeViolations(result.violations);

  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  NoteStoreDiagnostics(result, *store, codec.get());
  WarnIfSaturated(result, options);
  result.worker_states_explored.reserve(shared.worker_states.size());
  for (const auto& lane : shared.worker_states) {
    result.worker_states_explored.push_back(lane.load());
  }
  // The final snapshot at stop time, exactly like the serial path.
  if (!result.completed && options.on_progress) {
    options.on_progress(result.Progress());
    if (auto* t = telemetry::Active()) ++t->search.progress_reports;
  }
  TickFinishTelemetry(result, options);
  if (auto* t = telemetry::Active()) {
    t->parallel.branch_tasks += branches.size();
  }
  span.Attr("states", result.states_explored);
  span.Attr("transitions", result.transitions);
  span.Attr("completed", std::int64_t{result.completed ? 1 : 0});
  span.Attr("jobs", std::int64_t{result.jobs});
  return result;
}

/// Re-executes a recorded path against `model` and reports whether
/// `property_id` fired at `expected_depth`.  Ticks the replay telemetry
/// counters.
ReplayResult ReplayPath(const model::SystemModel& model,
                        const std::vector<TraceStep>& steps,
                        model::Scheduling scheduling, bool por,
                        const std::string& property_id, int expected_depth) {
  CheckOptions options;  // exhaustive store, no budgets: exact re-execution
  options.max_events = static_cast<int>(steps.size());
  options.scheduling = scheduling;
  // Replays must enumerate the same (reduced) outcome lists the recording
  // search saw, or the recorded outcome_index points at the wrong drain.
  options.por = por;
  const std::vector<GuideStep> guide = ResolveSteps(model, steps);
  Search search(model, options, &guide);
  CheckResult result = search.Run();

  ReplayResult out;
  out.property_id = property_id;
  out.expected_step = expected_depth;
  out.seconds = result.seconds;
  const Violation* fired = result.Find(property_id);
  if (fired != nullptr) out.fired_step = fired->depth;
  out.reproduced = fired != nullptr && fired->depth == expected_depth;
  if (out.reproduced) {
    out.message = "violation of " + property_id +
                  " reproduced deterministically at step " +
                  std::to_string(out.fired_step) + " of " +
                  std::to_string(steps.size());
  } else if (fired != nullptr) {
    out.message = property_id + " fired at step " +
                  std::to_string(out.fired_step) + ", recorded at step " +
                  std::to_string(expected_depth);
  } else {
    out.message = property_id + " did not fire along the recorded path";
  }
  if (auto* t = telemetry::Active()) {
    ++t->search.replays_run;
    if (out.reproduced) {
      ++t->search.replays_reproduced;
    } else {
      ++t->search.replays_refuted;
    }
  }
  return out;
}

}  // namespace

CheckResult Checker::Run(const CheckOptions& options) const {
  const unsigned jobs = util::ResolveJobs(options.jobs);
  // Branch-sharded runs always go through RunParallel — the serial
  // Search has no notion of skipping root branches — even with jobs==1
  // (ParallelFor on a 1-lane pool degenerates to a serial loop).
  CheckResult result = jobs > 1 || options.branch_modulus > 1
                           ? RunParallel(model_, options, std::max(jobs, 1u))
                           : Search(model_, options).Run();
  if (options.reverify_bitstate && options.store == StoreKind::kBitstate &&
      !result.violations.empty()) {
    // Built-in false-positive filter: every violation found under
    // approximate hashing is replayed with an exhaustive store before
    // being reported.
    std::vector<Violation> confirmed;
    for (Violation& violation : result.violations) {
      ReplayResult replay =
          ReplayPath(model_, violation.steps, options.scheduling, options.por,
                     violation.property_id, violation.depth);
      if (replay.reproduced) {
        violation.replay_verified = true;
        confirmed.push_back(std::move(violation));
      }
    }
    result.violations = std::move(confirmed);
  }
  return result;
}

ReplayResult Checker::Replay(const ViolationArtifact& artifact) const {
  const model::Scheduling scheduling =
      artifact.manifest.scheduling == "concurrent"
          ? model::Scheduling::kConcurrent
          : model::Scheduling::kSequential;
  return ReplayPath(model_, artifact.steps, scheduling, artifact.manifest.por,
                    artifact.property_id, artifact.depth);
}

std::string FormatViolation(const Violation& violation) {
  std::string out;
  out += "violated property " + violation.property_id + " [" +
         violation.category + "]\n";
  out += "  safe state: " + violation.description + "\n";
  if (!violation.failure.empty()) {
    out += "  failure scenario: " + violation.failure + "\n";
  }
  if (!violation.apps.empty()) {
    out += "  involved apps: (";
    for (std::size_t i = 0; i < violation.apps.size(); ++i) {
      if (i > 0) out += ", ";
      out += violation.apps[i];
    }
    out += ")\n";
  }
  out += "  counter-example (" + std::to_string(violation.depth) +
         " external event(s), seen " + std::to_string(violation.occurrences) +
         "x" + (violation.replay_verified ? ", replay-verified" : "") +
         "):\n";
  for (const std::string& line : violation.TraceLines()) {
    out += "    " + line + "\n";
  }
  return out;
}

ViolationArtifact MakeArtifact(const Violation& violation,
                               const CheckOptions& options,
                               const std::string& deployment_name,
                               const std::string& config_hash,
                               std::uint64_t rng_seed) {
  ViolationArtifact artifact;
  RunManifest& manifest = artifact.manifest;
  const build::BuildInfo& info = build::GetBuildInfo();
  manifest.version = info.version;
  manifest.compiler = info.compiler;
  manifest.build_type = info.build_type;
  manifest.deployment = deployment_name;
  manifest.config_hash = config_hash;
  manifest.model_apps = violation.model_apps;
  manifest.rng_seed = rng_seed;
  manifest.request_id = options.request_id;
  manifest.max_events = options.max_events;
  manifest.scheduling = options.scheduling == model::Scheduling::kConcurrent
                            ? "concurrent"
                            : "sequential";
  manifest.model_failures = options.model_failures;
  manifest.store =
      options.store == StoreKind::kBitstate ? "bitstate" : "exhaustive";
  manifest.bitstate_bits =
      options.store == StoreKind::kBitstate ? options.bitstate_bits : 0;
  manifest.include_depth_in_state = options.include_depth_in_state;
  manifest.por = options.por;
  manifest.state_compression = options.state_compression;
  manifest.stop_at_first_violation = options.stop_at_first_violation;
  manifest.max_states = options.max_states;
  manifest.time_budget_seconds = options.time_budget_seconds;

  artifact.property_id = violation.property_id;
  artifact.category = violation.category;
  artifact.description = violation.description;
  artifact.property_kind = std::string(PropertyKindName(violation.kind));
  artifact.failure = violation.failure;
  artifact.detail = violation.detail;
  artifact.depth = violation.depth;
  artifact.occurrences = violation.occurrences;
  artifact.apps = violation.apps;
  artifact.steps = violation.steps;
  return artifact;
}

void ResetSaturationWarning() { g_saturation_warned.clear(); }

}  // namespace iotsan::checker
