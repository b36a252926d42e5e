#include "core/sanitizer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "cache/result_cache.hpp"
#include "corpus/corpus.hpp"
#include "ir/analyzer.hpp"
#include "model/system_model.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::core {

bool SanitizerReport::HasViolation(const std::string& property_id) const {
  for (const checker::Violation& v : violations) {
    if (v.property_id == property_id) return true;
  }
  return false;
}

std::vector<std::string> SanitizerReport::ViolatedPropertyIds() const {
  std::vector<std::string> ids;
  for (const checker::Violation& v : violations) ids.push_back(v.property_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Sanitizer::Sanitizer(config::Deployment deployment)
    : deployment_(std::move(deployment)) {}

void Sanitizer::AddAppSource(const std::string& name,
                             const std::string& source) {
  sources_[name] = source;
}

std::string Sanitizer::SourceFor(const std::string& app_name) const {
  auto it = sources_.find(app_name);
  if (it != sources_.end()) return it->second;
  if (const corpus::CorpusApp* app = corpus::FindApp(app_name)) {
    return app->source;
  }
  throw ConfigError("no source for app '" + app_name +
                    "' (not in the corpus; AddAppSource it)");
}

std::vector<ir::AnalyzedApp> Sanitizer::AnalyzeInstalledApps(
    SanitizerReport& report, std::vector<bool>& rejected,
    bool allow_dynamic_discovery, const std::string& request_id) const {
  telemetry::ScopedSpan span("analyze_apps");
  if (!request_id.empty()) span.Attr("request_id", request_id);
  std::vector<ir::AnalyzedApp> analyzed;
  rejected.assign(deployment_.apps.size(), false);
  for (std::size_t i = 0; i < deployment_.apps.size(); ++i) {
    const config::AppConfig& instance = deployment_.apps[i];
    ir::AnalyzedApp app;
    try {
      app = ir::AnalyzeSource(SourceFor(instance.app), instance.app);
    } catch (const Error& e) {
      if (auto* t = telemetry::Active()) ++t->pipeline.parse_failures;
      report.rejected_apps.push_back(instance.label + ": " + e.what());
      rejected[i] = true;
      analyzed.emplace_back();  // placeholder keeps indices aligned
      continue;
    }
    if (app.dynamic_device_discovery && !allow_dynamic_discovery) {
      report.rejected_apps.push_back(
          instance.label +
          ": uses dynamic device discovery (unsupported, rejected)");
      rejected[i] = true;
    }
    for (const std::string& problem : app.problems) {
      report.analysis_problems.push_back(problem);
    }
    analyzed.push_back(std::move(app));
  }
  return analyzed;
}

model::ModelOptions EffectiveModelOptions(const SanitizerOptions& options) {
  model::ModelOptions model_options = options.model;
  model_options.dynamic_discovery =
      model_options.dynamic_discovery || options.allow_dynamic_discovery;
  // Discovery apps can reach every device, so the permutation space must
  // cover every sensor, not just the subscribed ones.
  model_options.all_sensor_events =
      model_options.all_sensor_events || model_options.dynamic_discovery;
  return model_options;
}

std::vector<props::Property> CandidateProperties(
    const SanitizerOptions& options) {
  std::vector<props::Property> all_properties = props::BuiltinProperties();
  for (const props::Property& p : options.extra_properties) {
    all_properties.push_back(p);
  }
  return all_properties;
}

template <typename Into>
void MergeRunCounters(Into& into, const checker::CheckResult& run) {
  into.states_explored += run.states_explored;
  into.states_matched += run.states_matched;
  into.transitions += run.transitions;
  into.cascade_drains += run.cascade_drains;
  into.seconds += run.seconds;
  into.completed = into.completed && run.completed;
  into.store_fill_ratio = std::max(into.store_fill_ratio, run.store_fill_ratio);
  into.est_omission_probability =
      std::max(into.est_omission_probability, run.est_omission_probability);
  into.store_memory_bytes =
      std::max(into.store_memory_bytes, run.store_memory_bytes);
  into.store_entries += run.store_entries;
  into.compress_pool_entries += run.compress_pool_entries;
  into.compress_pool_bytes =
      std::max(into.compress_pool_bytes, run.compress_pool_bytes);
  into.compress_lookups += run.compress_lookups;
  into.compress_hits += run.compress_hits;
  into.store_bytes_per_state =
      std::max(into.store_bytes_per_state, run.store_bytes_per_state);
  if (into.depth_histogram.size() < run.depth_histogram.size()) {
    into.depth_histogram.resize(run.depth_histogram.size(), 0);
  }
  for (std::size_t i = 0; i < run.depth_histogram.size(); ++i) {
    into.depth_histogram[i] += run.depth_histogram[i];
  }
}

template void MergeRunCounters(SanitizerReport&, const checker::CheckResult&);
template void MergeRunCounters(checker::CheckResult&,
                               const checker::CheckResult&);

void MergeGroupResult(SanitizerReport& report, checker::CheckResult result) {
  MergeRunCounters(report, result);
  for (const checker::Violation& violation : result.violations) {
    report.per_set_violations.push_back(violation);
  }
  for (checker::Violation& violation : result.violations) {
    bool merged = false;
    for (checker::Violation& existing : report.violations) {
      if (existing.property_id == violation.property_id) {
        existing.occurrences += violation.occurrences;
        merged = true;
        break;
      }
    }
    if (!merged) report.violations.push_back(std::move(violation));
  }
}

void FinalizeReport(SanitizerReport& report) {
  std::sort(report.violations.begin(), report.violations.end(),
            [](const checker::Violation& a, const checker::Violation& b) {
              return a.property_id < b.property_id;
            });
}

std::vector<std::vector<std::size_t>> Sanitizer::PlanGroups(
    const SanitizerOptions& options, SanitizerReport& report) const {
  const std::string& request_id = options.check.request_id;
  std::vector<bool> rejected;
  const model::ModelOptions model_options = EffectiveModelOptions(options);
  std::vector<ir::AnalyzedApp> analyzed = AnalyzeInstalledApps(
      report, rejected, model_options.dynamic_discovery, request_id);

  // Index sets of app instances to check together.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < analyzed.size(); ++i) {
    if (!rejected[i]) accepted.push_back(i);
  }

  if (options.use_dependency_analysis) {
    telemetry::ScopedSpan deps_span("dependency_analysis");
    if (!request_id.empty()) deps_span.Attr("request_id", request_id);
    // Dependency analysis over accepted instances only.
    std::vector<ir::AnalyzedApp> view;
    for (std::size_t i : accepted) view.push_back(std::move(analyzed[i]));
    report.scale = deps::ComputeScaleStats(view);
    deps::DependencyGraph graph = deps::DependencyGraph::Build(view);
    std::vector<deps::RelatedSet> sets = deps::ComputeRelatedSets(graph);
    report.related_set_count = static_cast<int>(sets.size());
    deps_span.Attr("related_sets",
                   static_cast<std::int64_t>(sets.size()));
    std::set<std::size_t> covered;
    for (const deps::RelatedSet& set : sets) {
      std::vector<std::size_t> group;
      for (int app : set.apps) {
        group.push_back(accepted[static_cast<std::size_t>(app)]);
        covered.insert(accepted[static_cast<std::size_t>(app)]);
      }
      groups.push_back(std::move(group));
    }
    // Apps with no handlers (no vertices) still deserve a pass (their
    // lifecycle may still violate nothing, but invariants about their
    // devices can fire from environment events).
    for (std::size_t i : accepted) {
      if (!covered.count(i)) groups.push_back({i});
    }
  } else {
    if (!accepted.empty()) groups.push_back(accepted);
    report.related_set_count = static_cast<int>(groups.size());
  }
  return groups;
}

config::Deployment Sanitizer::SubDeployment(
    const std::vector<std::size_t>& group) const {
  config::Deployment sub = deployment_;
  sub.apps.clear();
  for (std::size_t i : group) sub.apps.push_back(deployment_.apps[i]);
  return sub;
}

cache::GroupKey Sanitizer::GroupKeyFor(const std::vector<std::size_t>& group,
                                       const SanitizerOptions& options,
                                       const std::string& version) const {
  const model::ModelOptions model_options = EffectiveModelOptions(options);
  const std::vector<props::Property> all_properties =
      CandidateProperties(options);
  const config::Deployment sub = SubDeployment(group);
  cache::GroupKeyInputs inputs;
  inputs.deployment = &sub;
  for (std::size_t i : group) {
    inputs.sources.emplace_back(deployment_.apps[i].app,
                                SourceFor(deployment_.apps[i].app));
  }
  inputs.properties = &all_properties;
  inputs.check = &options.check;
  inputs.model = &model_options;
  inputs.version = version;
  return cache::MakeGroupKey(inputs);
}

checker::CheckResult Sanitizer::CheckGroup(
    const std::vector<std::size_t>& group, const SanitizerOptions& options,
    const checker::CheckOptions& check, const cache::GroupKey* key) const {
  auto run = [&]() -> checker::CheckResult {
    std::vector<ir::AnalyzedApp> group_apps;
    for (std::size_t i : group) {
      // Re-analyze per group: AnalyzedApp is consumed by SystemModel and
      // related sets may overlap.
      group_apps.push_back(
          ir::AnalyzeSource(SourceFor(deployment_.apps[i].app),
                            deployment_.apps[i].app));
    }
    model::SystemModel model = [&] {
      telemetry::ScopedSpan build_span("model_build");
      build_span.Attr("apps", static_cast<std::int64_t>(group.size()));
      if (!check.request_id.empty()) {
        build_span.Attr("request_id", check.request_id);
      }
      if (auto* t = telemetry::Active()) ++t->pipeline.models_built;
      // All devices stay visible so role-based properties bind
      // identically in every group.
      return model::SystemModel(SubDeployment(group), std::move(group_apps),
                                EffectiveModelOptions(options));
    }();
    if (!options.extra_properties.empty()) {
      model.SelectProperties(CandidateProperties(options));
    }
    checker::Checker checker(model);
    return checker.Run(check);
  };

  if (options.cache == nullptr) return run();
  // A group's result is a pure function of its key: a hit skips the
  // re-analysis, model build, and search above.
  const unsigned effective_jobs =
      check.pool != nullptr ? static_cast<unsigned>(check.pool->jobs())
                            : util::ResolveJobs(check.jobs);
  if (key != nullptr) {
    return options.cache->FetchOrCompute(*key, effective_jobs, run);
  }
  return options.cache->FetchOrCompute(
      GroupKeyFor(group, options, options.cache->version()), effective_jobs,
      run);
}

SanitizerReport Sanitizer::Check(const SanitizerOptions& options) const {
  telemetry::ScopedSpan pipeline_span("pipeline");
  pipeline_span.Attr("system", deployment_.name);
  pipeline_span.Attr("apps",
                     static_cast<std::int64_t>(deployment_.apps.size()));
  const std::string& request_id = options.check.request_id;
  if (!request_id.empty()) pipeline_span.Attr("request_id", request_id);
  GroupRunner runner(*this, options);
  const std::optional<double> wall_seconds = runner.RunLocal();
  SanitizerReport report = runner.Merge();
  // Per-group seconds overlap under concurrency; report wall clock.
  if (wall_seconds) report.seconds = *wall_seconds;
  return report;
}

GroupRunner::GroupRunner(const Sanitizer& sanitizer,
                         const SanitizerOptions& options)
    : sanitizer_(sanitizer), options_(options) {
  groups_ = sanitizer_.PlanGroups(options_, report_);
  slots_.resize(groups_.size());
  key_version_ = options_.cache != nullptr ? options_.cache->version()
                                           : build::GetBuildInfo().version;
}

const cache::GroupKey& GroupRunner::Key(std::size_t g) {
  Slot& slot = slots_[g];
  if (!slot.key) {
    slot.key = sanitizer_.GroupKeyFor(groups_[g], options_, key_version_);
  }
  return *slot.key;
}

void GroupRunner::Fill(std::size_t g, checker::CheckResult result) {
  slots_[g].result = std::move(result);
  slots_[g].filled = true;
}

std::optional<double> GroupRunner::RunLocal() {
  std::vector<std::size_t> empty;
  for (std::size_t g = 0; g < slots_.size(); ++g) {
    if (!slots_[g].filled) empty.push_back(g);
  }

  // End-to-end group latency (cache hits included — that is what a
  // caller observes) and the search throughput computed groups achieved.
  // The group-progress tallies are shared across pool workers; the
  // callback itself runs under progress_mutex so subscribers see
  // groups_done advance monotonically.
  std::atomic<std::uint64_t> groups_done{0};
  std::atomic<std::uint64_t> group_states{0};
  std::mutex progress_mutex;
  auto run_group = [&](std::size_t g, const checker::CheckOptions& check) {
    const auto group_start = std::chrono::steady_clock::now();
    // Each task touches only its own slot, key included.
    const cache::GroupKey* key = options_.cache != nullptr ? &Key(g) : nullptr;
    Fill(g, sanitizer_.CheckGroup(groups_[g], options_, check, key));
    const checker::CheckResult& result = slots_[g].result;
    if (auto* t = telemetry::Active()) {
      t->search_hist.group_check_duration_us.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - group_start)
              .count()));
      if (result.seconds > 0) {
        t->search_hist.group_states_per_second.Record(
            static_cast<std::uint64_t>(
                static_cast<double>(result.states_explored) / result.seconds));
      }
    }
    if (options_.on_group_progress) {
      telemetry::GroupProgress progress;
      progress.groups_total = empty.size();
      progress.groups_done = groups_done.fetch_add(1) + 1;
      progress.states_explored =
          group_states.fetch_add(result.states_explored) +
          result.states_explored;
      progress.store_memory_bytes = result.store_memory_bytes;
      progress.seconds = result.seconds;
      std::lock_guard<std::mutex> lock(progress_mutex);
      options_.on_group_progress(progress);
    }
  };

  const unsigned jobs = util::ResolveJobs(options_.check.jobs);
  if (jobs <= 1 || empty.size() <= 1) {
    for (std::size_t g : empty) run_group(g, options_.check);
    return std::nullopt;
  }
  // Related sets are independent models, so they fan out across the
  // pool; each group's checker fans its root branches over the *same*
  // pool (nested ParallelFor), so one pool serves both layers.
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = options_.check.pool;
  checker::CheckOptions check = options_.check;
  if (pool == nullptr) {
    owned_pool = std::make_unique<util::ThreadPool>(jobs);
    pool = owned_pool.get();
    check.pool = pool;
    if (auto* t = telemetry::Active()) {
      ++t->parallel.pools_created;
      t->parallel.workers_spawned += pool->jobs() - 1;
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  pool->ParallelFor(empty.size(),
                    [&](std::size_t i) { run_group(empty[i], check); });
  const double wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - wall_start)
                                  .count();
  if (auto* t = telemetry::Active()) {
    t->parallel.group_tasks += empty.size();
    if (owned_pool != nullptr) {
      const util::ThreadPool::Stats stats = pool->stats();
      t->parallel.tasks_run += stats.tasks_run;
      t->parallel.tasks_stolen += stats.tasks_stolen;
    }
  }
  return wall_seconds;
}

SanitizerReport GroupRunner::Merge() {
  for (Slot& slot : slots_) {
    MergeGroupResult(report_, std::move(slot.result));
  }
  FinalizeReport(report_);
  return std::move(report_);
}

}  // namespace iotsan::core
