// Traced runs: the per-layer figures.
//
// A traced run replays its workload step by step from this file —
// plan -> key -> analyze -> build -> run -> merge -> render, and for
// fleet_edit parse body -> put -> delta — recording a span (name,
// start, end, parent, request id) around every call into a layer.  The
// stepwise report must equal the one-call report byte for byte (wall
// time aside), so the trace measures the same program.  Checker::Run
// cannot be opened from outside, so its inner costs come from timing
// the checker's public building blocks on states sampled by seeded
// walks over the workload's own models (Sampler below).
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "fleet.hpp"
#include "cache/fingerprint.hpp"
#include "checker/checker.hpp"
#include "checker/state_store.hpp"
#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"
#include "dsl/parser.hpp"
#include "ir/analyzer.hpp"
#include "model/engine.hpp"
#include "model/state_view.hpp"
#include "model/system_model.hpp"
#include "props/eval.hpp"
#include "registry/delta.hpp"
#include "registry/deployment_store.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/http_client.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace iotsan;

namespace {

// ---- spans -------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;
    std::uint64_t request = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      id_ = static_cast<int>(tracer_.spans_.size());
      Span span;
      span.name = name;
      span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
      span.request = tracer_.request_;
      span.start = Clock::now();
      tracer_.spans_.push_back(std::move(span));
      tracer_.open_.push_back(id_);
    }
    ~Scope() {
      tracer_.spans_[static_cast<std::size_t>(id_)].end = Clock::now();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_ = 0;
  };

  void SetRequest(std::uint64_t request) { request_ = request; }

  struct Total {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;  // minus the time child spans cover
  };
  std::map<std::string, Total> Totals() const {
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<std::size_t>(span.parent)] += Micros(span);
      }
    }
    std::map<std::string, Total> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = totals[spans_[i].name];
      ++t.count;
      t.total_us += Micros(spans_[i]);
      t.self_us += Micros(spans_[i]) - child_us[i];
    }
    return totals;
  }

  /// One JSON object per span, written once the run is over.
  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Object line;
      line["id"] = static_cast<std::int64_t>(i);
      line["name"] = s.name;
      line["parent"] = s.parent;
      line["request"] = static_cast<std::int64_t>(s.request);
      line["start_us"] = Micros(origin_, s.start);
      line["end_us"] = Micros(origin_, s.end);
      out << json::Value(std::move(line)).Dump(0) << "\n";
    }
  }

 private:
  static double Micros(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  }
  static double Micros(const Span& span) {
    return Micros(span.start, span.end);
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t request_ = 0;
};

using Scope = Tracer::Scope;

/// Results of timed calls are folded in here so the calls stay
/// observable to the optimizer.
std::size_t g_sink = 0;

// ---- per-layer accumulation --------------------------------------------------

/// Everything a traced run learns beyond its spans.
struct Layers {
  std::vector<std::pair<std::string, std::string>> analyzed_sources;  // name, source
  std::vector<double> key_bytes;
  std::vector<double> state_bytes;
  std::uint64_t groups = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t states_matched = 0;
  std::uint64_t violations = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t store_entries = 0;
  std::uint64_t checks = 0;
};

std::string SourceOf(const core::CheckRequest& request,
                     const std::string& app) {
  auto it = request.extra_sources.find(app);
  if (it != request.extra_sources.end()) return it->second;
  if (const corpus::CorpusApp* found = corpus::FindApp(app)) {
    return found->source;
  }
  throw Error("no source for app " + app);
}

core::SanitizerOptions OptionsFor(const core::CheckRequest& request) {
  core::SanitizerOptions options = core::MakeCheckOptions(request.options, {});
  options.extra_properties = request.extra_properties;
  return options;
}

config::Deployment GroupDeployment(const config::Deployment& deployment,
                                   const std::vector<std::size_t>& group) {
  // All devices stay visible, as in Sanitizer::CheckGroup.
  config::Deployment sub = deployment;
  sub.apps.clear();
  for (std::size_t i : group) sub.apps.push_back(deployment.apps[i]);
  return sub;
}

model::SystemModel BuildModel(const core::CheckRequest& request,
                              const core::SanitizerOptions& options,
                              const std::vector<std::size_t>& group,
                              std::vector<ir::AnalyzedApp> apps) {
  model::SystemModel model(GroupDeployment(request.deployment, group),
                           std::move(apps),
                           core::EffectiveModelOptions(options));
  if (!options.extra_properties.empty()) {
    model.SelectProperties(core::CandidateProperties(options));
  }
  return model;
}

/// BuildModel after analyzing the group's apps (untimed set-up of the
/// replay and sampling steps).
model::SystemModel AnalyzeAndBuild(const core::CheckRequest& request,
                                   const core::SanitizerOptions& options,
                                   const std::vector<std::size_t>& group) {
  std::vector<ir::AnalyzedApp> apps;
  for (std::size_t i : group) {
    const std::string& name = request.deployment.apps[i].app;
    apps.push_back(ir::AnalyzeSource(SourceOf(request, name), name));
  }
  return BuildModel(request, options, group, std::move(apps));
}

/// A group's retained result keyed by its fingerprint text.
using Retained = std::map<std::string, checker::CheckResult>;

struct StepwiseRun {
  core::SanitizerReport report;
  std::string text;
  Retained results;  // this run's groups, for the next delta
  std::uint64_t reused = 0;
  /// Groups that produced violations (kept for replay).
  std::vector<std::pair<std::vector<std::size_t>,
                        std::vector<checker::Violation>>> violating;
};

/// The check pipeline of Sanitizer::Check (serial dispatch) and, when
/// `prior` is given, of registry::RunRegistryCheck, one layer call at a
/// time.
StepwiseRun RunStepwise(Tracer& tracer, Layers& layers,
                        const core::CheckRequest& request,
                        const Retained* prior) {
  Scope check_span(tracer, "check");
  StepwiseRun out;
  core::Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  const core::SanitizerOptions options = OptionsFor(request);
  std::vector<std::vector<std::size_t>> groups;
  {
    Scope s(tracer, "deps.plan");
    groups = sanitizer.PlanGroups(options, out.report);
  }
  layers.groups += groups.size();
  ++layers.checks;
  const std::string version = build::GetBuildInfo().version;
  std::vector<cache::GroupKey> keys(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Scope s(tracer, "cache.group_key");
    keys[g] = sanitizer.GroupKeyFor(groups[g], options, version);
  }
  std::vector<checker::CheckResult> results(groups.size());
  std::vector<bool> reused(groups.size(), false);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    layers.key_bytes.push_back(static_cast<double>(keys[g].text.size()));
    if (prior != nullptr) {
      auto it = prior->find(keys[g].text);
      if (it != prior->end()) {
        results[g] = it->second;
        reused[g] = true;
        ++out.reused;
        continue;
      }
    }
    Scope group_span(tracer, "group");
    std::vector<ir::AnalyzedApp> apps;
    for (std::size_t i : groups[g]) {
      const std::string& name = request.deployment.apps[i].app;
      std::string source = SourceOf(request, name);
      {
        Scope s(tracer, "ir.analyze");
        apps.push_back(ir::AnalyzeSource(source, name));
      }
      layers.analyzed_sources.emplace_back(name, std::move(source));
    }
    std::optional<model::SystemModel> model;
    {
      Scope s(tracer, "model.build");
      model.emplace(BuildModel(request, options, groups[g], std::move(apps)));
    }
    {
      Scope s(tracer, "checker.run");
      results[g] = checker::Checker(*model).Run(options.check);
    }
    layers.state_bytes.push_back(
        static_cast<double>(model->MakeInitialState().Serialize().size()));
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const checker::CheckResult& r = results[g];
    out.results[keys[g].text] = r;
    if (reused[g]) continue;  // the checker did no work for it here
    layers.states_explored += r.states_explored;
    layers.transitions += r.transitions;
    layers.states_matched += r.states_matched;
    layers.violations += r.violations.size();
    layers.store_bytes += r.store_memory_bytes;
    layers.store_entries += r.store_entries;
    if (!r.violations.empty()) out.violating.push_back({groups[g], r.violations});
  }
  {
    Scope s(tracer, "core.merge");
    for (checker::CheckResult& r : results) {
      core::MergeGroupResult(out.report, std::move(r));
    }
    core::FinalizeReport(out.report);
  }
  {
    Scope s(tracer, "core.render");
    out.text = core::RenderCheckReport(request.deployment, out.report);
    const std::string doc =
        core::CheckReportToJson(request.deployment, out.report).Dump(0);
    if (doc.empty()) throw Error("empty JSON report");
  }
  return out;
}

// ---- checker building blocks on sampled states ---------------------------------

/// Times CascadeEngine::EnabledEvents/Apply, SystemState::SerializeTo,
/// ExhaustiveStore::TestAndInsert and props::EvalPropertyExpr over states
/// reached by seeded random walks from each model's initial state.  Each
/// block is timed as one batch over all samples, so clock reads do not
/// dominate sub-microsecond calls.
class Sampler {
 public:
  explicit Sampler(std::uint64_t seed) : rng_(seed) {}

  /// Walks `walks` paths of up to `depth` events over `model`.
  void Sample(const model::SystemModel& model, int depth, bool failures,
              int walks) {
    const model::CascadeEngine engine(model);
    const auto& scenarios = failures ? model::FailureScenario::AllScenarios()
                                     : model::FailureScenario::NoFailure();
    std::vector<model::SystemState> states;
    std::vector<Step> steps;
    for (int w = 0; w < walks; ++w) {
      model::SystemState state = model.MakeInitialState();
      for (int d = 0; d < depth; ++d) {
        const std::vector<model::ExternalEvent> events =
            engine.EnabledEvents(state);
        if (events.empty()) break;
        Step step;
        step.from = states.size();
        step.event = events[rng_.NextBelow(events.size())];
        step.failure = scenarios[rng_.NextBelow(scenarios.size())];
        states.push_back(state);
        std::vector<model::StepOutcome> outcomes = engine.Apply(
            state, step.event, step.failure, model::Scheduling::kSequential);
        if (outcomes.empty()) break;
        state = std::move(outcomes.front().state);
        steps.push_back(step);
      }
      states.push_back(std::move(state));
    }
    Measure(model, engine, states, steps);
  }

  /// Synthetic artifacts from fresh walks, for workloads whose checks
  /// keep no counter-example: replaying them times the guided
  /// re-execution Checker::Replay performs.
  std::vector<checker::ViolationArtifact> WalkArtifacts(
      const model::SystemModel& model, int depth, int walks) {
    const model::CascadeEngine engine(model);
    std::vector<checker::ViolationArtifact> artifacts;
    for (int w = 0; w < walks; ++w) {
      checker::ViolationArtifact artifact;
      artifact.property_id = "P39";
      model::SystemState state = model.MakeInitialState();
      for (int d = 0; d < depth; ++d) {
        const std::vector<model::ExternalEvent> events =
            engine.EnabledEvents(state);
        if (events.empty()) break;
        const model::ExternalEvent event = events[rng_.NextBelow(events.size())];
        std::vector<model::StepOutcome> outcomes =
            engine.Apply(state, event, model::FailureScenario::NoFailure()[0],
                         model::Scheduling::kSequential);
        if (outcomes.empty()) break;
        artifact.steps.push_back(ToTraceStep(model, event, d));
        state = std::move(outcomes.front().state);
      }
      artifact.depth = static_cast<int>(artifact.steps.size());
      artifacts.push_back(std::move(artifact));
    }
    return artifacts;
  }

  void Report(RunResult& out) const {
    auto per_call = [](double ns, std::uint64_t calls) {
      return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
    };
    out.metrics["model.apply_us"] =
        Metric{per_call(apply_ns_, apply_calls_) / 1e3, "us", apply_calls_};
    out.metrics["model.enabled_events"] =
        Metric{per_call(static_cast<double>(enabled_total_), enabled_calls_),
               "count", enabled_calls_};
    out.metrics["checker.serialize_ns"] = Metric{
        per_call(serialize_ns_, serialize_calls_), "ns", serialize_calls_};
    out.metrics["checker.store_probe_ns"] =
        Metric{per_call(probe_ns_, probe_calls_), "ns", probe_calls_};
    out.metrics["props.eval_ns"] =
        Metric{per_call(eval_ns_, eval_calls_), "ns", eval_calls_};
  }

 private:
  struct Step {
    std::size_t from = 0;
    model::ExternalEvent event;
    model::FailureScenario failure;
  };

  static double Nanos(Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  static checker::TraceStep ToTraceStep(const model::SystemModel& model,
                                        const model::ExternalEvent& event,
                                        int index) {
    checker::TraceStep step;
    step.index = index + 1;
    using Kind = model::ExternalEventSpec::Kind;
    switch (event.kind) {
      case Kind::kSensor: {
        const devices::Device& device =
            model.devices()[static_cast<std::size_t>(event.device)];
        const devices::AttributeSpec& attr =
            *device.attributes()[static_cast<std::size_t>(event.attribute)];
        step.kind = "sensor";
        step.device = device.id();
        step.attribute = attr.name;
        step.value = attr.ValueName(event.value);
        break;
      }
      case Kind::kAppTouch:
        step.kind = "app_touch";
        step.app =
            model.apps()[static_cast<std::size_t>(event.app)].config.label;
        break;
      case Kind::kTimerTick:
        step.kind = "timer";
        break;
      case Kind::kUserModeChange:
        step.kind = "user_mode";
        step.value = model.modes()[static_cast<std::size_t>(event.value)];
        break;
    }
    return step;
  }

  void Measure(const model::SystemModel& model,
               const model::CascadeEngine& engine,
               const std::vector<model::SystemState>& states,
               const std::vector<Step>& steps) {
    for (const model::SystemState& state : states) {
      enabled_total_ += engine.EnabledEvents(state).size();
    }
    enabled_calls_ += states.size();
    Clock::time_point t = Clock::now();
    std::size_t sink = 0;
    for (const Step& step : steps) {
      sink += engine.Apply(states[step.from], step.event, step.failure,
                           model::Scheduling::kSequential)
                  .size();
    }
    apply_ns_ += Nanos(t);
    apply_calls_ += steps.size();

    std::vector<std::uint8_t> buffer;
    t = Clock::now();
    for (const model::SystemState& state : states) {
      buffer.clear();
      state.SerializeTo(buffer);
      sink += buffer.size();
    }
    serialize_ns_ += Nanos(t);
    serialize_calls_ += states.size();

    std::vector<std::vector<std::uint8_t>> keys;
    keys.reserve(states.size());
    for (const model::SystemState& state : states) {
      keys.push_back(state.Serialize());
    }
    checker::ExhaustiveStore store;
    t = Clock::now();
    for (const std::vector<std::uint8_t>& key : keys) {
      sink += store.TestAndInsert(key) ? 1 : 0;
    }
    probe_ns_ += Nanos(t);
    probe_calls_ += keys.size();

    // The model's active invariants; a model with none (no device
    // carries a role) evaluates every built-in invariant instead.
    std::vector<const dsl::Expr*> exprs;
    for (const props::Property& p : model.active_properties()) {
      if (p.kind == props::PropertyKind::kInvariant) {
        exprs.push_back(&p.ParsedExpression());
      }
    }
    if (exprs.empty()) {
      for (const props::Property& p : props::BuiltinProperties()) {
        if (p.kind == props::PropertyKind::kInvariant) {
          exprs.push_back(&p.ParsedExpression());
        }
      }
    }
    t = Clock::now();
    for (const model::SystemState& state : states) {
      const model::ModelStateView view(model, state);
      for (const dsl::Expr* expr : exprs) {
        sink += props::EvalPropertyExpr(*expr, view) ? 1 : 0;
      }
    }
    eval_ns_ += Nanos(t);
    eval_calls_ += states.size() * exprs.size();
    g_sink += sink;
  }

  Rng rng_;
  double apply_ns_ = 0, serialize_ns_ = 0, probe_ns_ = 0, eval_ns_ = 0;
  std::uint64_t apply_calls_ = 0, serialize_calls_ = 0, probe_calls_ = 0,
                eval_calls_ = 0, enabled_calls_ = 0, enabled_total_ = 0;
};

// ---- shared reporting --------------------------------------------------------

double MeanUs(const std::map<std::string, Tracer::Total>& totals,
              const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0
             : it->second.total_us / static_cast<double>(it->second.count);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// dsl.parse_us and ir.analyze_us (self time: AnalyzeSource minus the
/// ParseApp it contains), from the sources the pipeline analyzed.
void ReportParseAnalyze(RunResult& out, const Layers& layers,
                        const std::map<std::string, Tracer::Total>& totals) {
  const Clock::time_point t = Clock::now();
  for (const auto& [name, source] : layers.analyzed_sources) {
    g_sink += dsl::ParseApp(source, name).inputs.size();
  }
  const double calls = static_cast<double>(layers.analyzed_sources.size());
  const double parse_us = calls > 0 ? SecondsSince(t) * 1e6 / calls : 0;
  out.metrics["dsl.parse_us"] =
      Metric{parse_us, "us", layers.analyzed_sources.size()};
  out.metrics["ir.analyze_us"] = Metric{MeanUs(totals, "ir.analyze") - parse_us,
                                        "us", layers.analyzed_sources.size()};
}

void ReportPipeline(RunResult& out, const Layers& layers,
                    const std::map<std::string, Tracer::Total>& totals) {
  ReportParseAnalyze(out, layers, totals);
  auto count = [&](const char* name, double value) {
    out.metrics[name] = Metric{value, "count", 1};
  };
  const auto checks = static_cast<double>(layers.checks);
  auto total_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us;
  };
  out.metrics["deps.plan_ms"] =
      Metric{MeanUs(totals, "deps.plan") / 1e3, "ms", layers.checks};
  count("deps.groups", static_cast<double>(layers.groups));
  out.metrics["cache.group_key_us"] =
      Metric{MeanUs(totals, "cache.group_key"), "us", layers.groups};
  out.metrics["cache.key_input_bytes"] =
      Metric{Mean(layers.key_bytes), "bytes", layers.key_bytes.size()};
  out.metrics["model.build_us"] =
      Metric{MeanUs(totals, "model.build"), "us", layers.state_bytes.size()};
  out.metrics["model.state_bytes"] =
      Metric{Mean(layers.state_bytes), "bytes", layers.state_bytes.size()};
  out.metrics["checker.run_ms"] =
      Metric{MeanUs(totals, "checker.run") / 1e3, "ms",
             layers.state_bytes.size()};
  count("checker.states_explored", static_cast<double>(layers.states_explored));
  count("checker.transitions", static_cast<double>(layers.transitions));
  count("checker.states_matched", static_cast<double>(layers.states_matched));
  out.metrics["checker.match_ratio"] = Metric{
      layers.transitions > 0 ? static_cast<double>(layers.states_matched) /
                                   static_cast<double>(layers.transitions)
                             : 0,
      "ratio", layers.transitions};
  out.metrics["checker.ns_per_transition"] = Metric{
      layers.transitions > 0
          ? total_us("checker.run") * 1e3 /
                static_cast<double>(layers.transitions)
          : 0,
      "ns", layers.transitions};
  out.metrics["checker.store_bytes_per_state"] = Metric{
      layers.store_entries > 0 ? static_cast<double>(layers.store_bytes) /
                                     static_cast<double>(layers.store_entries)
                               : 0,
      "bytes", layers.store_entries};
  count("checker.violations", static_cast<double>(layers.violations));
  out.metrics["core.merge_us"] =
      Metric{checks > 0 ? total_us("core.merge") / checks : 0, "us",
             layers.checks};
  out.metrics["core.render_us"] =
      Metric{checks > 0 ? total_us("core.render") / checks : 0, "us",
             layers.checks};
}

/// checker.replay_ms: Checker::Replay per kept artifact, each
/// violating group's model rebuilt first (untimed).
class ReplayTimer {
 public:
  void Add(RunResult& out, const core::CheckRequest& request,
           const StepwiseRun& run, int repeats) {
    const core::SanitizerOptions options = OptionsFor(request);
    const std::string config_hash =
        std::to_string(config::DeploymentFingerprint(request.deployment));
    for (const auto& [group, violations] : run.violating) {
      const model::SystemModel model =
          AnalyzeAndBuild(request, options, group);
      const checker::Checker checker(model);
      for (const checker::Violation& v : violations) {
        const checker::ViolationArtifact artifact = checker::MakeArtifact(
            v, options.check, request.deployment.name, config_hash);
        for (int r = 0; r < repeats; ++r) {
          const Clock::time_point t = Clock::now();
          const checker::ReplayResult replay = checker.Replay(artifact);
          ms_ += MillisSince(t);
          ++replays_;
          ++out.attempted;
          if (!replay.reproduced) {
            out.Fail("replay did not reproduce " + v.property_id + " in " +
                     request.deployment.name);
          }
        }
      }
    }
  }
  void Report(RunResult& out) const {
    out.metrics["checker.replay_ms"] = Metric{
        replays_ > 0 ? ms_ / static_cast<double>(replays_) : 0, "ms",
        replays_};
  }

 private:
  double ms_ = 0;
  std::uint64_t replays_ = 0;
};

/// Replays walk artifacts when the workload keeps no counter-example.
void ReportWalkReplays(RunResult& out, Sampler& sampler,
                       const model::SystemModel& model, int depth) {
  const checker::Checker checker(model);
  const std::vector<checker::ViolationArtifact> artifacts =
      sampler.WalkArtifacts(model, depth, 200);
  const Clock::time_point t = Clock::now();
  for (const checker::ViolationArtifact& artifact : artifacts) {
    checker.Replay(artifact);
  }
  out.metrics["checker.replay_ms"] =
      Metric{MillisSince(t) / static_cast<double>(artifacts.size()), "ms",
             artifacts.size()};
}

/// registry.put_ms and registry.delta_ms for workloads that do not go
/// through the registry: DeploymentStore::Put of each checked
/// deployment, then RunRegistryCheck against a record of the stepwise
/// results (every group unchanged, so all are reused).
void ReportRegistry(RunResult& out, const Args& args,
                    const std::vector<const core::CheckRequest*>& requests,
                    const std::vector<const Retained*>& records) {
  const std::string dir = args.work_dir + "/registry-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  registry::DeploymentStore store(registry::StoreConfig{dir, 64});
  double put_ms = 0, delta_ms = 0;
  std::uint64_t reused = 0, total = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    registry::StoredDeployment stored;
    stored.id = "d" + std::to_string(i);
    stored.deployment = requests[i]->deployment;
    stored.app_sources = requests[i]->extra_sources;
    Clock::time_point t = Clock::now();
    store.Put(std::move(stored));
    put_ms += MillisSince(t);

    registry::CheckRecord record;
    record.cache_version = build::GetBuildInfo().version;
    for (const auto& [key, result] : *records[i]) {
      cache::GroupKey group_key;
      group_key.text = key;
      record.groups.push_back({group_key, result});
    }
    t = Clock::now();
    const registry::RegistryCheckOutcome outcome =
        registry::RunRegistryCheck(*requests[i], {}, &record);
    delta_ms += MillisSince(t);
    reused += outcome.groups_reused;
    total += outcome.groups_total;
  }
  std::filesystem::remove_all(dir);
  const double n = static_cast<double>(requests.size());
  out.metrics["registry.put_ms"] = Metric{put_ms / n, "ms", requests.size()};
  out.metrics["registry.delta_ms"] = Metric{delta_ms / n, "ms", requests.size()};
  out.metrics["registry.groups_reused_ratio"] = Metric{
      total > 0 ? static_cast<double>(reused) / static_cast<double>(total) : 0,
      "ratio", total};
}

/// server.parse_request_us: the PUT handler's body parse (JSON, then
/// config::ParseDeployment) on each deployment's request envelope.
void ReportParseRequest(RunResult& out,
                        const std::vector<std::string>& bodies) {
  const Clock::time_point t = Clock::now();
  for (const std::string& body : bodies) {
    g_sink += config::ParseDeployment(json::Parse(body).At("deployment"))
                .apps.size();
  }
  out.metrics["server.parse_request_us"] =
      Metric{SecondsSince(t) * 1e6 / static_cast<double>(bodies.size()), "us",
             bodies.size()};
}

std::string EnvelopeOf(const config::Deployment& deployment) {
  json::Object doc;
  doc["schema"] = server::kRequestSchema;
  doc["deployment"] = config::DeploymentToJson(deployment);
  return json::Value(std::move(doc)).Dump(0);
}

/// p95 of the access log's request latency and queue wait (exact
/// microseconds; the telemetry histograms only keep bucket bounds).
void ReportAccessLog(RunResult& out, const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<double> latency_ms, queue_ms;
  while (std::getline(in, line)) {
    const json::Value entry = json::Parse(line);
    latency_ms.push_back(entry.GetNumber("latency_us") / 1e3);
    queue_ms.push_back(entry.GetNumber("queue_us") / 1e3);
  }
  if (latency_ms.empty()) throw Error("access log " + path + " is empty");
  out.metrics["server.request_ms_p95"] =
      Metric{Quantile(latency_ms, 0.95), "ms", latency_ms.size()};
  out.metrics["server.queue_wait_ms_p95"] =
      Metric{Quantile(queue_ms, 0.95), "ms", queue_ms.size()};
}

/// Serves each body through an in-process server (PUT, then GET) for
/// workloads whose verdicts do not come over HTTP: the server layer's
/// request and queue latency on this workload's documents.
void ReportServerRoundTrips(RunResult& out, const Args& args,
                            const std::vector<std::string>& bodies) {
  BenchServer server(args, /*with_access_log=*/true);
  const int rounds = std::max<int>(1, 40 / static_cast<int>(bodies.size()));
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const std::string path = "/v1/deployments/d" + std::to_string(i);
      if (util::HttpCall("127.0.0.1", server.port(), "PUT", path, bodies[i])
                  .status / 100 != 2 ||
          util::HttpCall("127.0.0.1", server.port(), "GET", path).status !=
              200) {
        out.Fail("server round trip failed");
      }
    }
  }
  server.Stop();
  ReportAccessLog(out, server.access_log());
}

/// util.jobs4_speedup and util.pool_tasks_stolen: the one-call check at
/// four lanes against one lane (states per second of search time).
void ReportParallel(RunResult& out, double serial_states_per_s,
                    double jobs4_states_per_s, std::uint64_t stolen) {
  out.metrics["util.jobs4_speedup"] = Metric{
      serial_states_per_s > 0 ? jobs4_states_per_s / serial_states_per_s : 0,
      "ratio", 1};
  out.metrics["util.pool_tasks_stolen"] =
      Metric{static_cast<double>(stolen), "count", 1};
}

std::uint64_t StolenSoFar() {
  return telemetry::Active()->parallel.tasks_stolen.load();
}

void ReportOverhead(RunResult& out, double stepwise_s, double onecall_s) {
  out.metrics["bench.trace_overhead_pct"] =
      Metric{100.0 * (stepwise_s / onecall_s - 1.0), "%", 1};
}

/// Prints where the stepwise replay spent its time (self = minus child
/// spans) and writes the spans out.
void Finish(const Args& args, const Tracer& tracer) {
  std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, total] : tracer.Totals()) {
    std::printf("%-24s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(total.count),
                total.total_us / 1e3, total.self_us / 1e3);
  }
  tracer.Write(args.work_dir + "/trace-" + args.workload + ".jsonl");
}

}  // namespace

// ---- table8_* ------------------------------------------------------------------

RunResult TraceTable8(const Args& args) {
  RunResult out;
  const core::CheckRequest request = Table8Request(kTable8Events, 1);
  core::RunCheck(Table8Request(kTable8WarmUpEvents, 1));
  MarkSetupDone();
  Tracer tracer;
  Layers layers;

  // One-call reference, then the same check on four lanes (the parallel
  // path: work-stealing pool, sharded store, shared telemetry atomics),
  // then step by step.
  ++out.attempted;
  Clock::time_point t = Clock::now();
  const core::CheckResponse onecall = core::RunCheck(request);
  const double onecall_s = SecondsSince(t);
  const Clock::time_point onecall_end = Clock::now();

  const core::CheckRequest parallel_request =
      Table8Request(kTable8Events, Jobs4());
  const std::uint64_t stolen_before = StolenSoFar();
  const double gap_ms = MillisSince(onecall_end);
  t = Clock::now();
  const core::CheckResponse parallel = core::RunCheck(parallel_request);
  const double parallel_s = SecondsSince(t);
  const std::uint64_t stolen = StolenSoFar() - stolen_before;
  ++out.attempted;
  if (parallel.report.states_explored != onecall.report.states_explored ||
      WithoutSeconds(parallel.text) != WithoutSeconds(onecall.text)) {
    out.Fail("table8: the four-lane report differs from the serial one");
  }
  const double states = static_cast<double>(onecall.report.states_explored);
  ReportParallel(out, states / onecall_s, states / parallel_s, stolen);
  // Closed loop: the generator is never late; its lateness is the
  // harness's own gap between one verdict and the next.
  out.metrics["bench.gen_late_ms_p95"] = Metric{gap_ms, "ms", 1};

  t = Clock::now();
  const StepwiseRun stepwise = RunStepwise(tracer, layers, request, nullptr);
  const double stepwise_s = SecondsSince(t);
  ++out.attempted;
  if (WithoutSeconds(stepwise.text) != WithoutSeconds(onecall.text)) {
    out.Fail("table8: stepwise report differs from the one-call report");
  }
  ++out.attempted;
  if (!onecall.report.violations.empty()) {
    out.Fail("table8: verdict differs from the reference (no violation)");
  }
  ReportOverhead(out, stepwise_s, onecall_s);

  const auto totals = tracer.Totals();
  ReportPipeline(out, layers, totals);

  const core::SanitizerOptions options = OptionsFor(request);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < request.deployment.apps.size(); ++i) {
    all.push_back(i);
  }
  const model::SystemModel model = AnalyzeAndBuild(request, options, all);
  Sampler sampler(args.seed);
  sampler.Sample(model, kTable8Events, false, 2500);
  sampler.Report(out);
  ReportWalkReplays(out, sampler, model, kTable8Events);

  ReportRegistry(out, args, {&request}, {&stepwise.results});
  const std::vector<std::string> bodies = {EnvelopeOf(request.deployment)};
  ReportParseRequest(out, bodies);
  ReportServerRoundTrips(out, args, bodies);
  Finish(args, tracer);
  return out;
}

// ---- paper76_audit -------------------------------------------------------------

RunResult TracePaper76(const Args& args) {
  RunResult out;
  const std::vector<AuditCase> cases = Paper76Cases(kVolunteerSeed);
  const Verdicts reference =
      LoadPaper76Reference(args.reference_dir, kVolunteerSeed);
  WarmUp(cases);
  MarkSetupDone();
  Tracer tracer;
  Layers layers;

  // One-call pass; the gap between consecutive verdicts is the closed
  // loop's generator lateness.
  std::vector<std::string> onecall_text;
  std::vector<double> gap_ms;
  std::uint64_t serial_states = 0;
  Clock::time_point t = Clock::now();
  Clock::time_point last_end = t;
  for (const AuditCase& c : cases) {
    gap_ms.push_back(MillisSince(last_end));
    const core::CheckResponse response = core::RunCheck(c.request);
    last_end = Clock::now();
    ++out.attempted;
    if (response.report.ViolatedPropertyIds() != reference.at(c.name)) {
      out.Fail("paper76: verdict differs from the reference for " + c.name);
    }
    serial_states += response.report.states_explored;
    onecall_text.push_back(response.text);
  }
  const double onecall_s = SecondsSince(t);
  out.metrics["bench.gen_late_ms_p95"] =
      Metric{Quantile(gap_ms, 0.95), "ms", gap_ms.size()};

  // The same pass step by step.
  std::vector<StepwiseRun> runs;
  t = Clock::now();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    tracer.SetRequest(k + 1);
    runs.push_back(RunStepwise(tracer, layers, cases[k].request, nullptr));
  }
  const double stepwise_s = SecondsSince(t);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    ++out.attempted;
    if (WithoutSeconds(runs[k].text) != WithoutSeconds(onecall_text[k])) {
      out.Fail("paper76: stepwise report differs for " + cases[k].name);
    }
  }
  ReportOverhead(out, stepwise_s, onecall_s);

  // The pass again at four lanes.
  std::uint64_t stolen = StolenSoFar();
  t = Clock::now();
  for (const AuditCase& c : cases) {
    core::CheckRequest parallel = c.request;
    parallel.options.jobs = Jobs4();
    ++out.attempted;
    if (core::RunCheck(parallel).report.states_explored == 0) {
      out.Fail("paper76: empty search at four lanes for " + c.name);
    }
  }
  const double jobs4_s = SecondsSince(t);
  stolen = StolenSoFar() - stolen;
  ReportParallel(out, serial_states / onecall_s, serial_states / jobs4_s,
                 stolen);

  // The held-out volunteer draw against its recorded verdicts.
  const Verdicts held_out =
      LoadPaper76Reference(args.reference_dir, kHeldOutSeed);
  for (const AuditCase& c : Paper76Cases(kHeldOutSeed)) {
    ++out.attempted;
    auto it = held_out.find(c.name);
    if (it == held_out.end() ||
        core::RunCheck(c.request).report.ViolatedPropertyIds() != it->second) {
      out.Fail("paper76: held-out verdict differs for " + c.name);
    }
  }

  ReportPipeline(out, layers, tracer.Totals());
  ReplayTimer replays;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    replays.Add(out, cases[k].request, runs[k], 1);
  }
  replays.Report(out);

  // Building blocks on each system's largest related set.
  Sampler sampler(args.seed);
  for (const AuditCase& c : cases) {
    core::Sanitizer sanitizer(c.request.deployment);
    for (const auto& [name, source] : c.request.extra_sources) {
      sanitizer.AddAppSource(name, source);
    }
    const core::SanitizerOptions options = OptionsFor(c.request);
    core::SanitizerReport scratch;
    std::vector<std::size_t> largest;
    for (std::vector<std::size_t>& group :
         sanitizer.PlanGroups(options, scratch)) {
      if (group.size() > largest.size()) largest = std::move(group);
    }
    sampler.Sample(AnalyzeAndBuild(c.request, options, largest),
                   c.request.options.events, c.request.options.failures, 40);
  }
  sampler.Report(out);

  std::vector<const core::CheckRequest*> requests;
  std::vector<const Retained*> records;
  std::vector<std::string> bodies;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    requests.push_back(&cases[k].request);
    records.push_back(&runs[k].results);
    bodies.push_back(EnvelopeOf(cases[k].request.deployment));
  }
  ReportRegistry(out, args, requests, records);
  ReportParseRequest(out, bodies);
  ReportServerRoundTrips(out, args, bodies);
  Finish(args, tracer);
  return out;
}

// ---- fleet_edit ----------------------------------------------------------------

RunResult TraceFleetEdit(const Args& args) {
  RunResult out;
  if (args.fleet_rate <= 0) throw Error("fleet_edit needs --fleet-rate > 0");
  EditStream edits(args.seed);
  BenchServer server(args, /*with_access_log=*/true);
  ColdStart(server, edits);
  MarkSetupDone();
  Tracer tracer;
  Layers layers;

  // The stepwise delta path, off the server: parse body -> put -> plan
  // -> keys -> re-run dirty groups -> merge -> render, next to the
  // one-call registry::RunRegistryCheck on the same revision.
  const std::string store_dir =
      args.work_dir + "/fleet-store-" + std::to_string(::getpid());
  std::filesystem::remove_all(store_dir);
  registry::DeploymentStore store(registry::StoreConfig{store_dir, 64});
  auto request_of = [](const std::string& body) {
    core::CheckRequest request;
    request.deployment =
        config::ParseDeployment(json::Parse(body).At("deployment"));
    return request;
  };
  EditStream stepwise_edits(args.seed);
  const core::CheckRequest base = request_of(stepwise_edits.CurrentBody());
  StepwiseRun previous;
  {
    Tracer cold_tracer;  // the cold full check is set-up, not an edit
    Layers cold_layers;
    previous = RunStepwise(cold_tracer, cold_layers, base, nullptr);
  }
  registry::CheckRecord record =
      registry::RunRegistryCheck(base, {}, nullptr).record;
  ReplayTimer replays;
  replays.Add(out, base, previous, 20);

  constexpr int kEdits = 30;
  double stepwise_s = 0, onecall_s = 0;
  std::uint64_t reused = 0, total = 0;
  for (int k = 1; k <= kEdits; ++k) {
    const std::string body = stepwise_edits.NextBody();
    tracer.SetRequest(static_cast<std::uint64_t>(k));
    core::CheckRequest request;
    StepwiseRun run;
    {
      Scope edit_span(tracer, "edit");
      {
        Scope s(tracer, "server.parse_request");
        request = request_of(body);
      }
      {
        Scope s(tracer, "registry.put");
        registry::StoredDeployment stored;
        stored.id = "home";
        stored.deployment = request.deployment;
        store.Put(std::move(stored));
      }
      const Clock::time_point t = Clock::now();
      run = RunStepwise(tracer, layers, request, &previous.results);
      stepwise_s += SecondsSince(t);
    }
    const Clock::time_point t = Clock::now();
    registry::RegistryCheckOutcome onecall =
        registry::RunRegistryCheck(request, {}, &record);
    onecall_s += SecondsSince(t);
    reused += onecall.groups_reused;
    total += onecall.groups_total;
    ++out.attempted;
    if (WithoutSeconds(run.text) != WithoutSeconds(onecall.response.text) ||
        run.reused != onecall.groups_reused) {
      out.Fail("fleet: stepwise delta differs from RunRegistryCheck");
    }
    ++out.attempted;
    if (ViolatedIdsFromText(onecall.response.text) != kFleetReference) {
      out.Fail("fleet: verdict differs from the reference {P06, P10}");
    }
    record = std::move(onecall.record);
    previous = std::move(run);
  }
  std::filesystem::remove_all(store_dir);
  ReportOverhead(out, stepwise_s, onecall_s);
  const auto totals = tracer.Totals();
  ReportPipeline(out, layers, totals);
  replays.Report(out);
  out.metrics["server.parse_request_us"] =
      Metric{MeanUs(totals, "server.parse_request"), "us", kEdits};
  out.metrics["registry.put_ms"] =
      Metric{MeanUs(totals, "registry.put") / 1e3, "ms", kEdits};
  out.metrics["registry.delta_ms"] =
      Metric{onecall_s * 1e3 / kEdits, "ms", kEdits};
  out.metrics["registry.groups_reused_ratio"] =
      Metric{static_cast<double>(reused) / static_cast<double>(total), "ratio",
             total};

  // The served path at the fixed rate, with the access log on.
  const OpenLoop open = RunOpenLoop(server, edits, args.fleet_rate,
                                    std::min(6.0, 0.5 * args.seconds),
                                    args.seed);
  for (const std::string& error : open.errors) {
    ++out.attempted;
    if (!error.empty()) out.Fail("fleet open loop: " + error);
  }
  out.metrics["bench.gen_late_ms_p95"] =
      Metric{Quantile(open.late_ms, 0.95), "ms", open.late_ms.size()};
  server.Stop();
  ReportAccessLog(out, server.access_log());

  // Full check of the current home at one lane and at four.
  const core::CheckRequest home = request_of(edits.CurrentBody());
  core::CheckRequest parallel = home;
  parallel.options.jobs = Jobs4();
  Clock::time_point t = Clock::now();
  const std::uint64_t states = core::RunCheck(home).report.states_explored;
  const double serial_s = SecondsSince(t);
  std::uint64_t stolen = StolenSoFar();
  t = Clock::now();
  ++out.attempted;
  if (core::RunCheck(parallel).report.states_explored != states) {
    out.Fail("fleet: state counts differ between lane counts");
  }
  const double jobs4_s = SecondsSince(t);
  stolen = StolenSoFar() - stolen;
  ReportParallel(out, states / serial_s, states / jobs4_s, stolen);

  // Building blocks on the home's violating group and one edited group.
  {
    Sampler sampler(args.seed);
    core::Sanitizer sanitizer(base.deployment);
    const core::SanitizerOptions options = OptionsFor(base);
    core::SanitizerReport scratch;
    for (const std::vector<std::size_t>& group :
         sanitizer.PlanGroups(options, scratch)) {
      if (group.front() > 2) continue;  // the pair's group and instance 0
      sampler.Sample(AnalyzeAndBuild(base, options, group),
                     options.check.max_events, false, 300);
    }
    sampler.Report(out);
  }
  Finish(args, tracer);
  return out;
}

}  // namespace perfbench
