#include "attrib/output_analyzer.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"
#include "dsl/parser.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::attrib {

std::string_view VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kMalicious: return "potentially malicious";
    case Verdict::kBadApp: return "bad app";
    case Verdict::kMisconfiguration: return "misconfiguration";
    case Verdict::kClean: return "clean";
  }
  return "?";
}

namespace {

/// Property ids violated by `deployment` with the candidate app acting
/// along the counter-example (violations the environment or other apps
/// produce on their own are never charged to the newcomer), beyond
/// `baseline`.
std::set<std::string> ViolationsOf(
    const config::Deployment& deployment, const std::string& app_source,
    const std::string& app_label, const AttributionOptions& attribution,
    const std::set<std::string>& baseline,
    std::map<std::string, checker::Violation>* evidence) {
  const checker::CheckOptions& check = attribution.check;
  core::Sanitizer sanitizer(deployment);
  // Register the candidate source under its definition name so instances
  // resolve even for non-corpus apps.
  dsl::App parsed = dsl::ParseApp(app_source, "<candidate>");
  sanitizer.AddAppSource(parsed.name, app_source);

  core::SanitizerOptions options;
  options.check = check;
  options.cache = attribution.cache;
  options.allow_dynamic_discovery = attribution.allow_dynamic_discovery;
  // Attribution widens the permutation space with user-initiated mode
  // switches (companion app), so mode-reactive attacks trigger even when
  // the candidate is installed alone.
  options.model.user_mode_events = true;
  core::SanitizerReport report = sanitizer.Check(options);
  std::set<std::string> ids;
  for (const checker::Violation& v : report.violations) {
    if (baseline.count(v.property_id)) continue;
    bool involved = false;
    for (const std::string& app : v.apps) {
      involved = involved || app == app_label;
    }
    if (!involved) continue;
    ids.insert(v.property_id);
    if (evidence != nullptr) evidence->emplace(v.property_id, v);
  }
  return ids;
}

}  // namespace

AttributionResult AttributeApp(const std::string& app_source,
                               const config::Deployment& deployment,
                               const AttributionOptions& options) {
  dsl::App parsed = dsl::ParseApp(app_source, "<candidate>");
  telemetry::ScopedSpan span("attribution");
  span.Attr("app", parsed.name);
  AttributionResult result;

  std::vector<config::AppConfig> configs =
      EnumerateConfigs(parsed, deployment, options.enumeration);
  if (auto* t = telemetry::Active()) {
    t->pipeline.configs_enumerated += configs.size();
    ++t->pipeline.attributions;
  }
  if (configs.empty()) {
    throw ConfigError("app '" + parsed.name +
                      "' cannot be configured against this deployment");
  }

  // Configurations are independent full pipeline runs, so both phases
  // fan them out across one pool shared with the nested sanitizer and
  // checker layers.  Per-config results are merged in enumeration order
  // below, so the report is identical to the serial loop's.
  const unsigned jobs = util::ResolveJobs(options.check.jobs);
  AttributionOptions run_options = options;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (jobs > 1 && run_options.check.pool == nullptr) {
    owned_pool = std::make_unique<util::ThreadPool>(jobs);
    run_options.check.pool = owned_pool.get();
  }
  util::ThreadPool* pool = run_options.check.pool;

  std::set<std::string> violated_union;
  // First counter-example seen per violated property, across all
  // configurations and both phases (std::map keeps them id-ordered).
  std::map<std::string, checker::Violation> evidence;

  // Baseline: violations the installed system already has without the
  // new app (never charged to the newcomer).
  std::set<std::string> baseline;
  {
    config::Deployment base = deployment;
    core::Sanitizer sanitizer(base);
    core::SanitizerOptions base_options;
    base_options.check = run_options.check;
    base_options.cache = run_options.cache;
    for (const checker::Violation& v :
         sanitizer.Check(base_options).violations) {
      baseline.insert(v.property_id);
    }
  }

  // One configuration's verdict: the violated ids plus the (first)
  // counter-example per id found while probing it.
  struct ConfigProbe {
    std::set<std::string> ids;
    std::map<std::string, checker::Violation> evidence;
  };
  auto probe_config = [&](const config::AppConfig& candidate, bool joint) {
    ConfigProbe probe;
    config::Deployment d = deployment;
    if (!joint) d.apps.clear();
    d.apps.push_back(candidate);
    probe.ids = ViolationsOf(d, app_source, candidate.label, run_options,
                             joint ? baseline : std::set<std::string>{},
                             &probe.evidence);
    return probe;
  };
  auto run_phase = [&](bool joint) {
    std::vector<ConfigProbe> probes(configs.size());
    auto body = [&](std::size_t i) { probes[i] = probe_config(configs[i], joint); };
    if (pool != nullptr) {
      pool->ParallelFor(configs.size(), body);
      if (auto* t = telemetry::Active()) {
        t->parallel.config_tasks += configs.size();
      }
    } else {
      for (std::size_t i = 0; i < configs.size(); ++i) body(i);
    }
    return probes;
  };

  // Phase 1: the new app alone (devices only, no other apps).
  int phase1_bad = 0;
  for (ConfigProbe& probe : run_phase(/*joint=*/false)) {
    if (!probe.ids.empty()) ++phase1_bad;
    violated_union.insert(probe.ids.begin(), probe.ids.end());
    for (auto& [id, violation] : probe.evidence) {
      evidence.emplace(id, std::move(violation));
    }
  }
  result.phase1_configs = static_cast<int>(configs.size());
  result.phase1_ratio =
      static_cast<double>(phase1_bad) / static_cast<double>(configs.size());

  if (result.phase1_ratio >= options.threshold) {
    result.verdict = Verdict::kMalicious;
    result.violated_properties.assign(violated_union.begin(),
                                      violated_union.end());
    for (auto& [id, violation] : evidence) {
      result.evidence.push_back(std::move(violation));
    }
    return result;
  }

  // Phase 2: jointly with the previously-installed apps.
  int phase2_bad = 0;
  {
    std::vector<ConfigProbe> probes = run_phase(/*joint=*/true);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ConfigProbe& probe = probes[i];
      if (!probe.ids.empty()) {
        ++phase2_bad;
        violated_union.insert(probe.ids.begin(), probe.ids.end());
        for (auto& [id, violation] : probe.evidence) {
          evidence.emplace(id, std::move(violation));
        }
      } else {
        result.safe_configs.push_back(configs[i]);
      }
    }
  }
  result.phase2_configs = static_cast<int>(configs.size());
  result.phase2_ratio =
      static_cast<double>(phase2_bad) / static_cast<double>(configs.size());
  result.violated_properties.assign(violated_union.begin(),
                                    violated_union.end());
  for (auto& [id, violation] : evidence) {
    result.evidence.push_back(std::move(violation));
  }

  if (result.phase2_ratio >= options.threshold) {
    result.verdict = Verdict::kBadApp;
  } else if (phase2_bad > 0) {
    result.verdict = Verdict::kMisconfiguration;
  } else {
    result.verdict = Verdict::kClean;
  }
  return result;
}

AttributionResult AttributeCorpusApp(const std::string& app_name,
                                     const config::Deployment& deployment,
                                     const AttributionOptions& options) {
  const corpus::CorpusApp* app = corpus::FindApp(app_name);
  if (app == nullptr) {
    throw ConfigError("app '" + app_name + "' is not in the corpus");
  }
  return AttributeApp(app->source, deployment, options);
}

std::string FormatAttribution(const std::string& app_name,
                              const AttributionResult& result) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%-28s verdict=%-22s phase1=%3.0f%% (%d cfg)  "
                "phase2=%3.0f%% (%d cfg)",
                app_name.c_str(), std::string(VerdictName(result.verdict)).c_str(),
                result.phase1_ratio * 100, result.phase1_configs,
                result.phase2_ratio * 100, result.phase2_configs);
  std::string out = buffer;
  if (!result.violated_properties.empty()) {
    out += "  violates: " + strings::Join(result.violated_properties, ",");
  }
  return out;
}

}  // namespace iotsan::attrib
