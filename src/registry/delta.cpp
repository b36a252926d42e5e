#include "registry/delta.hpp"

#include <map>
#include <string_view>

#include "cache/result_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::registry {

RegistryCheckOutcome RunRegistryCheck(const core::CheckRequest& request,
                                      const core::ServiceEnv& env,
                                      const CheckRecord* prior) {
  const core::PreparedCheck check = core::PrepareCheck(request, env);
  core::GroupRunner runner(check.sanitizer, check.options);
  const std::size_t groups_total = runner.groups().size();
  const std::string& version = runner.key_version();

  // The prior revision's fingerprint map.  Keys recorded under a
  // different fingerprint version are incomparable — the whole record
  // is ignored and the check runs full.
  std::map<std::string_view, const checker::CheckResult*> retained;
  if (prior != nullptr && prior->cache_version == version) {
    for (const CheckRecord::Group& group : prior->groups) {
      retained[group.key.text] = &group.result;
    }
  }

  // Classify: a recomputed key that matches a retained one means the
  // edit left that group's inputs untouched (unchanged -> reuse); a
  // miss is a dirty or added group, which RunLocal re-runs (telemetry
  // and progress included; progress counts the groups actually
  // running).  Retained keys no current group claims belong to removed
  // groups and simply drop out.
  std::size_t reused = 0;
  for (std::size_t g = 0; g < groups_total; ++g) {
    auto it = retained.find(runner.Key(g).text);
    if (it == retained.end()) continue;
    runner.Fill(g, *it->second);
    ++reused;
  }
  runner.RunLocal();

  RegistryCheckOutcome out;
  out.groups_total = groups_total;
  out.groups_reused = reused;
  out.groups_recomputed = groups_total - reused;

  // Retain what may be replayed, under the result cache's rule.
  const checker::CheckOptions& options = check.options.check;
  const unsigned effective_jobs =
      options.pool != nullptr ? static_cast<unsigned>(options.pool->jobs())
                              : util::ResolveJobs(options.jobs);
  out.record.cache_version = version;
  out.record.groups_total = groups_total;
  out.record.groups_recomputed = out.groups_recomputed;
  for (std::size_t g = 0; g < groups_total; ++g) {
    if (!cache::Storable(runner.Result(g), effective_jobs)) continue;
    out.record.groups.push_back({runner.Key(g), runner.Result(g)});
  }

  // Merged in plan order with seconds summed, even after a parallel
  // fan-out (see the determinism note in the header).
  out.response = core::MakeCheckResponse(request.deployment, runner.Merge());
  out.record.verdict =
      out.response.report.violations.empty() ? "clean" : "violations";
  out.record.exit_code = out.response.exit_code;

  if (auto* t = telemetry::Active()) {
    t->registry.groups_total += groups_total;
    t->registry.groups_reused += out.groups_reused;
    t->registry.groups_recomputed += out.groups_recomputed;
    if (out.groups_reused > 0) {
      ++t->registry.checks_delta;
    } else {
      ++t->registry.checks_full;
    }
  }
  return out;
}

}  // namespace iotsan::registry
