// Robustness and determinism sweeps:
//   * a seeded random SmartScript generator produces structurally valid
//     apps; the whole pipeline must check them without crashing;
//   * repeated runs of the checker over the same system must be
//     bit-identical (determinism is what makes every experiment in
//     EXPERIMENTS.md reproducible);
//   * every way of running a check's related-set groups (serial or
//     parallel, cache cold or warm, registry full or delta, cluster
//     degraded to local) must render the same report.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "cluster/cluster.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "core/service.hpp"
#include "registry/delta.hpp"
#include "util/rng.hpp"

namespace iotsan {
namespace {

/// Generates a random-but-valid SmartScript app over the harness devices:
/// a random subset of subscriptions, randomly nested conditions, and
/// random command/API statements.
std::string RandomApp(Rng& rng, const std::string& name) {
  const char* kTriggers[] = {
      "subscribe(m1, \"motion\", handler)",
      "subscribe(m1, \"motion.active\", handler)",
      "subscribe(c1, \"contact\", handler)",
      "subscribe(c1, \"contact.open\", handler)",
      "subscribe(p1, \"presence\", handler)",
      "subscribe(t1, \"temperature\", handler)",
      "subscribe(location, \"mode\", handler)",
      "subscribe(app, handler)",
  };
  const char* kActions[] = {
      "sw1.on()",
      "sw1.off()",
      "sw2.on()",
      "lock1.lock()",
      "lock1.unlock()",
      "setLocationMode(\"Away\")",
      "setLocationMode(\"Night\")",
      "sendPush(\"note ${evt.value}\")",
      "sendSms(\"555-0100\", \"msg\")",
      "runIn(60, later)",
      "state.n = (state.n ?: 0) + 1",
      "sw1.currentSwitch == \"on\" ? sw1.off() : sw1.on()",
  };
  const char* kConditions[] = {
      "evt.value == \"active\"",
      "location.mode == \"Home\"",
      "t1.currentTemperature > 70",
      "state.n == null || state.n < 3",
      "sw1.currentSwitch == \"off\"",
  };

  std::string body;
  const int statements = 1 + static_cast<int>(rng.NextBelow(4));
  for (int s = 0; s < statements; ++s) {
    if (rng.NextBool(0.5)) {
      body += "    if (" +
              std::string(kConditions[rng.NextBelow(5)]) + ") {\n        " +
              kActions[rng.NextBelow(12)] + "\n    } else {\n        " +
              kActions[rng.NextBelow(12)] + "\n    }\n";
    } else {
      body += "    " + std::string(kActions[rng.NextBelow(12)]) + "\n";
    }
  }

  std::string source = "definition(name: \"" + name +
                       "\", namespace: \"fuzz\")\n";
  source += R"(
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "c1", "capability.contactSensor"
        input "p1", "capability.presenceSensor"
        input "t1", "capability.temperatureMeasurement"
        input "sw1", "capability.switch"
        input "sw2", "capability.switch"
        input "lock1", "capability.lock"
    }
}
def installed() {
)";
  const int subs = 1 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < subs; ++i) {
    source += "    " + std::string(kTriggers[rng.NextBelow(8)]) + "\n";
  }
  source += "}\ndef handler(evt) {\n" + body + "}\n";
  source += "def later() {\n    sw1.off()\n}\n";
  return source;
}

config::Deployment FuzzHome(int apps) {
  config::DeploymentBuilder b("fuzz home");
  b.ContactPhone("555-0100");
  b.Device("m1", "motionSensor", {"securityMotion"});
  b.Device("c1", "contactSensor", {"frontDoorContact"});
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("t1", "temperatureSensor", {"tempSensor"});
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  for (int i = 0; i < apps; ++i) {
    const std::string name = "Fuzz App " + std::to_string(i);
    b.App(name)
        .Devices("m1", {"m1"})
        .Devices("c1", {"c1"})
        .Devices("p1", {"p1"})
        .Devices("t1", {"t1"})
        .Devices("sw1", {"sw1"})
        .Devices("sw2", {"sw2"})
        .Devices("lock1", {"lock1"});
  }
  return b.Build();
}

/// Pipeline survival sweep over 20 random 3-app systems.
class FuzzPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipelineTest, RandomAppsCheckWithoutCrashing) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  core::Sanitizer sanitizer(FuzzHome(3));
  for (int i = 0; i < 3; ++i) {
    sanitizer.AddAppSource("Fuzz App " + std::to_string(i),
                           RandomApp(rng, "Fuzz App " + std::to_string(i)));
  }
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.check.model_failures = GetParam() % 2 == 0;
  core::SanitizerReport report = sanitizer.Check(options);
  // No crash, no rejection, and the search did real work.
  EXPECT_TRUE(report.rejected_apps.empty());
  EXPECT_GT(report.states_explored, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineTest, ::testing::Range(0, 20));

TEST(DeterminismTest, RepeatedChecksAreIdentical) {
  Rng rng(99);
  core::Sanitizer sanitizer(FuzzHome(2));
  for (int i = 0; i < 2; ++i) {
    sanitizer.AddAppSource("Fuzz App " + std::to_string(i),
                           RandomApp(rng, "Fuzz App " + std::to_string(i)));
  }
  core::SanitizerOptions options;
  options.check.max_events = 3;
  core::SanitizerReport a = sanitizer.Check(options);
  core::SanitizerReport b = sanitizer.Check(options);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.ViolatedPropertyIds(), b.ViolatedPropertyIds());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].steps, b.violations[i].steps);
    EXPECT_EQ(a.violations[i].apps, b.violations[i].apps);
    EXPECT_EQ(a.violations[i].occurrences, b.violations[i].occurrences);
  }
}

TEST(DeterminismTest, SchedulingModesAgreeOnVerdicts) {
  // §8: the sequential design found every violation the concurrent model
  // found on small systems.  Spot-check that here.
  Rng rng(7);
  core::Sanitizer sanitizer(FuzzHome(2));
  for (int i = 0; i < 2; ++i) {
    sanitizer.AddAppSource("Fuzz App " + std::to_string(i),
                           RandomApp(rng, "Fuzz App " + std::to_string(i)));
  }
  core::SanitizerOptions sequential;
  sequential.check.max_events = 2;
  core::SanitizerOptions concurrent = sequential;
  concurrent.check.scheduling = model::Scheduling::kConcurrent;
  core::SanitizerReport s = sanitizer.Check(sequential);
  core::SanitizerReport c = sanitizer.Check(concurrent);
  EXPECT_EQ(s.ViolatedPropertyIds(), c.ViolatedPropertyIds());
}

/// What every group-running path must agree on: the rendered report
/// with its wall-clock figure scrubbed, and the un-merged per-set
/// violations with their counter-example traces.
struct RunnerFacts {
  std::string text;
  std::vector<std::string> per_set_violations;

  bool operator==(const RunnerFacts&) const = default;
};

RunnerFacts FactsOf(const core::CheckResponse& response) {
  static const std::regex kSeconds(" in [0-9]+\\.[0-9]+s");
  RunnerFacts out;
  out.text = std::regex_replace(response.text, kSeconds, " in <s>");
  for (const checker::Violation& v : response.report.per_set_violations) {
    out.per_set_violations.push_back(checker::ViolationToJson(v).Dump(0));
  }
  return out;
}

TEST(DeterminismTest, GroupRunnerPathsRenderIdenticalReports) {
  for (int seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 5);
    core::CheckRequest request;
    request.deployment = FuzzHome(4);
    for (int i = 0; i < 4; ++i) {
      const std::string name = "Fuzz App " + std::to_string(i);
      request.extra_sources[name] = RandomApp(rng, name);
    }
    request.options.events = 2;
    request.options.failures = seed % 2 == 1;
    const RunnerFacts serial = FactsOf(core::RunCheck(request));
    ASSERT_FALSE(serial.text.empty());

    // With failure modelling, the apps a parallel search charges for a
    // violation depend on which path reached the state first (an open
    // defect), so the jobs comparison covers failure-free runs only.
    if (!request.options.failures) {
      core::CheckRequest parallel = request;
      parallel.options.jobs = 4;
      EXPECT_EQ(FactsOf(core::RunCheck(parallel)), serial) << "jobs 4";
    }

    cache::ResultCache cache(cache::CacheConfig{});
    core::ServiceEnv cached;
    cached.cache = &cache;
    EXPECT_EQ(FactsOf(core::RunCheck(request, cached)), serial) << "cold";
    EXPECT_EQ(FactsOf(core::RunCheck(request, cached)), serial) << "warm";

    const registry::RegistryCheckOutcome full =
        registry::RunRegistryCheck(request, {}, nullptr);
    EXPECT_EQ(FactsOf(full.response), serial) << "registry full";
    const registry::RegistryCheckOutcome delta =
        registry::RunRegistryCheck(request, {}, &full.record);
    EXPECT_EQ(delta.groups_reused, delta.groups_total);
    EXPECT_EQ(FactsOf(delta.response), serial) << "registry delta";

    cluster::ClusterOptions cluster_options;
    cluster_options.workers = {{"127.0.0.1", 1}};  // nothing listens
    cluster_options.connect_timeout_ms = 1000;
    cluster_options.max_attempts = 1;
    cluster::Coordinator coordinator(std::move(cluster_options));
    const cluster::ClusterOutcome degraded = coordinator.Check(request);
    EXPECT_TRUE(degraded.degraded_local);
    EXPECT_EQ(FactsOf(degraded.response), serial) << "cluster degraded";
  }
}

}  // namespace
}  // namespace iotsan
