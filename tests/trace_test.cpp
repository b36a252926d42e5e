// Violation-forensics tests: structured TraceStep records, artifact
// (de)serialization round-trips, deterministic replay, and the
// reverify-bitstate false-positive filter.
#include <gtest/gtest.h>

#include "checker/checker.hpp"
#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace iotsan::checker {
namespace {

constexpr const char* kUnlockApp = R"(
definition(name: "UnlockOnAway", namespace: "t")
preferences {
    section("S") {
        input "p1", "capability.presenceSensor"
        input "lock1", "capability.lock"
    }
}
def installed() {
    subscribe(p1, "presence.notpresent", handler)
}
def handler(evt) {
    lock1.unlock()
}
)";

model::SystemModel UnlockModel() {
  config::DeploymentBuilder b("home");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("UnlockOnAway").Devices("p1", {"p1"}).Devices("lock1", {"lock1"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kUnlockApp, "UnlockOnAway"));
  return model::SystemModel(b.Build(), std::move(apps));
}

json::Value StepsJson(const std::vector<TraceStep>& steps) {
  json::Array out;
  for (const TraceStep& step : steps) out.push_back(ToJson(step));
  return json::Value(std::move(out));
}

// ---- Structured trace content ------------------------------------------------

TEST(TraceTest, StepRecordsEventCascadeAndDeltas) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);

  ASSERT_TRUE(result.HasViolation("P06"));
  const Violation& v = *result.Find("P06");
  ASSERT_EQ(v.steps.size(), 1u);
  const TraceStep& step = v.steps.front();
  EXPECT_EQ(step.index, 1);
  EXPECT_EQ(step.sim_time_ms, 1000);
  EXPECT_EQ(step.kind, "sensor");
  EXPECT_EQ(step.device, "p1");
  EXPECT_EQ(step.attribute, "presence");
  EXPECT_EQ(step.value, "notpresent");
  // The cascade dispatched the app's handler and issued the unlock.
  ASSERT_FALSE(step.dispatches.empty());
  EXPECT_EQ(step.dispatches.front().app, "UnlockOnAway");
  EXPECT_EQ(step.dispatches.front().handler, "handler");
  ASSERT_FALSE(step.commands.empty());
  EXPECT_EQ(step.commands.front().device, "lock1");
  EXPECT_EQ(step.commands.front().command, "unlock");
  EXPECT_TRUE(step.commands.front().delivered);
  // Attribute deltas: the sensor flip and the lock state change.
  ASSERT_GE(step.deltas.size(), 2u);
  bool lock_changed = false;
  for (const TraceDelta& delta : step.deltas) {
    if (delta.device == "lock1" && delta.attribute == "lock") {
      lock_changed = true;
      EXPECT_EQ(delta.to, "unlocked");
    }
  }
  EXPECT_TRUE(lock_changed);
  EXPECT_GE(step.queue_peak, 1);
  EXPECT_FALSE(step.notes.empty());
  // model_apps names the checked model's app instances (for replay).
  EXPECT_EQ(v.model_apps, (std::vector<std::string>{"UnlockOnAway"}));
  EXPECT_NE(v.detail.find("assertion violated"), std::string::npos);
}

TEST(TraceTest, FlattenedTraceKeepsFig7Layout) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);
  const Violation& v = *result.Find("P06");

  const std::vector<std::string> lines = v.TraceLines();
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().rfind("== event 1:", 0), 0u) << lines.front();
  EXPECT_EQ(lines.back(), v.detail);
}

// ---- Determinism across stores -----------------------------------------------

TEST(TraceDeterminismTest, ExhaustiveAndBitstateProduceIdenticalTraces) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions exhaustive;
  exhaustive.max_events = 2;
  CheckOptions bitstate = exhaustive;
  bitstate.store = StoreKind::kBitstate;

  CheckResult a = checker.Run(exhaustive);
  CheckResult b = checker.Run(bitstate);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].property_id, b.violations[i].property_id);
    EXPECT_EQ(a.violations[i].steps, b.violations[i].steps);
    // Byte-identical once serialized, too.
    EXPECT_EQ(StepsJson(a.violations[i].steps).Dump(),
              StepsJson(b.violations[i].steps).Dump());
  }
}

TEST(TraceDeterminismTest, RepeatedRunsSerializeIdentically) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 2;
  CheckResult a = checker.Run(options);
  CheckResult b = checker.Run(options);
  ASSERT_FALSE(a.violations.empty());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(StepsJson(a.violations[i].steps).Dump(),
              StepsJson(b.violations[i].steps).Dump());
  }
}

// ---- Artifact round-trip and replay ------------------------------------------

TEST(ArtifactTest, SerializeParseRoundTripIsByteStable) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact =
      MakeArtifact(v, options, "home", "0123456789abcdef");
  EXPECT_EQ(artifact.property_id, "P06");
  EXPECT_EQ(artifact.manifest.deployment, "home");
  EXPECT_EQ(artifact.manifest.store, "exhaustive");
  EXPECT_EQ(artifact.manifest.scheduling, "sequential");
  EXPECT_FALSE(artifact.manifest.version.empty());
  EXPECT_FALSE(artifact.manifest.compiler.empty());
  EXPECT_EQ(artifact.manifest.model_apps, v.model_apps);

  const std::string once = ToJson(artifact).Dump(2);
  ViolationArtifact parsed = ArtifactFromJson(json::Parse(once));
  const std::string twice = ToJson(parsed).Dump(2);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(parsed.depth, artifact.depth);
  EXPECT_EQ(parsed.steps, artifact.steps);
  // Without correlation the manifest omits the key entirely (the CLI
  // path), keeping pre-correlation artifacts byte-identical.
  EXPECT_TRUE(parsed.manifest.request_id.empty());
  EXPECT_EQ(once.find("request_id"), std::string::npos);
}

TEST(ArtifactTest, ManifestRequestIdRoundTrips) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  options.request_id = "req-abc.1";
  CheckResult result = checker.Run(options);
  const Violation& v = *result.Find("P06");

  const ViolationArtifact artifact =
      MakeArtifact(v, options, "home", "0123456789abcdef");
  EXPECT_EQ(artifact.manifest.request_id, "req-abc.1");
  const ViolationArtifact parsed =
      ArtifactFromJson(json::Parse(ToJson(artifact).Dump(2)));
  EXPECT_EQ(parsed.manifest.request_id, "req-abc.1");
}

TEST(ArtifactTest, ReplayReproducesParsedArtifact) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact = MakeArtifact(v, options, "home", "hash");
  // Full pipeline: serialize, parse, replay against a fresh model.
  ViolationArtifact parsed =
      ArtifactFromJson(json::Parse(ToJson(artifact).Dump()));
  ReplayResult replay = checker.Replay(parsed);
  EXPECT_TRUE(replay.reproduced) << replay.message;
  EXPECT_EQ(replay.property_id, "P06");
  EXPECT_EQ(replay.fired_step, v.depth);
  EXPECT_EQ(replay.expected_step, v.depth);
}

TEST(ArtifactTest, ReplayRefutesTamperedArtifact) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact = MakeArtifact(v, options, "home", "hash");
  // A trace that never fires the property: flip the sensor value to the
  // one that keeps everyone home.
  artifact.steps.front().value = "present";
  artifact.steps.front().description = "p1: presence/present";
  ReplayResult replay = checker.Replay(artifact);
  EXPECT_FALSE(replay.reproduced);
  EXPECT_EQ(replay.fired_step, -1);

  // An interleaving past the step's outcome list (a sequential step has
  // one) is not clamped onto the last outcome: the path ends there.
  ViolationArtifact past_end = MakeArtifact(v, options, "home", "hash");
  past_end.steps.front().outcome_index = 3;
  replay = checker.Replay(past_end);
  EXPECT_FALSE(replay.reproduced) << replay.message;
  EXPECT_EQ(replay.fired_step, -1);
}

TEST(ArtifactTest, ReplayRejectsUnknownCoordinates) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);

  ViolationArtifact artifact =
      MakeArtifact(*result.Find("P06"), options, "home", "hash");
  artifact.steps.front().device = "nosuchdevice";
  EXPECT_THROW(checker.Replay(artifact), Error);

  ViolationArtifact negative =
      MakeArtifact(*result.Find("P06"), options, "home", "hash");
  negative.steps.front().outcome_index = -1;
  EXPECT_THROW(checker.Replay(negative), Error);
  bool flagged = false;
  for (const std::string& problem : ValidateArtifact(negative, "")) {
    flagged = flagged || problem.find("outcome_index") != std::string::npos;
  }
  EXPECT_TRUE(flagged);
}

// ---- Reverify-bitstate -------------------------------------------------------

TEST(ReverifyBitstateTest, ViolationsSurviveAndAreMarkedVerified) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 2;
  options.store = StoreKind::kBitstate;
  options.reverify_bitstate = true;
  CheckResult result = checker.Run(options);
  telemetry::SetActive(nullptr);

  // Bitstate omission can only hide states, never fabricate a trace: the
  // violations found must all survive the deterministic re-execution.
  ASSERT_TRUE(result.HasViolation("P06"));
  for (const Violation& v : result.violations) {
    EXPECT_TRUE(v.replay_verified) << v.property_id;
  }
  EXPECT_GE(registry.search.replays_run, result.violations.size());
  EXPECT_EQ(registry.search.replays_reproduced, registry.search.replays_run);
  EXPECT_EQ(registry.search.replays_refuted, 0u);
}

TEST(ReverifyBitstateTest, ExhaustiveRunsAreNotReverified) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  options.reverify_bitstate = true;  // no-op without a bitstate store
  CheckResult result = checker.Run(options);
  telemetry::SetActive(nullptr);

  ASSERT_TRUE(result.HasViolation("P06"));
  EXPECT_FALSE(result.Find("P06")->replay_verified);
  EXPECT_EQ(registry.search.replays_run, 0u);
}

// ---- Saturation warning counter ----------------------------------------------

TEST(SaturationTest, SaturatedBitstateTicksCounterOncePerCheck) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  ResetSaturationWarning();
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  options.store = StoreKind::kBitstate;
  options.bitstate_bits = 16;  // tiny on purpose: saturates immediately
  CheckResult first = checker.Run(options);
  CheckResult second = checker.Run(options);
  telemetry::SetActive(nullptr);
  ResetSaturationWarning();

  ASSERT_GT(first.store_fill_ratio, 0.5);
  ASSERT_GT(second.store_fill_ratio, 0.5);
  // The counter ticks per saturated check even though the stderr warning
  // is latched after the first.
  EXPECT_EQ(registry.store.saturation_warnings, 2u);
}

}  // namespace
}  // namespace iotsan::checker
