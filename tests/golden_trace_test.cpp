// Golden counter-example traces: pins the rendered `iotsan check` text and
// the violation-artifact JSON (steps, notes, deltas, commands) byte for
// byte.  Wall time and build-dependent manifest fields are scrubbed; all
// else must match the files under tests/golden/.
//
// On a mismatch the actual output is written to `<case>.actual` in the
// working directory, so a deliberate change is reviewed with `diff` and
// accepted by copying that file over the golden.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "checker/trace.hpp"
#include "config/builder.hpp"
#include "config/deployment.hpp"
#include "core/sanitizer.hpp"
#include "core/service.hpp"
#include "util/json.hpp"

namespace iotsan {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The rendered report plus one pretty-printed artifact per violation,
/// with the non-deterministic and build-dependent parts scrubbed.
std::string Render(const config::Deployment& deployment,
                   const core::SanitizerReport& report,
                   const checker::CheckOptions& check) {
  std::string out = std::regex_replace(
      core::RenderCheckReport(deployment, report),
      std::regex(R"(in [0-9]+\.[0-9]+s)"), "in <wall>s");
  const std::string hash = config::DeploymentFingerprintHex(deployment);
  for (const checker::Violation& v : report.violations) {
    checker::ViolationArtifact artifact =
        checker::MakeArtifact(v, check, deployment.name, hash);
    artifact.manifest.version = "<version>";
    artifact.manifest.compiler = "<compiler>";
    artifact.manifest.build_type = "<build_type>";
    out += "--- artifact " + v.property_id + " ---\n";
    out += checker::ToJson(artifact).Dump(2) + "\n";
  }
  return out;
}

void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(IOTSAN_GOLDEN_DIR) + "/" + name +
                           ".golden";
  const std::string expected = ReadFile(path);
  if (actual == expected) return;
  const std::string dump = name + ".actual";
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << "output differs from " << path << "; actual written to "
                << dump;
}

/// `iotsan check <deployment>` with the given request options.
std::string CheckText(const config::Deployment& deployment,
                      const core::RequestOptions& options) {
  core::CheckRequest request;
  request.deployment = deployment;
  request.options = options;
  const core::CheckResponse response = core::RunCheck(request);
  return Render(deployment, response.report,
                core::MakeCheckOptions(options, {}).check);
}

config::Deployment AliceHome() {
  return config::ParseDeploymentText(
      ReadFile(std::string(IOTSAN_CONFIG_DIR) + "/alice_home.json"));
}

/// The paper's Fig. 7 system without the configured contact phone,
/// checked as one monolithic model.
config::Deployment Fig7() {
  return config::ParseDeploymentText(R"JSON({
    "name": "fig7",
    "devices": [
      {"id": "alicePresence", "type": "presenceSensor", "roles": ["presence"]},
      {"id": "doorLock", "type": "smartLock", "roles": ["mainDoorLock"]}
    ],
    "apps": [
      {"app": "Auto Mode Change",
       "inputs": {"people": ["alicePresence"],
                  "homeMode": "Home", "awayMode": "Away"}},
      {"app": "Unlock Door", "inputs": {"lock1": ["doorLock"]}}
    ]
  })JSON");
}

/// Two apps racing on the same switches: conflicting commands, several
/// interleavings per external event.
config::Deployment ConflictSystem() {
  config::DeploymentBuilder b("por conflict system");
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.Device("frontDoor", "contactSensor", {"frontDoorContact"});
  b.Device("lightMeter", "illuminanceSensor");
  b.Device("motion1", "motionSensor");
  b.App("Brighten Dark Places")
      .Devices("contact1", {"frontDoor"})
      .Devices("luminance1", {"lightMeter"})
      .Devices("switches", {"sw1", "sw2"});
  b.App("Let There Be Dark!")
      .Devices("contact1", {"frontDoor"})
      .Devices("switches", {"sw1", "sw2"});
  b.App("Brighten My Path")
      .Devices("motion1", {"motion1"})
      .Devices("switches", {"sw2"});
  return b.Build();
}

std::string ConcurrentPorText(int jobs) {
  const config::Deployment deployment = ConflictSystem();
  core::Sanitizer sanitizer(deployment);
  core::SanitizerOptions options;
  options.use_dependency_analysis = false;
  options.check.max_events = 3;
  options.check.scheduling = model::Scheduling::kConcurrent;
  options.check.por = true;
  options.check.jobs = jobs;
  return Render(deployment, sanitizer.Check(options), options.check);
}

TEST(GoldenTraceTest, AliceHome) {
  ExpectGolden("alice_home", CheckText(AliceHome(), {}));
}

TEST(GoldenTraceTest, Fig7Monolithic) {
  core::RequestOptions options;
  options.mono = true;
  options.events = 5;
  ExpectGolden("fig7_mono_events5", CheckText(Fig7(), options));
}

TEST(GoldenTraceTest, FailureModelling) {
  core::RequestOptions options;
  options.failures = true;
  ExpectGolden("alice_home_failures", CheckText(AliceHome(), options));
}

TEST(GoldenTraceTest, ConcurrentPor) {
  ExpectGolden("conflict_concurrent_por", ConcurrentPorText(1));
}

TEST(GoldenTraceTest, ConcurrentPorParallel) {
  ExpectGolden("conflict_concurrent_por", ConcurrentPorText(4));
}

}  // namespace
}  // namespace iotsan
