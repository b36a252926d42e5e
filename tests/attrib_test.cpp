// Output Analyzer tests (paper §9, §10.3): malicious apps attributed via
// phase-1 violation ratios; benign apps clean; configuration-sensitive
// apps attributed to misconfiguration with safe suggestions.
#include <gtest/gtest.h>

#include "attrib/output_analyzer.hpp"
#include "config/builder.hpp"
#include "corpus/corpus.hpp"
#include "util/error.hpp"

namespace iotsan {
namespace {

/// A reference smart home whose devices cover the corpus apps' inputs.
config::Deployment BaseHome() {
  config::DeploymentBuilder b("attribution home");
  b.ContactPhone("555-0100");
  b.Device("alicePresence", "presenceSensor", {"presence"});
  b.Device("doorLock", "smartLock", {"mainDoorLock"});
  b.Device("smokeDet", "smokeDetector", {"smokeSensor", "coSensor"});
  b.Device("valve1", "waterValve", {"waterValve"});
  b.Device("siren1", "smartAlarm", {"alarmSiren"});
  b.Device("panicButton", "buttonController");
  b.Device("hallMotion", "motionSensor", {"securityMotion"});
  b.Device("frontDoor", "contactSensor", {"frontDoorContact"});
  b.Device("heaterOutlet", "smartOutlet", {"heaterOutlet"});
  return b.Build();
}

attrib::AttributionOptions FastOptions() {
  attrib::AttributionOptions options;
  options.enumeration.max_configs = 12;
  options.check.max_events = 2;
  return options;
}

TEST(AttributionTest, SneakyDoorHelperIsMalicious) {
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Sneaky Door Helper", BaseHome(), FastOptions());
  EXPECT_EQ(result.verdict, attrib::Verdict::kMalicious);
  EXPECT_DOUBLE_EQ(result.phase1_ratio, 1.0);
}

TEST(AttributionTest, CoTesterIsMalicious) {
  attrib::AttributionResult result =
      attrib::AttributeCorpusApp("CO Tester", BaseHome(), FastOptions());
  EXPECT_EQ(result.verdict, attrib::Verdict::kMalicious);
  // The fake-event monitor (P44) fires in every configuration.
  bool fake_event = false;
  for (const std::string& id : result.violated_properties) {
    fake_event = fake_event || id == "P44";
  }
  EXPECT_TRUE(fake_event);
}

TEST(AttributionTest, WaterValveHelperIsMalicious) {
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Water Valve Helper", BaseHome(), FastOptions());
  EXPECT_EQ(result.verdict, attrib::Verdict::kMalicious);
}

TEST(AttributionTest, PresenceChangePushIsClean) {
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Presence Change Push", BaseHome(), FastOptions());
  EXPECT_EQ(result.verdict, attrib::Verdict::kClean);
  EXPECT_DOUBLE_EQ(result.phase1_ratio, 0.0);
}

TEST(AttributionTest, CameraOnMotionIsClean) {
  config::Deployment home = BaseHome();
  config::DeploymentBuilder b("attribution home + camera");
  home.devices.push_back({"cam1", "camera", {}});
  attrib::AttributionResult result =
      attrib::AttributeCorpusApp("Camera On Motion", home, FastOptions());
  EXPECT_EQ(result.verdict, attrib::Verdict::kClean);
}

TEST(AttributionTest, VirtualThermostatMisconfiguration) {
  // The §2.2 scenario: a home with both a heater outlet and an AC outlet.
  // Some configurations of Virtual Thermostat bind both outlets (the
  // user-study mistake) and violate the HVAC properties; safe
  // configurations exist, so the verdict is misconfiguration.
  config::DeploymentBuilder b("vt home");
  b.ContactPhone("555-0100");
  b.Device("myTempMeas", "temperatureSensor", {"tempSensor"});
  b.Device("myHeaterOutlet", "smartOutlet", {"heaterOutlet"});
  b.Device("myACOutlet", "smartOutlet", {"acOutlet"});
  b.Device("livRoomMotion", "motionSensor");
  b.Device("alicePresence", "presenceSensor", {"presence"});

  attrib::AttributionOptions options;
  options.enumeration.max_configs = 48;
  options.check.max_events = 2;
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Virtual Thermostat", b.Build(), options);
  EXPECT_EQ(result.verdict, attrib::Verdict::kMisconfiguration)
      << "phase1=" << result.phase1_ratio
      << " phase2=" << result.phase2_ratio;
  EXPECT_GT(result.phase2_ratio, 0.0);
  EXPECT_FALSE(result.safe_configs.empty());
}

TEST(AttributionTest, AllNineMaliciousAppsAttributed) {
  // Paper §10.3: IotSan attributes all nine ContexIoT malicious apps
  // with 100% violation ratios.
  const auto malicious = corpus::MaliciousApps();
  ASSERT_EQ(malicious.size(), 9u);
  for (const corpus::CorpusApp* app : malicious) {
    SCOPED_TRACE(app->name);
    attrib::AttributionResult result =
        attrib::AttributeApp(app->source, BaseHome(), FastOptions());
    EXPECT_EQ(result.verdict, attrib::Verdict::kMalicious)
        << "phase1=" << result.phase1_ratio
        << " phase2=" << result.phase2_ratio;
  }
}

TEST(AttributionTest, ParallelJobsMatchSerial) {
  // Configurations fan out over a pool shared with the nested sanitizer
  // and checker; the report must not depend on it.
  config::DeploymentBuilder b("vt home");
  b.ContactPhone("555-0100");
  b.Device("myTempMeas", "temperatureSensor", {"tempSensor"});
  b.Device("myHeaterOutlet", "smartOutlet", {"heaterOutlet"});
  b.Device("myACOutlet", "smartOutlet", {"acOutlet"});
  b.Device("alicePresence", "presenceSensor", {"presence"});
  const config::Deployment vt_home = b.Build();
  struct Case {
    const char* app;
    config::Deployment home;
  };
  for (const Case& c : {Case{"Virtual Thermostat", vt_home},
                        Case{"Sneaky Door Helper", BaseHome()},
                        Case{"Presence Change Push", BaseHome()}}) {
    SCOPED_TRACE(c.app);
    attrib::AttributionOptions serial = FastOptions();
    serial.enumeration.max_configs = 24;
    attrib::AttributionOptions parallel = serial;
    parallel.check.jobs = 4;
    const attrib::AttributionResult a =
        attrib::AttributeCorpusApp(c.app, c.home, serial);
    const attrib::AttributionResult b =
        attrib::AttributeCorpusApp(c.app, c.home, parallel);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_DOUBLE_EQ(a.phase1_ratio, b.phase1_ratio);
    EXPECT_DOUBLE_EQ(a.phase2_ratio, b.phase2_ratio);
    EXPECT_EQ(a.violated_properties, b.violated_properties);
    ASSERT_EQ(a.evidence.size(), b.evidence.size());
    for (std::size_t i = 0; i < a.evidence.size(); ++i) {
      EXPECT_EQ(checker::ViolationToJson(a.evidence[i]).Dump(0),
                checker::ViolationToJson(b.evidence[i]).Dump(0));
    }
  }
}

TEST(AttributionTest, UnknownAppThrows) {
  EXPECT_THROW(attrib::AttributeCorpusApp("No Such App", BaseHome()),
               ConfigError);
}

}  // namespace
}  // namespace iotsan
