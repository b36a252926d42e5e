// Workload inputs and reference verdicts.  The systems are the ones the
// paper-table benches use (bench_table8_verification_time,
// bench_fleet_delta, bench_table5/6), rebuilt here so the benchmark's
// figures line up with theirs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "attrib/config_enum.hpp"
#include "bench.hpp"
#include "config/builder.hpp"
#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "dsl/parser.hpp"
#include "props/property.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace iotsan;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - std::floor(rank));
}

int TailPercentile(std::size_t samples) {
  for (int p : {99, 95, 90, 75}) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10) return p;
  }
  return 0;
}

double PeakRssMb() {
  return static_cast<double>(telemetry::ReadPeakRssBytes()) / (1 << 20);
}

std::vector<std::string> ViolatedIdsFromText(const std::string& text) {
  static const std::string kPrefix = "violated property ";
  std::vector<std::string> ids;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(kPrefix, 0) != 0) continue;
    const std::size_t end = line.find(' ', kPrefix.size());
    ids.push_back(line.substr(kPrefix.size(), end - kPrefix.size()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string WithoutSeconds(const std::string& text) {
  const std::size_t explored = text.find("\nexplored ");
  if (explored == std::string::npos) return text;
  const std::size_t in = text.find(" in ", explored);
  const std::size_t s = text.find('s', in + 4);
  if (in == std::string::npos || s == std::string::npos) return text;
  return text.substr(0, in + 4) + "<t>" + text.substr(s);
}

config::Deployment QuietSystem() {
  config::DeploymentBuilder b("quiet system");
  b.Device("temp1", "temperatureSensor");
  b.Device("temp2", "temperatureSensor");
  b.Device("hum1", "humiditySensor");
  b.Device("lux1", "illuminanceSensor");
  b.Device("motion1", "motionSensor");
  b.Device("motion2", "motionSensor");
  b.Device("temp3", "temperatureSensor");
  b.Device("sw1", "smartSwitch");
  b.Device("sw2", "smartSwitch");
  b.Device("sw3", "smartSwitch");
  b.App("It's Too Cold")
      .Devices("temperatureSensor1", {"temp1"})
      .Number("temperature1", 65);
  b.App("It's Too Hot")
      .Devices("temperatureSensor1", {"temp2"})
      .Number("temperature1", 80);
  b.App("Smart Humidifier")
      .Devices("humidity1", {"hum1"})
      .Devices("humidifier", {"sw1"})
      .Number("dryPoint", 40);
  b.App("Turn On Before Sunset")
      .Devices("luminance1", {"lux1"})
      .Devices("switches", {"sw2", "sw3"})
      .Number("darkPoint", 100);
  b.App("Low Battery Notifier")
      .Devices("sensors", {"motion1", "motion2", "temp3", "temp2"})
      .Number("threshold", 20);
  return b.Build();
}

core::CheckRequest Table8Request(int events, int jobs) {
  core::CheckRequest request;
  request.deployment = QuietSystem();
  request.options.events = events;
  request.options.jobs = jobs;
  request.options.mono = true;  // Table 8 checks the five apps as one model
  return request;
}

namespace {

json::Value DeviceJson(const std::string& id, const std::string& type,
                       const std::string& role = "") {
  json::Object device;
  device["id"] = id;
  device["type"] = type;
  if (!role.empty()) device["roles"] = json::Array{json::Value(role)};
  return json::Value(std::move(device));
}

json::Value AppJson(const std::string& app, json::Object inputs) {
  json::Object out;
  out["app"] = app;
  out["inputs"] = std::move(inputs);
  return json::Value(std::move(out));
}

}  // namespace

json::Value FleetHomeJson(const std::vector<int>& thresholds) {
  json::Array devices;
  json::Array apps;
  devices.push_back(DeviceJson("presence0", "presenceSensor", "presence"));
  devices.push_back(DeviceJson("lock0", "smartLock", "mainDoorLock"));
  {
    json::Object inputs;
    inputs["people"] = json::Array{json::Value("presence0")};
    inputs["homeMode"] = "Home";
    inputs["awayMode"] = "Away";
    apps.push_back(AppJson("Auto Mode Change", std::move(inputs)));
  }
  {
    json::Object inputs;
    inputs["lock1"] = json::Array{json::Value("lock0")};
    apps.push_back(AppJson("Unlock Door", std::move(inputs)));
  }
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const std::string n = std::to_string(i);
    devices.push_back(DeviceJson("temp" + n, "motionTempSensor"));
    devices.push_back(DeviceJson("heater" + n, "smartSwitch"));
    json::Object inputs;
    inputs["temperatureSensor1"] = json::Array{json::Value("temp" + n)};
    inputs["temperature1"] = thresholds[i];
    inputs["switch1"] = json::Array{json::Value("heater" + n)};
    apps.push_back(AppJson("It's Too Cold", std::move(inputs)));
  }
  json::Object doc;
  doc["name"] = "fleet bench home";
  doc["devices"] = std::move(devices);
  doc["apps"] = std::move(apps);
  return json::Value(std::move(doc));
}

std::vector<AuditCase> Paper76Cases(std::uint64_t volunteer_seed) {
  std::vector<AuditCase> cases;
  for (const corpus::SystemUnderTest& sut : corpus::ExpertGroups()) {
    for (bool failures : {false, true}) {
      AuditCase c;
      c.name = sut.deployment.name + (failures ? " /failures,events=2"
                                               : " /events=3");
      c.request.deployment = sut.deployment;
      c.request.extra_sources = sut.extra_sources;
      c.request.options.events = failures ? 2 : 3;
      c.request.options.failures = failures;
      cases.push_back(std::move(c));
    }
  }
  // Same draw order as bench_table6_nonexpert: seven volunteers per
  // group, one config per app, from one seeded stream.
  constexpr int kVolunteers = 7;
  Rng rng(volunteer_seed);
  for (const corpus::VolunteerGroup& group : corpus::VolunteerGroups()) {
    for (int volunteer = 0; volunteer < kVolunteers; ++volunteer) {
      AuditCase c;
      c.name = group.name + " /volunteer" + std::to_string(volunteer);
      c.request.deployment = group.device_pool;
      for (const std::string& app_name : group.apps) {
        const corpus::CorpusApp* app = corpus::FindApp(app_name);
        if (app == nullptr) throw Error("corpus has no app " + app_name);
        dsl::App parsed = dsl::ParseApp(app->source, app_name);
        c.request.deployment.apps.push_back(attrib::GenerateVolunteerConfig(
            parsed, c.request.deployment, rng));
      }
      c.request.options.events = 3;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

namespace {

std::string ReferencePath(const std::string& dir, std::uint64_t seed) {
  return dir + "/paper76_seed" + std::to_string(seed) + ".json";
}

bool Has(const std::vector<std::string>& ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// The answers tests/groups_test.cpp pins for the expert groups (at
/// events <= 2, so they must hold at events=3 too).
void CheckPinnedAnswers(const Verdicts& verdicts) {
  const auto& groups = corpus::ExpertGroups();
  auto ids = [&](std::size_t group) {
    auto it = verdicts.find(groups[group].deployment.name + " /events=3");
    if (it == verdicts.end()) throw Error("reference misses expert group");
    return it->second;
  };
  const std::vector<std::string> g1 = ids(0);
  if (!Has(g1, "P39") || !Has(g1, "P40") ||
      !(Has(g1, "P06") || Has(g1, "P10"))) {
    throw Error("reference disagrees with groups_test on group 1");
  }
  bool hvac = false;
  for (const std::string& id : ids(1)) {
    for (const props::Property& p : props::BuiltinProperties()) {
      hvac = hvac || (p.id == id && p.category == "Thermostat, AC, and Heater");
    }
  }
  if (!hvac) throw Error("reference disagrees with groups_test on group 2");
  if (!Has(ids(4), "P41")) {
    throw Error("reference disagrees with groups_test on group 5");
  }
}

}  // namespace

json::Value Paper76ReferenceJson(std::uint64_t seed, const Verdicts& verdicts) {
  json::Object systems;
  for (const auto& [name, ids] : verdicts) {
    json::Array list;
    for (const std::string& id : ids) list.push_back(id);
    systems[name] = std::move(list);
  }
  json::Object doc;
  doc["schema"] = "perfbench.paper76_reference/1";
  doc["volunteer_seed"] = static_cast<std::int64_t>(seed);
  doc["systems"] = std::move(systems);
  return json::Value(std::move(doc));
}

Verdicts LoadPaper76Reference(const std::string& dir, std::uint64_t seed) {
  const std::string path = ReferencePath(dir, seed);
  std::ifstream in(path);
  if (!in) throw Error("cannot read reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::Parse(text.str());
  if (doc.GetString("schema") != "perfbench.paper76_reference/1" ||
      doc.GetNumber("volunteer_seed") != static_cast<double>(seed)) {
    throw Error("reference " + path + " has the wrong schema or seed");
  }
  Verdicts verdicts;
  for (const auto& [name, list] : doc.At("systems").AsObject()) {
    std::vector<std::string>& ids = verdicts[name];
    for (const json::Value& id : list.AsArray()) ids.push_back(id.AsString());
  }
  if (verdicts.size() != 82) throw Error("reference " + path + " is partial");
  CheckPinnedAnswers(verdicts);
  return verdicts;
}

}  // namespace perfbench
