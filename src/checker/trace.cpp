#include "checker/trace.hpp"

#include "model/state.hpp"
#include "model/system_model.hpp"
#include "util/error.hpp"

namespace iotsan::checker {

namespace {

/// Reads an optional member with a default, so serialization can omit
/// default-valued fields and still round-trip exactly.
std::string GetStr(const json::Value& v, std::string_view key) {
  return v.GetString(key);
}

std::int64_t GetInt(const json::Value& v, std::string_view key,
                    std::int64_t dflt = 0) {
  return static_cast<std::int64_t>(v.GetNumber(key, static_cast<double>(dflt)));
}

void PutIf(json::Object& obj, const char* key, const std::string& value) {
  if (!value.empty()) obj[key] = value;
}

void PutIf(json::Object& obj, const char* key, bool value) {
  if (value) obj[key] = value;
}

void PutIf(json::Object& obj, const char* key, std::int64_t value) {
  if (value != 0) obj[key] = value;
}

}  // namespace

// ---- TraceStep ---------------------------------------------------------------

json::Value ToJson(const TraceStep& step) {
  json::Object obj;
  obj["index"] = step.index;
  obj["sim_time_ms"] = step.sim_time_ms;
  obj["kind"] = step.kind;
  PutIf(obj, "device", step.device);
  PutIf(obj, "attribute", step.attribute);
  PutIf(obj, "value", step.value);
  PutIf(obj, "app", step.app);
  obj["description"] = step.description;
  PutIf(obj, "sensor_offline", step.sensor_offline);
  PutIf(obj, "actuator_offline", step.actuator_offline);
  PutIf(obj, "comm_fail", step.comm_fail);
  PutIf(obj, "outcome_index", std::int64_t{step.outcome_index});
  if (!step.dispatches.empty()) {
    json::Array dispatches;
    for (const TraceDispatch& d : step.dispatches) {
      json::Object entry;
      entry["app"] = d.app;
      entry["handler"] = d.handler;
      dispatches.push_back(std::move(entry));
    }
    obj["dispatches"] = std::move(dispatches);
  }
  if (!step.commands.empty()) {
    json::Array commands;
    for (const TraceCommand& c : step.commands) {
      json::Object entry;
      entry["app"] = c.app;
      entry["device"] = c.device;
      entry["command"] = c.command;
      PutIf(entry, "value", c.value);
      if (!c.delivered) entry["delivered"] = false;
      commands.push_back(std::move(entry));
    }
    obj["commands"] = std::move(commands);
  }
  if (!step.deltas.empty()) {
    json::Array deltas;
    for (const TraceDelta& d : step.deltas) {
      json::Object entry;
      entry["device"] = d.device;
      entry["attribute"] = d.attribute;
      entry["from"] = d.from;
      entry["to"] = d.to;
      entry["space"] = d.space;
      deltas.push_back(std::move(entry));
    }
    obj["deltas"] = std::move(deltas);
  }
  if (!step.notes.empty()) {
    json::Array notes;
    for (const std::string& note : step.notes) notes.push_back(note);
    obj["notes"] = std::move(notes);
  }
  PutIf(obj, "failed_sends", std::int64_t{step.failed_sends});
  PutIf(obj, "user_notified", step.user_notified);
  PutIf(obj, "queue_peak", std::int64_t{step.queue_peak});
  PutIf(obj, "truncated", step.truncated);
  return obj;
}

TraceStep TraceStepFromJson(const json::Value& value) {
  TraceStep step;
  step.index = static_cast<int>(GetInt(value, "index"));
  step.sim_time_ms = static_cast<int>(GetInt(value, "sim_time_ms"));
  step.kind = value.GetString("kind", "sensor");
  step.device = GetStr(value, "device");
  step.attribute = GetStr(value, "attribute");
  step.value = GetStr(value, "value");
  step.app = GetStr(value, "app");
  step.description = GetStr(value, "description");
  step.sensor_offline = value.GetBool("sensor_offline");
  step.actuator_offline = value.GetBool("actuator_offline");
  step.comm_fail = value.GetBool("comm_fail");
  step.outcome_index = static_cast<int>(GetInt(value, "outcome_index"));
  if (value.Has("dispatches")) {
    for (const json::Value& entry : value.At("dispatches").AsArray()) {
      step.dispatches.push_back(
          {entry.GetString("app"), entry.GetString("handler")});
    }
  }
  if (value.Has("commands")) {
    for (const json::Value& entry : value.At("commands").AsArray()) {
      TraceCommand command;
      command.app = entry.GetString("app");
      command.device = entry.GetString("device");
      command.command = entry.GetString("command");
      command.value = entry.GetString("value");
      command.delivered = entry.GetBool("delivered", true);
      step.commands.push_back(std::move(command));
    }
  }
  if (value.Has("deltas")) {
    for (const json::Value& entry : value.At("deltas").AsArray()) {
      TraceDelta delta;
      delta.device = entry.GetString("device");
      delta.attribute = entry.GetString("attribute");
      delta.from = entry.GetString("from");
      delta.to = entry.GetString("to");
      delta.space = entry.GetString("space");
      step.deltas.push_back(std::move(delta));
    }
  }
  if (value.Has("notes")) {
    for (const json::Value& entry : value.At("notes").AsArray()) {
      step.notes.push_back(entry.AsString());
    }
  }
  step.failed_sends = static_cast<int>(GetInt(value, "failed_sends"));
  step.user_notified = value.GetBool("user_notified");
  step.queue_peak = static_cast<int>(GetInt(value, "queue_peak"));
  step.truncated = value.GetBool("truncated");
  return step;
}

// ---- RunManifest -------------------------------------------------------------

json::Value ToJson(const RunManifest& manifest) {
  json::Object obj;
  obj["tool"] = manifest.tool;
  obj["version"] = manifest.version;
  obj["compiler"] = manifest.compiler;
  obj["build_type"] = manifest.build_type;
  obj["deployment"] = manifest.deployment;
  obj["config_hash"] = manifest.config_hash;
  json::Array apps;
  for (const std::string& app : manifest.model_apps) apps.push_back(app);
  obj["model_apps"] = std::move(apps);
  PutIf(obj, "rng_seed", static_cast<std::int64_t>(manifest.rng_seed));
  PutIf(obj, "request_id", manifest.request_id);
  json::Object options;
  options["max_events"] = manifest.max_events;
  options["scheduling"] = manifest.scheduling;
  options["model_failures"] = manifest.model_failures;
  options["store"] = manifest.store;
  options["bitstate_bits"] =
      static_cast<std::int64_t>(manifest.bitstate_bits);
  options["include_depth_in_state"] = manifest.include_depth_in_state;
  options["por"] = manifest.por;
  options["state_compression"] = manifest.state_compression;
  options["stop_at_first_violation"] = manifest.stop_at_first_violation;
  options["max_states"] = static_cast<std::int64_t>(manifest.max_states);
  options["time_budget_seconds"] = manifest.time_budget_seconds;
  obj["options"] = std::move(options);
  return obj;
}

RunManifest ManifestFromJson(const json::Value& value) {
  RunManifest manifest;
  manifest.tool = value.GetString("tool", "iotsan");
  manifest.version = GetStr(value, "version");
  manifest.compiler = GetStr(value, "compiler");
  manifest.build_type = GetStr(value, "build_type");
  manifest.deployment = GetStr(value, "deployment");
  manifest.config_hash = GetStr(value, "config_hash");
  if (value.Has("model_apps")) {
    for (const json::Value& app : value.At("model_apps").AsArray()) {
      manifest.model_apps.push_back(app.AsString());
    }
  }
  manifest.rng_seed = static_cast<std::uint64_t>(GetInt(value, "rng_seed"));
  manifest.request_id = GetStr(value, "request_id");
  const json::Value& options = value.At("options");
  manifest.max_events = static_cast<int>(GetInt(options, "max_events", 3));
  manifest.scheduling = options.GetString("scheduling", "sequential");
  manifest.model_failures = options.GetBool("model_failures");
  manifest.store = options.GetString("store", "exhaustive");
  manifest.bitstate_bits =
      static_cast<std::uint64_t>(GetInt(options, "bitstate_bits"));
  manifest.include_depth_in_state =
      options.GetBool("include_depth_in_state", true);
  manifest.por = options.GetBool("por");
  manifest.state_compression = options.GetBool("state_compression");
  manifest.stop_at_first_violation =
      options.GetBool("stop_at_first_violation");
  manifest.max_states =
      static_cast<std::uint64_t>(GetInt(options, "max_states"));
  manifest.time_budget_seconds = options.GetNumber("time_budget_seconds");
  return manifest;
}

// ---- ViolationArtifact -------------------------------------------------------

json::Value ToJson(const ViolationArtifact& artifact) {
  json::Object obj;
  obj["schema"] = kArtifactSchema;
  obj["manifest"] = ToJson(artifact.manifest);
  json::Object property;
  property["id"] = artifact.property_id;
  property["category"] = artifact.category;
  property["description"] = artifact.description;
  property["kind"] = artifact.property_kind;
  obj["property"] = std::move(property);
  json::Object violation;
  PutIf(violation, "failure", artifact.failure);
  PutIf(violation, "detail", artifact.detail);
  violation["depth"] = artifact.depth;
  violation["occurrences"] = static_cast<std::int64_t>(artifact.occurrences);
  json::Array apps;
  for (const std::string& app : artifact.apps) apps.push_back(app);
  violation["apps"] = std::move(apps);
  obj["violation"] = std::move(violation);
  json::Array steps;
  for (const TraceStep& step : artifact.steps) steps.push_back(ToJson(step));
  obj["trace"] = std::move(steps);
  return obj;
}

ViolationArtifact ArtifactFromJson(const json::Value& value) {
  if (value.GetString("schema") != kArtifactSchema) {
    throw Error("not an iotsan violation artifact (expected schema '" +
                std::string(kArtifactSchema) + "', got '" +
                value.GetString("schema") + "')");
  }
  ViolationArtifact artifact;
  artifact.manifest = ManifestFromJson(value.At("manifest"));
  const json::Value& property = value.At("property");
  artifact.property_id = property.GetString("id");
  artifact.category = property.GetString("category");
  artifact.description = property.GetString("description");
  artifact.property_kind = property.GetString("kind", "invariant");
  const json::Value& violation = value.At("violation");
  artifact.failure = violation.GetString("failure");
  artifact.detail = violation.GetString("detail");
  artifact.depth = static_cast<int>(GetInt(violation, "depth"));
  artifact.occurrences =
      static_cast<std::uint64_t>(GetInt(violation, "occurrences", 1));
  if (violation.Has("apps")) {
    for (const json::Value& app : violation.At("apps").AsArray()) {
      artifact.apps.push_back(app.AsString());
    }
  }
  for (const json::Value& step : value.At("trace").AsArray()) {
    artifact.steps.push_back(TraceStepFromJson(step));
  }
  return artifact;
}

// ---- State diffing -----------------------------------------------------------

std::vector<TraceDelta> DiffStates(const model::SystemModel& model,
                                   const model::SystemState& before,
                                   const model::SystemState& after) {
  std::vector<TraceDelta> deltas;
  for (std::size_t d = 0; d < model.devices().size(); ++d) {
    const devices::Device& device = model.devices()[d];
    const devices::State& b = before.devices[d];
    const devices::State& a = after.devices[d];
    for (std::size_t i = 0; i < device.attributes().size(); ++i) {
      const devices::AttributeSpec& attr = *device.attributes()[i];
      const bool cyber_changed = b.values[i] != a.values[i];
      const bool physical_changed = b.physical[i] != a.physical[i];
      if (cyber_changed && physical_changed &&
          b.values[i] == b.physical[i] && a.values[i] == a.physical[i]) {
        deltas.push_back({device.id(), attr.name, attr.ValueName(b.values[i]),
                          attr.ValueName(a.values[i]), "both"});
        continue;
      }
      if (cyber_changed) {
        deltas.push_back({device.id(), attr.name, attr.ValueName(b.values[i]),
                          attr.ValueName(a.values[i]), "cyber"});
      }
      if (physical_changed) {
        deltas.push_back({device.id(), attr.name,
                          attr.ValueName(b.physical[i]),
                          attr.ValueName(a.physical[i]), "physical"});
      }
    }
    if (b.online != a.online) {
      deltas.push_back({device.id(), "online", b.online ? "true" : "false",
                        a.online ? "true" : "false", "both"});
    }
  }
  if (before.mode != after.mode) {
    deltas.push_back({"location", "mode", model.modes()[before.mode],
                      model.modes()[after.mode], "both"});
  }
  return deltas;
}

// ---- Flat rendering ----------------------------------------------------------

std::vector<std::string> FlattenTrace(const std::vector<TraceStep>& steps,
                                      const std::string& detail) {
  std::vector<std::string> lines;
  for (const TraceStep& step : steps) {
    std::string header =
        "== event " + std::to_string(step.index) + ": " + step.description;
    // Matches model::FailureScenario::Label().
    std::string failure;
    auto add = [&failure](const char* label) {
      if (!failure.empty()) failure += "+";
      failure += label;
    };
    if (step.sensor_offline) add("sensor offline");
    if (step.actuator_offline) add("actuator offline");
    if (step.comm_fail) add("communication failure");
    if (!failure.empty()) header += " [" + failure + "]";
    lines.push_back(std::move(header));
    for (const std::string& note : step.notes) lines.push_back("   " + note);
  }
  if (!detail.empty()) lines.push_back(detail);
  return lines;
}

// ---- Validation --------------------------------------------------------------

namespace {

bool IsHex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> ValidateArtifact(
    const ViolationArtifact& artifact,
    const std::string& expected_config_hash) {
  std::vector<std::string> problems;
  const RunManifest& m = artifact.manifest;
  if (m.tool != "iotsan") {
    problems.push_back("manifest.tool is '" + m.tool + "', want 'iotsan'");
  }
  if (m.version.empty()) problems.push_back("manifest.version is empty");
  if (!IsHex16(m.config_hash)) {
    problems.push_back("manifest.config_hash '" + m.config_hash +
                       "' is not 16 lowercase hex digits");
  }
  if (!expected_config_hash.empty() &&
      m.config_hash != expected_config_hash) {
    problems.push_back("manifest.config_hash " + m.config_hash +
                       " does not match the deployment's fingerprint " +
                       expected_config_hash);
  }
  if (m.model_apps.empty()) {
    problems.push_back("manifest.model_apps is empty");
  }
  if (m.scheduling != "sequential" && m.scheduling != "concurrent") {
    problems.push_back("manifest.scheduling '" + m.scheduling +
                       "' is not a known scheduling");
  }
  if (m.store != "exhaustive" && m.store != "bitstate") {
    problems.push_back("manifest.store '" + m.store +
                       "' is not a known store kind");
  }
  if (m.store == "bitstate" && m.bitstate_bits == 0) {
    problems.push_back("manifest.store is bitstate but bitstate_bits is 0");
  }
  if (m.store == "exhaustive" && m.bitstate_bits != 0) {
    problems.push_back("manifest.store is exhaustive but bitstate_bits is " +
                       std::to_string(m.bitstate_bits));
  }
  if (m.max_events < 1) {
    problems.push_back("manifest.max_events is " +
                       std::to_string(m.max_events) + ", want >= 1");
  }
  if (artifact.property_id.empty()) problems.push_back("property id is empty");
  for (const std::string& app : artifact.apps) {
    bool in_model = false;
    for (const std::string& label : m.model_apps) {
      in_model = in_model || label == app;
    }
    if (!in_model) {
      problems.push_back("violated app '" + app +
                         "' is not among manifest.model_apps");
    }
  }
  if (artifact.depth != static_cast<int>(artifact.steps.size())) {
    problems.push_back(
        "violation depth " + std::to_string(artifact.depth) + " != " +
        std::to_string(artifact.steps.size()) + " trace step(s)");
  }
  if (artifact.depth > m.max_events) {
    problems.push_back("violation depth " + std::to_string(artifact.depth) +
                       " exceeds the manifest's " +
                       std::to_string(m.max_events) + "-event bound");
  }
  for (std::size_t i = 0; i < artifact.steps.size(); ++i) {
    const TraceStep& step = artifact.steps[i];
    const int want_index = static_cast<int>(i) + 1;
    if (step.index != want_index) {
      problems.push_back("trace step " + std::to_string(i) + " has index " +
                         std::to_string(step.index) + ", want " +
                         std::to_string(want_index));
    }
    // The checker's simulated clock: one second per external event.
    if (step.sim_time_ms != want_index * 1000) {
      problems.push_back("trace step " + std::to_string(want_index) +
                         " has sim_time_ms " +
                         std::to_string(step.sim_time_ms) + ", want " +
                         std::to_string(want_index * 1000));
    }
    if (step.outcome_index < 0) {
      problems.push_back("trace step " + std::to_string(want_index) +
                         " has outcome_index " +
                         std::to_string(step.outcome_index) + ", want >= 0");
    }
    if (step.kind != "sensor" && step.kind != "app_touch" &&
        step.kind != "timer" && step.kind != "user_mode") {
      problems.push_back("trace step " + std::to_string(want_index) +
                         " has unknown event kind '" + step.kind + "'");
    }
  }
  return problems;
}

}  // namespace iotsan::checker
