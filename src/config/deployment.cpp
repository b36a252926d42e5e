#include "config/deployment.hpp"

#include <cstdio>

#include "devices/device_type.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace iotsan::config {

const DeviceConfig* Deployment::FindDevice(const std::string& id) const {
  for (const DeviceConfig& d : devices) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

std::vector<std::string> Deployment::DevicesWithRole(
    const std::string& role) const {
  std::vector<std::string> out;
  for (const DeviceConfig& d : devices) {
    for (const std::string& r : d.roles) {
      if (r == role) {
        out.push_back(d.id);
        break;
      }
    }
  }
  return out;
}

int Deployment::ModeIndex(const std::string& mode) const {
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (modes[i] == mode) return static_cast<int>(i);
  }
  return -1;
}

namespace {

Binding ParseBinding(const json::Value& v) {
  Binding binding;
  switch (v.type()) {
    case json::Type::kString:
      binding.text = v.AsString();
      break;
    case json::Type::kNumber:
      binding.number = v.AsNumber();
      break;
    case json::Type::kBool:
      binding.flag = v.AsBool();
      break;
    case json::Type::kArray:
      for (const json::Value& item : v.AsArray()) {
        binding.device_ids.push_back(item.AsString());
      }
      break;
    default:
      throw ConfigError("unsupported binding value: " + v.Dump());
  }
  return binding;
}

}  // namespace

Deployment ParseDeployment(const json::Value& doc) {
  Deployment out;
  out.name = doc.GetString("name", "unnamed system");
  out.contact_phone = doc.GetString("contactPhone", "");
  out.allow_network_interfaces = doc.GetBool("allowNetworkInterfaces", false);

  if (doc.Has("modes")) {
    out.modes.clear();
    for (const json::Value& m : doc.At("modes").AsArray()) {
      out.modes.push_back(m.AsString());
    }
    if (out.modes.empty()) {
      throw ConfigError("deployment '" + out.name + "': empty modes list");
    }
  }

  if (doc.Has("devices")) {
    for (const json::Value& d : doc.At("devices").AsArray()) {
      DeviceConfig device;
      device.id = d.GetString("id");
      device.type = d.GetString("type");
      if (device.id.empty() || device.type.empty()) {
        throw ConfigError("device entry needs both \"id\" and \"type\": " +
                          d.Dump());
      }
      if (devices::DeviceTypeRegistry::Instance().Find(device.type) ==
          nullptr) {
        throw ConfigError("device '" + device.id + "': unknown type '" +
                          device.type + "'");
      }
      if (out.FindDevice(device.id) != nullptr) {
        throw ConfigError("duplicate device id '" + device.id + "'");
      }
      if (d.Has("roles")) {
        for (const json::Value& r : d.At("roles").AsArray()) {
          device.roles.push_back(r.AsString());
        }
      }
      out.devices.push_back(std::move(device));
    }
  }

  if (doc.Has("apps")) {
    for (const json::Value& a : doc.At("apps").AsArray()) {
      AppConfig app;
      app.app = a.GetString("app");
      app.label = a.GetString("label", app.app);
      if (app.app.empty()) {
        throw ConfigError("app entry needs \"app\": " + a.Dump());
      }
      if (a.Has("inputs")) {
        for (const auto& [input_name, value] : a.At("inputs").AsObject()) {
          Binding binding = ParseBinding(value);
          for (const std::string& id : binding.device_ids) {
            if (out.FindDevice(id) == nullptr) {
              throw ConfigError("app '" + app.label + "' input '" +
                                input_name + "' binds unknown device '" + id +
                                "'");
            }
          }
          app.inputs.emplace(input_name, std::move(binding));
        }
      }
      out.apps.push_back(std::move(app));
    }
  }
  return out;
}

Deployment ParseDeploymentText(std::string_view text) {
  return ParseDeployment(json::Parse(text));
}

json::Value AppConfigToJson(const AppConfig& app_config) {
  json::Object app;
  app["app"] = app_config.app;
  if (app_config.label != app_config.app) app["label"] = app_config.label;
  json::Object inputs;
  for (const auto& [name, binding] : app_config.inputs) {
    if (binding.IsDeviceBinding()) {
      json::Array ids;
      for (const std::string& id : binding.device_ids) ids.emplace_back(id);
      inputs[name] = std::move(ids);
    } else if (binding.number.has_value()) {
      inputs[name] = *binding.number;
    } else if (binding.text.has_value()) {
      inputs[name] = *binding.text;
    } else if (binding.flag.has_value()) {
      inputs[name] = *binding.flag;
    }
  }
  app["inputs"] = std::move(inputs);
  return json::Value(std::move(app));
}

json::Object DeploymentSettingsToJson(const Deployment& deployment) {
  json::Object root;
  root["name"] = deployment.name;
  if (!deployment.contact_phone.empty()) {
    root["contactPhone"] = deployment.contact_phone;
  }
  root["allowNetworkInterfaces"] = deployment.allow_network_interfaces;

  json::Array modes;
  for (const std::string& m : deployment.modes) modes.emplace_back(m);
  root["modes"] = std::move(modes);

  json::Array devices;
  for (const DeviceConfig& d : deployment.devices) {
    json::Object device;
    device["id"] = d.id;
    device["type"] = d.type;
    if (!d.roles.empty()) {
      json::Array roles;
      for (const std::string& r : d.roles) roles.emplace_back(r);
      device["roles"] = std::move(roles);
    }
    devices.emplace_back(std::move(device));
  }
  root["devices"] = std::move(devices);
  return root;
}

json::Value DeploymentToJson(const Deployment& deployment) {
  json::Object root = DeploymentSettingsToJson(deployment);
  json::Array apps;
  for (const AppConfig& a : deployment.apps) apps.push_back(AppConfigToJson(a));
  root["apps"] = std::move(apps);
  return json::Value(std::move(root));
}

std::uint64_t DeploymentFingerprint(const Deployment& deployment) {
  // The canonical JSON form (std::map-ordered keys, compact dump) is
  // already deterministic, so hashing it yields a stable fingerprint.
  return hash::Fnv1a64(DeploymentToJson(deployment).Dump(0));
}

std::string DeploymentFingerprintHex(const Deployment& deployment) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    DeploymentFingerprint(deployment)));
  return buf;
}

}  // namespace iotsan::config
