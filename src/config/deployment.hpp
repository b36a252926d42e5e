// Deployment configuration: the output of the paper's Configuration
// Extractor (§7).
//
// The paper crawls the SmartThings management web app to obtain (i) the
// installed devices, (ii) the installed smart apps, and (iii) each app's
// configuration, plus device-association info ("this outlet controls the
// AC") supplied by the user.  iotsan consumes the same information from a
// JSON document (or builds it programmatically), described here.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace iotsan::config {

/// One installed device: unique id, a device-type name from
/// devices::DeviceTypeRegistry, and role associations used to bind safety
/// properties ("mainDoorLock", "heaterOutlet", "acOutlet", ...).
struct DeviceConfig {
  std::string id;
  std::string type;
  std::vector<std::string> roles;
};

/// The value bound to one app input.  Exactly one of the alternatives is
/// set, mirroring the input's declared type (capability inputs bind
/// device ids; number/decimal bind a number; enum/text/mode/phone bind a
/// string; bool binds a flag).
struct Binding {
  std::vector<std::string> device_ids;
  std::optional<double> number;
  std::optional<std::string> text;
  std::optional<bool> flag;

  bool IsDeviceBinding() const { return !device_ids.empty(); }
};

/// One installed app instance: which corpus/app source it runs and how
/// its inputs are bound.  The same app may be installed multiple times
/// with different configurations (paper §1: apps installed by several
/// family members).
struct AppConfig {
  /// App source name: resolved against the corpus or user-supplied files.
  std::string app;
  /// Optional instance label to distinguish multiple installs.
  std::string label;
  std::map<std::string, Binding> inputs;
};

/// A complete IoT system configuration.
struct Deployment {
  std::string name;
  std::vector<DeviceConfig> devices;
  std::vector<AppConfig> apps;
  /// Location modes; first entry is the initial mode.
  std::vector<std::string> modes = {"Home", "Away", "Night"};
  /// Phone number the user configured for notifications; the information
  /// leakage property checks SMS recipients against it (§3).
  std::string contact_phone;
  /// Whether the user allows apps to use raw network interfaces
  /// (httpPost & co.); when false their use is an information-leakage
  /// violation (§3).
  bool allow_network_interfaces = false;

  const DeviceConfig* FindDevice(const std::string& id) const;
  std::vector<std::string> DevicesWithRole(const std::string& role) const;
  int ModeIndex(const std::string& mode) const;
};

/// Parses a Deployment from its JSON form:
/// {
///   "name": "...",
///   "modes": ["Home","Away","Night"],
///   "contactPhone": "555-0100",
///   "devices": [{"id": "doorLock", "type": "smartLock",
///                "roles": ["mainDoorLock"]}, ...],
///   "apps": [{"app": "Unlock Door",
///             "inputs": {"lock": ["doorLock"], "setpoint": 75,
///                        "mode": "cool", "notify": true}}, ...]
/// }
/// Throws iotsan::ConfigError on unknown device types or malformed input.
Deployment ParseDeployment(const json::Value& doc);

/// Convenience: parse from JSON text.
Deployment ParseDeploymentText(std::string_view text);

/// Serializes a deployment back to JSON (used by the attribution module
/// when suggesting safe configurations).
json::Value DeploymentToJson(const Deployment& deployment);

/// DeploymentToJson without "apps": the name, devices, modes, contact
/// phone and network policy that every installed app instance shares.
json::Object DeploymentSettingsToJson(const Deployment& deployment);

/// One element of DeploymentToJson's "apps" array.
json::Value AppConfigToJson(const AppConfig& app);

/// Stable 64-bit fingerprint of a deployment configuration (FNV-1a over
/// its canonical JSON form).  Embedded in violation-artifact manifests so
/// a replay against a different configuration is detected up-front.
std::uint64_t DeploymentFingerprint(const Deployment& deployment);

/// The fingerprint as the 16-hex-digit string artifacts carry.
std::string DeploymentFingerprintHex(const Deployment& deployment);

}  // namespace iotsan::config
