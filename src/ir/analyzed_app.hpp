// Analyzed app representation: the static-analysis summary the paper's
// App Dependency Analyzer consumes (§5).
//
// For every event handler we enumerate:
//   input events  — (i) explicit `subscribe` registrations, (ii) device
//                   state reads (`sensor.currentTemperature`), and
//                   (iii) timer interrupts from `schedule`/`runIn`;
//   output events — actuator commands, location-mode changes, and
//                   synthetic events injected via sendEvent.
// We also record message/network API uses (for the information-leakage
// properties, §3/§8) and whether the app discovers devices dynamically
// (unsupported, §11).
#pragma once

#include <string>
#include <vector>

#include "dsl/ast.hpp"
#include "dsl/type_infer.hpp"

namespace iotsan::ir {

/// Where an event lives.
enum class EventScope {
  kDevice,        // a device attribute event, e.g. motion/active
  kLocationMode,  // location/mode
  kAppTouch,      // app/touch
  kTime,          // timer interrupt (schedule/runIn)
};

/// A (possibly wildcard) event pattern, the unit of §5's dependency
/// analysis.  `value.empty()` means "any value of this attribute" — the
/// paper's `contact/"..."` notation.
struct EventPattern {
  EventScope scope = EventScope::kDevice;
  /// kDevice: the app input(s) this pattern is observed/actuated through.
  std::string input;
  std::string attribute;  // "motion", "switch"; "mode" for location
  std::string value;      // "active", "on", ...; empty = any

  /// "contact/open", "location/mode", "app/touch" rendering (paper Tab. 2).
  std::string ToString() const;

  /// True if an occurrence of `other` (an output) can trigger this
  /// pattern (an input): same attribute and compatible value.
  bool Overlaps(const EventPattern& other) const;

  /// True if both patterns write the same attribute with different,
  /// conflicting values (switch/on vs switch/off) — the related-set merge
  /// rule of §5.
  bool ConflictsWith(const EventPattern& other) const;

  bool operator==(const EventPattern&) const = default;
};

/// One event handler with its interface of input and output events.
/// This is a vertex of the dependency graph (paper Fig. 4a).
struct HandlerInfo {
  std::string name;  // method name
  std::vector<EventPattern> inputs;
  std::vector<EventPattern> outputs;
  /// True when the handler (or a reachable callee) reads or writes the
  /// app's persistent `state` map — a shared-variable footprint the
  /// partial-order reduction must treat as a dependency.
  bool touches_app_state = false;
  /// True when the handler (or a reachable callee) arms a one-shot timer
  /// via runIn/runOnce, mutating the global pending-timer list.
  bool creates_timer = false;
};

/// A subscription registered by the app.
struct Subscription {
  EventScope scope = EventScope::kDevice;
  std::string input;      // device input name; empty for location/app
  std::string attribute;  // "motion"; "mode" for location
  std::string value;      // "" = any value
  std::string handler;
};

/// A timer registration.
struct ScheduleInfo {
  std::string handler;
  bool recurring = false;   // schedule()/runEvery* vs runIn/runOnce
  int delay_seconds = 0;    // runIn delay (informational)
};

/// Message/network/security-sensitive API usage (paper §3, §8).
enum class ApiUseKind {
  kSms,            // sendSms(recipient, body)
  kPush,           // sendPush(body)
  kHttp,           // httpPost/httpGet — network interface
  kUnsubscribe,    // disables app functionality: security-sensitive
  kFakeEvent,      // sendEvent not reflecting a physical device change
};

struct ApiUse {
  ApiUseKind kind = ApiUseKind::kSms;
  std::string handler;
  /// kSms: the recipient argument — an input name when it is a configured
  /// phone input, or a literal when hard-coded (a leakage red flag).
  std::string recipient;
  bool recipient_is_literal = false;
  int line = 0;
};

/// The full static summary of one app.
struct AnalyzedApp {
  dsl::App app;  // owns the AST
  dsl::TypeInfo types;

  std::vector<Subscription> subscriptions;
  std::vector<ScheduleInfo> schedules;
  std::vector<HandlerInfo> handlers;
  std::vector<ApiUse> api_uses;

  /// True if the app queries/controls devices it was not configured with
  /// (getAllDevices & co.).  Such apps are rejected, as in the paper
  /// (§10.1: Midnight Camera etc. cannot be handled).
  bool dynamic_device_discovery = false;

  /// True if some method assigns into a map or list (`evt.x = …`,
  /// `m[k] = …`).  Such an app may change the event object it receives,
  /// so it gets a fresh one per dispatch instead of a shared one.
  bool writes_containers = false;

  /// Analysis problems (unknown handlers, type problems, ...).
  std::vector<std::string> problems;

  const HandlerInfo* FindHandler(const std::string& name) const;
};

}  // namespace iotsan::ir
