// SmartScript evaluator: executes app event handlers over the system
// state.
//
// This is the C++ equivalent of running the paper's generated Promela
// model: each handler invocation is atomic (§8's concurrency argument),
// reads device state from the SystemState, and produces actuator
// commands, mode changes, timers, messages, and new cyber events.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "devices/event.hpp"
#include "model/runtime.hpp"
#include "model/state.hpp"
#include "model/system_model.hpp"

namespace iotsan::model {

/// The event objects handlers receive, built once per distinct (source,
/// device, attribute, value) on first dispatch and shared after that.
/// Handed only to apps that never write into a map (ir::AnalyzedApp::
/// writes_containers), so no handler can change a shared object.  Not
/// thread-safe.
class EventValueCache {
 public:
  const Value& Get(const SystemModel& model, const devices::Event& event);

 private:
  std::unordered_map<std::uint64_t, Value> values_;
};

class Evaluator {
 public:
  /// `queue` receives the cyber events the handler generates (actuator
  /// state updates, mode changes, synthetic events); `log` accumulates
  /// commands/API calls and, when `notes` is set, trace lines;
  /// `failure` is the cascade's failure scenario.  `event_values`, when
  /// non-null, supplies shared event objects.
  Evaluator(const SystemModel& model, SystemState& state,
            std::deque<devices::Event>& queue, CascadeLog& log,
            const FailureScenario& failure, bool notes,
            EventValueCache* event_values);

  /// Invokes `method` of app `app`, passing `event` (may be null for
  /// timer fires) as the handler's parameter.  Throws iotsan::Error on
  /// runtime errors (step budget exceeded, state-map misuse).
  void InvokeHandler(int app, const std::string& method,
                     const devices::Event* event);

  /// Evaluation step budget per handler invocation; generous for real
  /// apps, small enough to cut off accidental unbounded loops.
  static constexpr int kStepBudget = 100000;

 private:
  struct Impl;
  const SystemModel& model_;
  SystemState& state_;
  std::deque<devices::Event>& queue_;
  CascadeLog& log_;
  const FailureScenario& failure_;
  bool notes_;
  EventValueCache* event_values_;
};

}  // namespace iotsan::model
