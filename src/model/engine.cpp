#include "model/engine.hpp"

#include <algorithm>

#include "model/footprint.hpp"
#include "telemetry/telemetry.hpp"

namespace iotsan::model {

std::string ExternalEvent::Describe(const SystemModel& model) const {
  switch (kind) {
    case ExternalEventSpec::Kind::kSensor: {
      const devices::Device& dev = model.devices()[device];
      const devices::AttributeSpec& attr = *dev.attributes()[attribute];
      return dev.id() + ": " + attr.name + "/" + attr.ValueName(value);
    }
    case ExternalEventSpec::Kind::kAppTouch:
      return "app touch: " + model.apps()[app].config.label;
    case ExternalEventSpec::Kind::kTimerTick:
      return "timer tick";
    case ExternalEventSpec::Kind::kUserModeChange:
      return "user sets mode " + model.modes()[value];
  }
  return "?";
}

CascadeEngine::CascadeEngine(const SystemModel& model,
                             const FootprintIndex* footprints, bool notes)
    : model_(model), footprints_(footprints), notes_(notes) {
  for (const InstalledApp& app : model_.apps()) {
    for (const ir::ScheduleInfo& schedule : app.analysis.schedules) {
      recurring_schedules_ = recurring_schedules_ || schedule.recurring;
    }
  }
}

telemetry::Registry* CascadeEngine::Counters() const {
  return notes_ ? nullptr : telemetry::Active();
}

std::vector<ExternalEvent> CascadeEngine::EnabledEvents(
    const SystemState& state) const {
  std::vector<ExternalEvent> events;
  for (const ExternalEventSpec& spec : model_.external_events()) {
    switch (spec.kind) {
      case ExternalEventSpec::Kind::kSensor: {
        const devices::Device& device = model_.devices()[spec.device];
        const devices::AttributeSpec& attr =
            *device.attributes()[spec.attribute];
        const int current =
            state.devices[spec.device].physical[spec.attribute];
        for (int v = 0; v < attr.domain_size(); ++v) {
          if (v == current) continue;  // Algorithm 1, line 8: no-op events
          ExternalEvent event;
          event.kind = spec.kind;
          event.device = spec.device;
          event.attribute = spec.attribute;
          event.value = v;
          events.push_back(event);
        }
        break;
      }
      case ExternalEventSpec::Kind::kAppTouch: {
        ExternalEvent event;
        event.kind = spec.kind;
        event.app = spec.app;
        events.push_back(event);
        break;
      }
      case ExternalEventSpec::Kind::kTimerTick: {
        // A tick is enabled when a one-shot timer is pending or any app
        // has a recurring schedule.
        if (recurring_schedules_ || !state.timers.empty()) {
          ExternalEvent event;
          event.kind = spec.kind;
          events.push_back(event);
        }
        break;
      }
      case ExternalEventSpec::Kind::kUserModeChange: {
        for (std::size_t m = 0; m < model_.modes().size(); ++m) {
          if (static_cast<int>(m) == state.mode) continue;
          ExternalEvent event;
          event.kind = spec.kind;
          event.value = static_cast<int>(m);
          events.push_back(event);
        }
        break;
      }
    }
  }
  return events;
}

void CascadeEngine::InjectExternal(SystemState& state,
                                   const ExternalEvent& event,
                                   const FailureScenario& failure,
                                   std::deque<devices::Event>& queue,
                                   CascadeLog& log) const {
  if (auto* t = Counters()) ++t->search.events_injected;
  switch (event.kind) {
    case ExternalEventSpec::Kind::kSensor: {
      const devices::Device& device = model_.devices()[event.device];
      const devices::AttributeSpec& attr =
          *device.attributes()[event.attribute];
      // The physical world changes regardless of sensor availability.
      if (state.devices[event.device].physical[event.attribute] ==
          event.value) {
        return;
      }
      state.devices[event.device].physical[event.attribute] =
          static_cast<std::int16_t>(event.value);
      if (failure.sensor_offline) {
        // The physical event happened but the sensor cannot report it:
        // no cyber event is generated, and the cyber reading goes stale
        // (paper §8 failure model, Fig. 8b).
        if (notes_) {
          log.trace.push_back("-- sensor " + device.id() +
                              " offline: physical event " + attr.name + "/" +
                              attr.ValueName(event.value) + " missed");
        }
        return;
      }
      // sensor_state_update (Algorithm 1, lines 8-12).
      state.devices[event.device].values[event.attribute] =
          static_cast<std::int16_t>(event.value);
      devices::Event cyber;
      cyber.source = devices::EventSource::kDevice;
      cyber.device = event.device;
      cyber.attribute = event.attribute;
      cyber.value = event.value;
      queue.push_back(cyber);
      if (notes_) {
        log.trace.push_back("generatedEvent.evtType = " +
                            attr.ValueName(event.value) + " (" + device.id() +
                            "/" + attr.name + ")");
      }
      break;
    }
    case ExternalEventSpec::Kind::kAppTouch: {
      devices::Event cyber;
      cyber.source = devices::EventSource::kAppTouch;
      cyber.app = event.app;
      queue.push_back(cyber);
      if (notes_) {
        log.trace.push_back("app touch: " +
                            model_.apps()[event.app].config.label);
      }
      break;
    }
    case ExternalEventSpec::Kind::kTimerTick: {
      // Fire pending one-shot timers; when none are pending, fire the
      // recurring schedules (system time advanced past their deadline).
      if (!state.timers.empty()) {
        std::vector<TimerEntry> firing = state.timers;
        state.timers.clear();
        for (const TimerEntry& timer : firing) {
          devices::Event cyber;
          cyber.source = devices::EventSource::kTimer;
          cyber.app = timer.app;
          cyber.timer = timer.schedule;
          queue.push_back(cyber);
        }
      } else {
        for (std::size_t a = 0; a < model_.apps().size(); ++a) {
          const auto& schedules = model_.apps()[a].analysis.schedules;
          for (std::size_t s = 0; s < schedules.size(); ++s) {
            if (!schedules[s].recurring) continue;
            devices::Event cyber;
            cyber.source = devices::EventSource::kTimer;
            cyber.app = static_cast<int>(a);
            cyber.timer = static_cast<int>(s);
            queue.push_back(cyber);
          }
        }
      }
      if (notes_) log.trace.push_back("timer tick");
      break;
    }
    case ExternalEventSpec::Kind::kUserModeChange: {
      if (state.mode == event.value) break;
      state.mode = static_cast<std::int16_t>(event.value);
      devices::Event cyber;
      cyber.source = devices::EventSource::kLocationMode;
      cyber.value = event.value;
      queue.push_back(cyber);
      if (notes_) {
        log.trace.push_back("user sets location.mode = " +
                            model_.modes()[event.value]);
      }
      break;
    }
  }
}

void CascadeEngine::DispatchOne(SystemState& state,
                                const devices::Event& event,
                                std::deque<devices::Event>& queue,
                                CascadeLog& log,
                                const FailureScenario& failure) const {
  if (auto* t = Counters()) ++t->search.handler_dispatches;
  Evaluator evaluator(model_, state, queue, log, failure, notes_,
                      &event_values_);
  if (event.source == devices::EventSource::kTimer) {
    const InstalledApp& app = model_.apps()[event.app];
    const ir::ScheduleInfo& schedule = app.analysis.schedules[event.timer];
    if (notes_) {
      log.trace.push_back("dispatch timer -> " + app.config.label + "." +
                          schedule.handler);
      log.dispatches.push_back({event.app, schedule.handler});
    }
    evaluator.InvokeHandler(event.app, schedule.handler, &event);
    return;
  }
  for (const ResolvedSubscription* sub : model_.Subscribers(event)) {
    if (notes_) {
      std::string description;
      if (event.source == devices::EventSource::kDevice) {
        description = devices::DescribeDeviceEvent(
            model_.devices()[event.device], event);
      } else if (event.source == devices::EventSource::kLocationMode) {
        description = "location/" + model_.modes()[event.value];
      } else {
        description = "app/touch";
      }
      log.trace.push_back("dispatch " + description + " -> " +
                          model_.apps()[sub->app].config.label + "." +
                          sub->handler);
      log.dispatches.push_back({sub->app, sub->handler});
    }
    evaluator.InvokeHandler(sub->app, sub->handler, &event);
  }
}

void CascadeEngine::RunSequential(SystemState& state,
                                  std::deque<devices::Event>& queue,
                                  CascadeLog& log,
                                  const FailureScenario& failure,
                                  const CancelFn& cancel) const {
  int processed = 0;
  while (!queue.empty()) {
    log.max_queue_depth =
        std::max(log.max_queue_depth, static_cast<int>(queue.size()));
    if (++processed > kCascadeBound) {
      log.truncated = true;
      break;
    }
    if (cancel && cancel()) {
      log.truncated = true;
      break;
    }
    devices::Event event = queue.front();
    queue.pop_front();
    DispatchOne(state, event, queue, log, failure);
  }
}

void CascadeEngine::RunConcurrent(const SystemState& state,
                                  const std::deque<devices::Event>& queue,
                                  const CascadeLog& log,
                                  const FailureScenario& failure, int depth,
                                  std::vector<StepOutcome>& outcomes,
                                  const CancelFn& cancel) const {
  if (static_cast<int>(outcomes.size()) >= kMaxInterleavings) return;
  if (cancel && cancel()) return;
  if (queue.empty() || depth > kCascadeBound) {
    StepOutcome outcome;
    outcome.state = state;
    outcome.log = log;
    outcome.log.truncated = outcome.log.truncated || depth > kCascadeBound;
    outcomes.push_back(std::move(outcome));
    return;
  }
  // Choose which pending event is delivered next: all orders explored,
  // unless partial-order reduction proves a singleton ample set.
  std::size_t pick_begin = 0;
  std::size_t pick_end = queue.size();
  if (footprints_ && queue.size() > 1) {
    FootprintIndex::Fallback reason = FootprintIndex::Fallback::kNone;
    const int ample =
        footprints_->PickAmple(queue, depth, kCascadeBound, reason);
    if (auto* t = Counters()) {
      if (ample >= 0) {
        t->por.ample_singletons.fetch_add(1, std::memory_order_relaxed);
        t->por.interleavings_pruned.fetch_add(queue.size() - 1,
                                              std::memory_order_relaxed);
      } else {
        t->por.full_expansions.fetch_add(1, std::memory_order_relaxed);
        switch (reason) {
          case FootprintIndex::Fallback::kUnknown:
            t->por.fallback_unknown.fetch_add(1, std::memory_order_relaxed);
            break;
          case FootprintIndex::Fallback::kVisible:
            t->por.fallback_visible.fetch_add(1, std::memory_order_relaxed);
            break;
          case FootprintIndex::Fallback::kConflict:
            t->por.fallback_conflict.fetch_add(1, std::memory_order_relaxed);
            break;
          case FootprintIndex::Fallback::kDepth:
            t->por.fallback_depth.fetch_add(1, std::memory_order_relaxed);
            break;
          case FootprintIndex::Fallback::kNone:
            break;
        }
      }
    }
    if (ample >= 0) {
      pick_begin = static_cast<std::size_t>(ample);
      pick_end = pick_begin + 1;
    }
  }
  for (std::size_t pick = pick_begin; pick < pick_end; ++pick) {
    SystemState next_state = state;
    CascadeLog next_log = log;
    std::deque<devices::Event> next_queue = queue;
    next_log.max_queue_depth = std::max(next_log.max_queue_depth,
                                        static_cast<int>(queue.size()));
    devices::Event event = next_queue[pick];
    next_queue.erase(next_queue.begin() + static_cast<long>(pick));
    DispatchOne(next_state, event, next_queue, next_log, failure);
    RunConcurrent(next_state, next_queue, next_log, failure, depth + 1,
                  outcomes, cancel);
  }
}

std::vector<StepOutcome> CascadeEngine::Apply(
    const SystemState& from, const ExternalEvent& event,
    const FailureScenario& failure, Scheduling scheduling,
    const CancelFn& cancel) const {
  SystemState state = from;
  std::deque<devices::Event> queue;
  CascadeLog log;
  InjectExternal(state, event, failure, queue, log);
  log.max_queue_depth = static_cast<int>(queue.size());

  if (scheduling == Scheduling::kSequential) {
    RunSequential(state, queue, log, failure, cancel);
    std::vector<StepOutcome> outcomes;
    outcomes.push_back({std::move(state), std::move(log)});
    return outcomes;
  }
  std::vector<StepOutcome> outcomes;
  RunConcurrent(state, queue, log, failure, 0, outcomes, cancel);
  return outcomes;
}

}  // namespace iotsan::model
