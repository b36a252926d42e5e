#include "model/footprint.hpp"

#include <algorithm>

#include "deps/handler_footprint.hpp"

namespace iotsan::model {

namespace {

/// Unions `src` into `dst`; true when `dst` changed (fixpoint driver).
bool Merge(DispatchFootprint& dst, const DispatchFootprint& src) {
  bool changed = dst.reads.UnionWith(src.reads);
  changed |= dst.writes.UnionWith(src.writes);
  if (src.unknown && !dst.unknown) {
    dst.unknown = true;
    changed = true;
  }
  if (src.visible && !dst.visible) {
    dst.visible = true;
    changed = true;
  }
  return changed;
}

}  // namespace

bool SlotSet::UnionWith(const SlotSet& other) {
  bool changed = false;
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t merged = words_[i] | other.words_[i];
    changed |= merged != words_[i];
    words_[i] = merged;
  }
  return changed;
}

bool SlotSet::Intersects(const SlotSet& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

bool SlotSet::Empty() const {
  for (std::uint64_t word : words_) {
    if (word) return false;
  }
  return true;
}

int FootprintIndex::SlotOf(int device, int attribute) const {
  return device_slot_base_[static_cast<std::size_t>(device)] + attribute;
}

FootprintIndex::FootprintIndex(const SystemModel& model) : model_(model) {
  // --- Slot layout -------------------------------------------------------
  device_slot_base_.reserve(model.devices().size());
  for (const devices::Device& device : model.devices()) {
    device_slot_base_.push_back(slot_count_);
    slot_count_ += static_cast<int>(device.attributes().size());
  }
  mode_slot_ = slot_count_++;
  app_slot_base_ = slot_count_;
  slot_count_ += static_cast<int>(model.apps().size());
  timers_slot_ = slot_count_++;

  // --- Visible slots: what the selected invariants observe ---------------
  visible_slots_ = SlotSet(slot_count_);
  for (const props::Property& property : model.active_properties()) {
    if (property.kind != props::PropertyKind::kInvariant) continue;
    for (int d = 0; d < static_cast<int>(model.devices().size()); ++d) {
      const devices::Device& device = model.devices()[static_cast<std::size_t>(d)];
      bool carries_role = false;
      for (const std::string& role : property.roles) {
        if (device.HasRole(role)) {
          carries_role = true;
          break;
        }
      }
      if (!carries_role) continue;
      for (int a = 0; a < static_cast<int>(device.attributes().size()); ++a) {
        visible_slots_.Add(SlotOf(d, a));
      }
    }
    if (props::ReferencesMode(property.ParsedExpression())) {
      visible_slots_.Add(mode_slot_);
    }
  }

  // --- Per-handler resolved footprints + trigger edges --------------------
  handler_fp_.resize(model.apps().size());
  handler_cone_.resize(model.apps().size());
  triggers_.resize(model.apps().size());
  for (int a = 0; a < static_cast<int>(model.apps().size()); ++a) {
    const InstalledApp& app = model.apps()[static_cast<std::size_t>(a)];
    const std::size_t n = app.analysis.handlers.size();
    handler_fp_[static_cast<std::size_t>(a)].resize(n);
    handler_cone_[static_cast<std::size_t>(a)].resize(n);
    triggers_[static_cast<std::size_t>(a)].resize(n);
    for (int h = 0; h < static_cast<int>(n); ++h) {
      ResolveHandler(a, h);
    }
  }

  // --- Trigger cones: fixpoint over the enqueue edges ---------------------
  for (std::size_t a = 0; a < handler_fp_.size(); ++a) {
    for (std::size_t h = 0; h < handler_fp_[a].size(); ++h) {
      handler_cone_[a][h] = handler_fp_[a][h];
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t a = 0; a < handler_cone_.size(); ++a) {
      for (std::size_t h = 0; h < handler_cone_[a].size(); ++h) {
        for (const auto& [ta, th] : triggers_[a][h]) {
          if (ta < 0) {
            if (!handler_cone_[a][h].unknown) {
              handler_cone_[a][h].unknown = true;
              changed = true;
            }
            continue;
          }
          changed |= Merge(handler_cone_[a][h],
                           handler_cone_[static_cast<std::size_t>(ta)]
                                        [static_cast<std::size_t>(th)]);
        }
      }
    }
  }

  // --- Event-identity dispatch tables -------------------------------------
  const DispatchFootprint blank{SlotSet(slot_count_), SlotSet(slot_count_)};
  empty_.direct = blank;
  empty_.cone = blank;
  mode_event_.direct = blank;
  mode_event_.cone = blank;

  auto merge_handler = [&](EventFootprints& ev, int app, int h) {
    if (h < 0) {
      ev.direct.unknown = ev.cone.unknown = true;
      return;
    }
    Merge(ev.direct, handler_fp_[static_cast<std::size_t>(app)]
                                [static_cast<std::size_t>(h)]);
    Merge(ev.cone, handler_cone_[static_cast<std::size_t>(app)]
                                [static_cast<std::size_t>(h)]);
  };

  for (const ResolvedSubscription& sub : model.subscriptions()) {
    const int h = HandlerIndexOf(sub.app, sub.handler);
    switch (sub.scope) {
      case ir::EventScope::kDevice: {
        auto [it, inserted] = device_events_.try_emplace(
            std::make_pair(sub.device, sub.attribute), EventFootprints{blank, blank});
        (void)inserted;
        merge_handler(it->second, sub.app, h);
        break;
      }
      case ir::EventScope::kLocationMode:
        merge_handler(mode_event_, sub.app, h);
        break;
      case ir::EventScope::kAppTouch: {
        auto [it, inserted] =
            touch_events_.try_emplace(sub.app, EventFootprints{blank, blank});
        (void)inserted;
        merge_handler(it->second, sub.app, h);
        break;
      }
      case ir::EventScope::kTime:
        break;
    }
  }
  for (int a = 0; a < static_cast<int>(model.apps().size()); ++a) {
    const InstalledApp& app = model.apps()[static_cast<std::size_t>(a)];
    for (int s = 0; s < static_cast<int>(app.analysis.schedules.size()); ++s) {
      auto [it, inserted] = timer_events_.try_emplace(std::make_pair(a, s),
                                                      EventFootprints{blank, blank});
      (void)inserted;
      merge_handler(
          it->second, a,
          HandlerIndexOf(
              a, app.analysis.schedules[static_cast<std::size_t>(s)].handler));
    }
  }
}

int FootprintIndex::HandlerIndexOf(int app, const std::string& name) const {
  const auto& handlers =
      model_.apps()[static_cast<std::size_t>(app)].analysis.handlers;
  for (int h = 0; h < static_cast<int>(handlers.size()); ++h) {
    if (handlers[static_cast<std::size_t>(h)].name == name) return h;
  }
  return -1;
}

void FootprintIndex::ResolveHandler(int app, int h) {
  const InstalledApp& installed = model_.apps()[static_cast<std::size_t>(app)];
  const ir::HandlerInfo& handler =
      installed.analysis.handlers[static_cast<std::size_t>(h)];
  const deps::PatternFootprint pattern = deps::FootprintOf(handler);
  const std::size_t a = static_cast<std::size_t>(app);

  DispatchFootprint fp{SlotSet(slot_count_), SlotSet(slot_count_)};
  fp.unknown = pattern.unknown;
  if (pattern.touches_app_state) {
    fp.reads.Add(app_slot_base_ + app);
    fp.writes.Add(app_slot_base_ + app);
  }
  if (pattern.creates_timer) {
    fp.reads.Add(timers_slot_);
    fp.writes.Add(timers_slot_);
  }

  // Resolves a kDevice pattern to its (device, attribute) slots.  Returns
  // false — unresolvable — when a named input is missing or non-device.
  auto resolve_devices = [&](const ir::EventPattern& p,
                             std::vector<std::pair<int, int>>& out) {
    if (p.input.empty()) {
      // sendEvent-style pattern: any device carrying the attribute.
      for (int d = 0; d < static_cast<int>(model_.devices().size()); ++d) {
        const int attr = model_.devices()[static_cast<std::size_t>(d)]
                             .AttributeIndex(p.attribute);
        if (attr >= 0) out.emplace_back(d, attr);
      }
      return true;
    }
    auto it = installed.bindings.find(p.input);
    if (it == installed.bindings.end()) return false;
    auto add_device = [&](const Value& v) {
      if (!v.is_device()) return false;
      const int d = v.DeviceIndex();
      const int attr = model_.devices()[static_cast<std::size_t>(d)]
                           .AttributeIndex(p.attribute);
      if (attr >= 0) out.emplace_back(d, attr);
      return true;
    };
    if (it->second.is_list()) {
      for (const Value& v : it->second.AsList()) {
        if (!add_device(v)) return false;
      }
      return true;
    }
    return add_device(it->second);
  };

  std::vector<std::pair<int, int>> slots;
  for (const ir::EventPattern& read : pattern.reads) {
    if (read.scope == ir::EventScope::kLocationMode) {
      fp.reads.Add(mode_slot_);
      continue;
    }
    slots.clear();
    if (!resolve_devices(read, slots)) {
      fp.unknown = true;
      continue;
    }
    for (const auto& [d, attr] : slots) fp.reads.Add(SlotOf(d, attr));
  }
  for (const ir::EventPattern& write : pattern.writes) {
    if (write.scope == ir::EventScope::kLocationMode) {
      fp.writes.Add(mode_slot_);
      // A mode change re-enters every mode subscriber.
      for (const ResolvedSubscription& sub : model_.subscriptions()) {
        if (sub.scope != ir::EventScope::kLocationMode) continue;
        triggers_[a][static_cast<std::size_t>(h)].emplace_back(
            sub.app, HandlerIndexOf(sub.app, sub.handler));
      }
      continue;
    }
    if (write.scope != ir::EventScope::kDevice) continue;
    slots.clear();
    if (!resolve_devices(write, slots)) {
      fp.unknown = true;
      continue;
    }
    for (const auto& [d, attr] : slots) {
      fp.writes.Add(SlotOf(d, attr));
      // The actuation (or synthetic event) enqueues a device event every
      // subscriber of (d, attr) will observe — a trigger edge.
      for (const ResolvedSubscription& sub : model_.subscriptions()) {
        if (sub.scope != ir::EventScope::kDevice || sub.device != d ||
            sub.attribute != attr) {
          continue;
        }
        triggers_[a][static_cast<std::size_t>(h)].emplace_back(
            sub.app, HandlerIndexOf(sub.app, sub.handler));
      }
    }
  }

  fp.visible = fp.writes.Intersects(visible_slots_);
  handler_fp_[a][static_cast<std::size_t>(h)] = fp;
}

const DispatchFootprint& FootprintIndex::DispatchFor(
    const devices::Event& event) const {
  switch (event.source) {
    case devices::EventSource::kDevice: {
      auto it = device_events_.find(std::make_pair(event.device, event.attribute));
      return it == device_events_.end() ? empty_.direct : it->second.direct;
    }
    case devices::EventSource::kLocationMode:
      return mode_event_.direct;
    case devices::EventSource::kAppTouch: {
      auto it = touch_events_.find(event.app);
      return it == touch_events_.end() ? empty_.direct : it->second.direct;
    }
    case devices::EventSource::kTimer: {
      auto it = timer_events_.find(std::make_pair(event.app, event.timer));
      return it == timer_events_.end() ? empty_.direct : it->second.direct;
    }
  }
  return empty_.direct;
}

const DispatchFootprint& FootprintIndex::ConeFor(
    const devices::Event& event) const {
  switch (event.source) {
    case devices::EventSource::kDevice: {
      auto it = device_events_.find(std::make_pair(event.device, event.attribute));
      return it == device_events_.end() ? empty_.cone : it->second.cone;
    }
    case devices::EventSource::kLocationMode:
      return mode_event_.cone;
    case devices::EventSource::kAppTouch: {
      auto it = touch_events_.find(event.app);
      return it == touch_events_.end() ? empty_.cone : it->second.cone;
    }
    case devices::EventSource::kTimer: {
      auto it = timer_events_.find(std::make_pair(event.app, event.timer));
      return it == timer_events_.end() ? empty_.cone : it->second.cone;
    }
  }
  return empty_.cone;
}

int FootprintIndex::PickAmple(const std::deque<devices::Event>& queue,
                              int depth, int cascade_bound,
                              Fallback& reason) const {
  reason = Fallback::kNone;
  if (queue.size() <= 1) return queue.empty() ? -1 : 0;
  // Proviso: near the cascade bound a reduced expansion could truncate a
  // different prefix than the full one; disable the reduction there.
  if (depth + static_cast<int>(queue.size()) >= cascade_bound) {
    reason = Fallback::kDepth;
    return -1;
  }
  Fallback first_fail = Fallback::kNone;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const DispatchFootprint& fp = DispatchFor(queue[i]);
    // A no-op dispatch (no subscribers, no state) commutes with anything,
    // including unknown footprints.
    if (fp.IsNoOp()) return static_cast<int>(i);
    Fallback fail = Fallback::kNone;
    if (fp.unknown) {
      fail = Fallback::kUnknown;
    } else if (fp.visible) {
      fail = Fallback::kVisible;
    } else {
      for (std::size_t j = 0; j < queue.size() && fail == Fallback::kNone;
           ++j) {
        if (j == i) continue;
        const DispatchFootprint& cone = ConeFor(queue[j]);
        if (cone.unknown) {
          fail = Fallback::kUnknown;
        } else if (fp.writes.Intersects(cone.reads) ||
                   fp.writes.Intersects(cone.writes) ||
                   fp.reads.Intersects(cone.writes)) {
          fail = Fallback::kConflict;
        }
      }
    }
    if (fail == Fallback::kNone) return static_cast<int>(i);
    if (first_fail == Fallback::kNone) first_fail = fail;
  }
  reason = first_fail;
  return -1;
}

}  // namespace iotsan::model
