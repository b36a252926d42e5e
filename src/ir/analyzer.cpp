#include "ir/analyzer.hpp"

#include <map>
#include <set>

#include "devices/capability.hpp"
#include "dsl/parser.hpp"
#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace iotsan::ir {

namespace {

using dsl::Expr;
using dsl::ExprKind;
using dsl::ExprPtr;
using dsl::Stmt;
using dsl::StmtKind;
using dsl::StmtPtr;

/// How a command receiver expression resolves.
struct Receiver {
  enum class Kind {
    kInput,      // rooted at a configured device input
    kEvtDevice,  // evt.device — the device that raised the handled event
    kLocation,   // the `location` platform object
    kUnknown,
  };
  Kind kind = Kind::kUnknown;
  std::string input;  // for kInput
};

/// Facts gathered from one method body (not yet propagated over the call
/// graph).
struct MethodFacts {
  std::vector<EventPattern> state_reads;
  std::vector<EventPattern> commands;     // output events
  std::vector<std::string> callees;       // user methods invoked
  bool commands_evt_device = false;       // emitted a command on evt.device
  std::vector<EventPattern> evt_device_commands;
  bool touches_app_state = false;         // reads/writes the `state` map
  bool creates_timer = false;             // arms runIn/runOnce one-shots
};

/// Finds the attribute a command drives by searching every capability;
/// SmartThings command names are unique enough for dependency analysis
/// ("on" -> switch, "unlock" -> lock, "siren" -> alarm, ...).
const devices::CommandSpec* LookupCommand(const std::string& name,
                                          const std::string& capability) {
  const auto& registry = devices::CapabilityRegistry::Instance();
  if (!capability.empty()) {
    if (const devices::CapabilitySpec* cap = registry.Find(capability)) {
      if (const devices::CommandSpec* cmd = cap->FindCommand(name)) {
        return cmd;
      }
    }
  }
  for (const devices::CapabilitySpec& cap : registry.All()) {
    if (const devices::CommandSpec* cmd = cap.FindCommand(name)) return cmd;
  }
  return nullptr;
}

bool WritesContainer(const std::vector<StmtPtr>& body);

/// True if `expr` or anything nested in it (closures and GString
/// fragments included) assigns to a map field or list/map element —
/// anything but `state.x = …` and `location.mode = …`.
bool WritesContainer(const Expr& expr) {
  if (expr.kind == ExprKind::kAssign) {
    const Expr& target = *expr.a;
    if (target.kind == ExprKind::kIndex) return true;
    if (target.kind == ExprKind::kMember &&
        !(target.a->kind == ExprKind::kIdent &&
          (target.a->text == "state" || target.a->text == "location"))) {
      return true;
    }
  }
  for (const Expr* child : {expr.a.get(), expr.b.get(), expr.c.get()}) {
    if (child != nullptr && WritesContainer(*child)) return true;
  }
  for (const ExprPtr& item : expr.items) {
    if (WritesContainer(*item)) return true;
  }
  for (const dsl::NamedArg& arg : expr.named) {
    if (WritesContainer(*arg.value)) return true;
  }
  for (const dsl::StringPart& part : expr.parts) {
    if (part.expr != nullptr && WritesContainer(*part.expr)) return true;
  }
  return WritesContainer(expr.body);
}

bool WritesContainer(const std::vector<StmtPtr>& body) {
  for (const StmtPtr& stmt : body) {
    if ((stmt->expr != nullptr && WritesContainer(*stmt->expr)) ||
        WritesContainer(stmt->body) || WritesContainer(stmt->else_body)) {
      return true;
    }
  }
  return false;
}

class Analyzer {
 public:
  explicit Analyzer(dsl::App app) {
    result_.app = std::move(app);
  }

  AnalyzedApp Run() {
    {
      telemetry::ScopedSpan span("type_infer");
      result_.types = dsl::InferTypes(result_.app);
    }
    if (auto* t = telemetry::Active()) {
      t->pipeline.type_problems += result_.types.problems.size();
    }
    for (const std::string& problem : result_.types.problems) {
      result_.problems.push_back(problem);
    }
    for (const dsl::InputDecl& input : result_.app.inputs) {
      input_capability_[input.name] = InputCapability(input);
    }
    for (const dsl::MethodDecl& method : result_.app.methods) {
      AnalyzeMethod(method);
      result_.writes_containers =
          result_.writes_containers || WritesContainer(method.body);
    }
    BuildHandlers();
    if (result_.dynamic_device_discovery) {
      // Conservative interface for discovery apps (the dynamic-discovery
      // extension): each handler may actuate any device, so it carries a
      // wildcard output that overlaps every input in the dependency graph.
      EventPattern wildcard;
      wildcard.scope = EventScope::kDevice;
      for (HandlerInfo& handler : result_.handlers) {
        handler.outputs.push_back(wildcard);
      }
    }
    return std::move(result_);
  }

 private:
  AnalyzedApp result_;
  std::map<std::string, std::string> input_capability_;
  std::map<std::string, MethodFacts> facts_;
  // Per-method alias map: local variable -> input it aliases.
  std::map<std::string, std::string> aliases_;
  // Stack of closure/loop variable bindings: name -> receiver root.
  std::vector<std::pair<std::string, Receiver>> bindings_;
  const dsl::MethodDecl* current_ = nullptr;

  static std::string InputCapability(const dsl::InputDecl& input) {
    constexpr std::string_view kPrefix = "capability.";
    if (strings::StartsWith(input.type, kPrefix)) {
      return input.type.substr(kPrefix.size());
    }
    if (strings::StartsWith(input.type, "device")) return "actuator";
    return "";
  }

  bool IsDeviceInput(const std::string& name) const {
    auto it = input_capability_.find(name);
    return it != input_capability_.end() && !it->second.empty();
  }

  void Problem(int line, const std::string& message) {
    result_.problems.push_back(result_.app.source_name + ":" +
                               std::to_string(line) + ": " + message);
  }

  // ---- Receiver resolution ----------------------------------------------

  Receiver Resolve(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIdent: {
        if (expr.text == "location") return {Receiver::Kind::kLocation, ""};
        if (IsDeviceInput(expr.text)) {
          return {Receiver::Kind::kInput, expr.text};
        }
        for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
          if (it->first == expr.text) return it->second;
        }
        auto alias = aliases_.find(expr.text);
        if (alias != aliases_.end()) {
          return {Receiver::Kind::kInput, alias->second};
        }
        return {};
      }
      case ExprKind::kMember: {
        // evt.device
        if (expr.text == "device") return {Receiver::Kind::kEvtDevice, ""};
        return Resolve(*expr.a);
      }
      case ExprKind::kIndex:
        return Resolve(*expr.a);
      case ExprKind::kCall: {
        // switches.find{...}, switches.first() etc. stay rooted at the
        // receiver.
        if (expr.a) return Resolve(*expr.a);
        return {};
      }
      case ExprKind::kTernary: {
        Receiver then_r = expr.b ? Resolve(*expr.b) : Resolve(*expr.a);
        if (then_r.kind != Receiver::Kind::kUnknown) return then_r;
        return Resolve(*expr.c);
      }
      default:
        return {};
    }
  }

  // ---- Method walk --------------------------------------------------------

  void AnalyzeMethod(const dsl::MethodDecl& method) {
    current_ = &method;
    aliases_.clear();
    bindings_.clear();
    MethodFacts facts;
    for (const StmtPtr& stmt : method.body) WalkStmt(*stmt, facts);
    facts_[method.name] = std::move(facts);
    current_ = nullptr;
  }

  void WalkStmt(const Stmt& stmt, MethodFacts& facts) {
    switch (stmt.kind) {
      case StmtKind::kVarDecl:
        if (stmt.expr) {
          WalkExpr(*stmt.expr, facts);
          Receiver r = Resolve(*stmt.expr);
          if (r.kind == Receiver::Kind::kInput) {
            aliases_[stmt.name] = r.input;
          }
        }
        break;
      case StmtKind::kExpr:
      case StmtKind::kReturn:
        if (stmt.expr) WalkExpr(*stmt.expr, facts);
        break;
      case StmtKind::kIf:
        WalkExpr(*stmt.expr, facts);
        for (const StmtPtr& s : stmt.body) WalkStmt(*s, facts);
        for (const StmtPtr& s : stmt.else_body) WalkStmt(*s, facts);
        break;
      case StmtKind::kForIn: {
        WalkExpr(*stmt.expr, facts);
        bindings_.emplace_back(stmt.name, Resolve(*stmt.expr));
        for (const StmtPtr& s : stmt.body) WalkStmt(*s, facts);
        bindings_.pop_back();
        break;
      }
      case StmtKind::kWhile:
        WalkExpr(*stmt.expr, facts);
        for (const StmtPtr& s : stmt.body) WalkStmt(*s, facts);
        break;
      case StmtKind::kBlock:
        for (const StmtPtr& s : stmt.body) WalkStmt(*s, facts);
        break;
    }
  }

  void WalkExpr(const Expr& expr, MethodFacts& facts) {
    // Any mention of the persistent `state` map (read or write, including
    // as a member/index receiver) marks the method as touching app state.
    if (expr.kind == ExprKind::kIdent &&
        (expr.text == "state" || expr.text == "atomicState")) {
      facts.touches_app_state = true;
    }
    switch (expr.kind) {
      case ExprKind::kCall:
        WalkCall(expr, facts);
        return;
      case ExprKind::kMember:
        WalkMember(expr, facts);
        return;
      case ExprKind::kAssign:
        WalkAssign(expr, facts);
        return;
      case ExprKind::kClosure:
        for (const StmtPtr& s : expr.body) WalkStmt(*s, facts);
        return;
      default:
        break;
    }
    if (expr.a) WalkExpr(*expr.a, facts);
    if (expr.b) WalkExpr(*expr.b, facts);
    if (expr.c) WalkExpr(*expr.c, facts);
    for (const ExprPtr& item : expr.items) WalkExpr(*item, facts);
    for (const dsl::NamedArg& arg : expr.named) WalkExpr(*arg.value, facts);
  }

  void WalkAssign(const Expr& expr, MethodFacts& facts) {
    WalkExpr(*expr.b, facts);
    const Expr& target = *expr.a;
    // location.mode = "Away" is a location-mode output event.
    if (target.kind == ExprKind::kMember && target.text == "mode" &&
        target.a->kind == ExprKind::kIdent && target.a->text == "location") {
      EventPattern out;
      out.scope = EventScope::kLocationMode;
      out.attribute = "mode";
      if (expr.b->kind == ExprKind::kStringLit) out.value = expr.b->text;
      facts.commands.push_back(std::move(out));
      return;
    }
    if (target.kind == ExprKind::kIdent) {
      Receiver r = Resolve(*expr.b);
      if (r.kind == Receiver::Kind::kInput) aliases_[target.text] = r.input;
    }
    WalkExpr(target, facts);
  }

  void WalkMember(const Expr& expr, MethodFacts& facts) {
    WalkExpr(*expr.a, facts);
    // Device state read: sensor.currentTemperature (input event, §5).
    if (strings::StartsWith(expr.text, "current") && expr.text.size() > 7) {
      Receiver r = Resolve(*expr.a);
      if (r.kind == Receiver::Kind::kInput) {
        std::string attr = expr.text.substr(7);
        attr[0] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(attr[0])));
        EventPattern in;
        in.scope = EventScope::kDevice;
        in.input = r.input;
        in.attribute = attr;
        facts.state_reads.push_back(std::move(in));
      }
      return;
    }
    // location.mode read.
    if (expr.text == "mode" && expr.a->kind == ExprKind::kIdent &&
        expr.a->text == "location") {
      EventPattern in;
      in.scope = EventScope::kLocationMode;
      in.attribute = "mode";
      facts.state_reads.push_back(std::move(in));
    }
  }

  void WalkCall(const Expr& expr, MethodFacts& facts) {
    // Children first (arguments may contain reads/commands too).
    if (expr.a) WalkExpr(*expr.a, facts);
    for (const ExprPtr& item : expr.items) {
      if (item->kind == ExprKind::kClosure) {
        // Closure over a device list binds `it`/params to that input.
        Receiver root = expr.a ? Resolve(*expr.a) : Receiver{};
        std::size_t pushed = 0;
        if (item->params.empty()) {
          bindings_.emplace_back("it", root);
          pushed = 1;
        } else {
          for (const std::string& p : item->params) {
            bindings_.emplace_back(p, root);
            ++pushed;
          }
        }
        for (const StmtPtr& s : item->body) WalkStmt(*s, facts);
        for (std::size_t i = 0; i < pushed; ++i) bindings_.pop_back();
      } else {
        WalkExpr(*item, facts);
      }
    }
    for (const dsl::NamedArg& arg : expr.named) WalkExpr(*arg.value, facts);

    if (!expr.a) {
      WalkFreeCall(expr, facts);
    } else {
      WalkMethodCall(expr, facts);
    }
  }

  std::string HandlerNameFromArg(const Expr& arg) {
    if (arg.kind == ExprKind::kIdent) return arg.text;
    if (arg.kind == ExprKind::kStringLit) return arg.text;
    return "";
  }

  void WalkFreeCall(const Expr& expr, MethodFacts& facts) {
    const std::string& name = expr.text;

    if (name == "subscribe") {
      RecordSubscription(expr);
      return;
    }
    if (name == "unsubscribe") {
      result_.api_uses.push_back({ApiUseKind::kUnsubscribe,
                                  current_ ? current_->name : "", "", false,
                                  expr.line});
      return;
    }
    if (name == "runIn" || name == "runOnce") {
      facts.creates_timer = true;
      if (expr.items.size() >= 2) {
        ScheduleInfo schedule;
        schedule.handler = HandlerNameFromArg(*expr.items[1]);
        schedule.recurring = false;
        if (expr.items[0]->kind == ExprKind::kNumberLit) {
          schedule.delay_seconds =
              static_cast<int>(expr.items[0]->number_value);
        }
        if (!schedule.handler.empty()) {
          result_.schedules.push_back(std::move(schedule));
        }
      }
      return;
    }
    if (name == "schedule") {
      if (expr.items.size() >= 2) {
        ScheduleInfo schedule;
        schedule.handler = HandlerNameFromArg(*expr.items[1]);
        schedule.recurring = true;
        if (!schedule.handler.empty()) {
          result_.schedules.push_back(std::move(schedule));
        }
      }
      return;
    }
    if (strings::StartsWith(name, "runEvery")) {
      if (!expr.items.empty()) {
        ScheduleInfo schedule;
        schedule.handler = HandlerNameFromArg(*expr.items[0]);
        schedule.recurring = true;
        if (!schedule.handler.empty()) {
          result_.schedules.push_back(std::move(schedule));
        }
      }
      return;
    }
    if (name == "setLocationMode" || name == "sendLocationEvent") {
      EventPattern out;
      out.scope = EventScope::kLocationMode;
      out.attribute = "mode";
      if (!expr.items.empty() &&
          expr.items[0]->kind == ExprKind::kStringLit) {
        out.value = expr.items[0]->text;
      }
      facts.commands.push_back(std::move(out));
      return;
    }
    if (name == "sendEvent" || name == "createFakeEvent") {
      // A synthetic event injected by the app (security-sensitive, §8).
      EventPattern out;
      out.scope = EventScope::kDevice;
      for (const dsl::NamedArg& arg : expr.named) {
        if (arg.name == "name" && arg.value->kind == ExprKind::kStringLit) {
          out.attribute = arg.value->text;
        }
        if (arg.name == "value" && arg.value->kind == ExprKind::kStringLit) {
          out.value = arg.value->text;
        }
      }
      result_.api_uses.push_back({ApiUseKind::kFakeEvent,
                                  current_ ? current_->name : "", "", false,
                                  expr.line});
      if (!out.attribute.empty()) facts.commands.push_back(std::move(out));
      return;
    }
    if (name == "sendSms" || name == "sendSmsMessage") {
      ApiUse use;
      use.kind = ApiUseKind::kSms;
      use.handler = current_ ? current_->name : "";
      use.line = expr.line;
      if (!expr.items.empty()) {
        if (expr.items[0]->kind == ExprKind::kStringLit) {
          use.recipient = expr.items[0]->text;
          use.recipient_is_literal = true;
        } else if (expr.items[0]->kind == ExprKind::kIdent) {
          use.recipient = expr.items[0]->text;
        }
      }
      result_.api_uses.push_back(std::move(use));
      return;
    }
    if (name == "sendPush" || name == "sendPushMessage" ||
        name == "sendNotification" || name == "sendNotificationEvent" ||
        name == "sendNotificationToContacts") {
      result_.api_uses.push_back({ApiUseKind::kPush,
                                  current_ ? current_->name : "", "", false,
                                  expr.line});
      return;
    }
    if (name == "httpPost" || name == "httpGet" || name == "httpPostJson") {
      result_.api_uses.push_back({ApiUseKind::kHttp,
                                  current_ ? current_->name : "", "", false,
                                  expr.line});
      return;
    }
    if (name == "getAllDevices" || name == "getChildDevices" ||
        name == "findAllDevices" || name == "discoverDevices") {
      result_.dynamic_device_discovery = true;
      return;
    }
    // A call to a user-defined method: record the call edge.
    if (result_.app.FindMethod(name) != nullptr) {
      facts.callees.push_back(name);
    }
  }

  void RecordSubscription(const Expr& expr) {
    if (expr.items.size() < 2) {
      Problem(expr.line, "subscribe needs at least 2 arguments");
      return;
    }
    Subscription sub;
    const Expr& target = *expr.items[0];
    if (target.kind == ExprKind::kIdent && target.text == "app") {
      sub.scope = EventScope::kAppTouch;
      sub.handler = HandlerNameFromArg(*expr.items.back());
    } else if (target.kind == ExprKind::kIdent && target.text == "location") {
      sub.scope = EventScope::kLocationMode;
      sub.attribute = "mode";
      if (expr.items.size() >= 3 &&
          expr.items[1]->kind == ExprKind::kStringLit) {
        // subscribe(location, "mode", handler); a specific mode may be
        // given as "mode.Away".
        std::string spec = expr.items[1]->text;
        auto dot = spec.find('.');
        if (dot != std::string::npos) sub.value = spec.substr(dot + 1);
      }
      sub.handler = HandlerNameFromArg(*expr.items.back());
    } else {
      Receiver r = Resolve(target);
      if (r.kind != Receiver::Kind::kInput) {
        Problem(expr.line,
                "subscribe target is not a configured device input");
        return;
      }
      if (expr.items.size() < 3 ||
          expr.items[1]->kind != ExprKind::kStringLit) {
        Problem(expr.line, "subscribe needs an \"attribute[.value]\" string");
        return;
      }
      sub.scope = EventScope::kDevice;
      sub.input = r.input;
      std::string spec = expr.items[1]->text;
      auto dot = spec.find('.');
      if (dot == std::string::npos) {
        sub.attribute = spec;
      } else {
        sub.attribute = spec.substr(0, dot);
        sub.value = spec.substr(dot + 1);
      }
      sub.handler = HandlerNameFromArg(*expr.items[2]);
    }
    if (sub.handler.empty()) {
      Problem(expr.line, "subscribe handler must be a method reference");
      return;
    }
    if (result_.app.FindMethod(sub.handler) == nullptr) {
      Problem(expr.line, "subscribe references unknown handler '" +
                             sub.handler + "'");
      return;
    }
    result_.subscriptions.push_back(std::move(sub));
  }

  void WalkMethodCall(const Expr& expr, MethodFacts& facts) {
    Receiver r = Resolve(*expr.a);
    if (r.kind == Receiver::Kind::kLocation) return;
    if (r.kind == Receiver::Kind::kUnknown) return;

    // Reads expressed as methods: currentValue("attr"), latestValue.
    if (expr.text == "currentValue" || expr.text == "latestValue" ||
        expr.text == "currentState" || expr.text == "latestState") {
      if (r.kind == Receiver::Kind::kInput && !expr.items.empty() &&
          expr.items[0]->kind == ExprKind::kStringLit) {
        EventPattern in;
        in.scope = EventScope::kDevice;
        in.input = r.input;
        in.attribute = expr.items[0]->text;
        facts.state_reads.push_back(std::move(in));
      }
      return;
    }

    const std::string capability =
        r.kind == Receiver::Kind::kInput ? input_capability_.at(r.input) : "";
    const devices::CommandSpec* cmd = LookupCommand(expr.text, capability);
    if (cmd == nullptr) return;  // list utility / string method / etc.

    EventPattern out;
    out.scope = EventScope::kDevice;
    out.attribute = cmd->attribute;
    if (!cmd->takes_argument) {
      out.value = cmd->value;
    } else if (!expr.items.empty()) {
      if (expr.items[0]->kind == ExprKind::kStringLit) {
        out.value = expr.items[0]->text;
      } else if (expr.items[0]->kind == ExprKind::kNumberLit) {
        out.value = strings::FormatNumber(expr.items[0]->number_value);
      }
    }
    if (r.kind == Receiver::Kind::kInput) {
      out.input = r.input;
      facts.commands.push_back(std::move(out));
    } else {  // evt.device
      facts.commands_evt_device = true;
      facts.evt_device_commands.push_back(std::move(out));
    }
  }

  // ---- Handler construction (call-graph closure) ---------------------------

  void BuildHandlers() {
    // Entry points: every subscription/schedule target.
    std::vector<std::string> entries;
    auto add_entry = [&entries](const std::string& name) {
      for (const std::string& e : entries) {
        if (e == name) return;
      }
      entries.push_back(name);
    };
    for (const Subscription& sub : result_.subscriptions) {
      add_entry(sub.handler);
    }
    for (const ScheduleInfo& schedule : result_.schedules) {
      if (result_.app.FindMethod(schedule.handler) != nullptr) {
        add_entry(schedule.handler);
      }
    }

    for (const std::string& entry : entries) {
      HandlerInfo handler;
      handler.name = entry;

      // Inputs: subscriptions targeting this handler.
      for (const Subscription& sub : result_.subscriptions) {
        if (sub.handler != entry) continue;
        EventPattern in;
        in.scope = sub.scope;
        in.input = sub.input;
        in.attribute = sub.attribute;
        in.value = sub.value;
        AddUnique(handler.inputs, in);
      }
      for (const ScheduleInfo& schedule : result_.schedules) {
        if (schedule.handler != entry) continue;
        EventPattern in;
        in.scope = EventScope::kTime;
        AddUnique(handler.inputs, in);
      }

      // Reachable facts over the call graph.
      std::set<std::string> visited;
      CollectReachable(entry, entry, visited, handler);
      result_.handlers.push_back(std::move(handler));
    }
  }

  static void AddUnique(std::vector<EventPattern>& list,
                        const EventPattern& pattern) {
    for (const EventPattern& existing : list) {
      if (existing == pattern) return;
    }
    list.push_back(pattern);
  }

  void CollectReachable(const std::string& entry, const std::string& method,
                        std::set<std::string>& visited, HandlerInfo& handler) {
    if (!visited.insert(method).second) return;
    auto it = facts_.find(method);
    if (it == facts_.end()) return;
    const MethodFacts& facts = it->second;

    for (const EventPattern& read : facts.state_reads) {
      AddUnique(handler.inputs, read);
    }
    for (const EventPattern& command : facts.commands) {
      AddUnique(handler.outputs, command);
    }
    handler.touches_app_state |= facts.touches_app_state;
    handler.creates_timer |= facts.creates_timer;
    if (facts.commands_evt_device) {
      // Commands on evt.device actuate whichever device input this
      // handler is subscribed to.
      for (const Subscription& sub : result_.subscriptions) {
        if (sub.handler != entry || sub.scope != EventScope::kDevice) {
          continue;
        }
        for (EventPattern command : facts.evt_device_commands) {
          command.input = sub.input;
          AddUnique(handler.outputs, command);
        }
      }
    }
    for (const std::string& callee : facts.callees) {
      CollectReachable(entry, callee, visited, handler);
    }
  }
};

}  // namespace

AnalyzedApp AnalyzeApp(dsl::App app) {
  return Analyzer(std::move(app)).Run();
}

AnalyzedApp AnalyzeSource(std::string_view source,
                          std::string_view source_name) {
  dsl::App app = [&] {
    telemetry::ScopedSpan span("parse");
    span.Attr("app", source_name);
    if (auto* t = telemetry::Active()) ++t->pipeline.apps_parsed;
    return dsl::ParseApp(source, source_name);
  }();
  return AnalyzeApp(std::move(app));
}

}  // namespace iotsan::ir
