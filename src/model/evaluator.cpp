#include "model/evaluator.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "dsl/printer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace iotsan::model {

namespace {

using dsl::BinaryOp;
using dsl::Expr;
using dsl::ExprKind;
using dsl::Stmt;
using dsl::StmtKind;

/// The `evt` object a handler receives for `event`.
Value MakeEventValue(const SystemModel& model, const devices::Event& event) {
  ValueMap fields;
  switch (event.source) {
    case devices::EventSource::kDevice: {
      const devices::Device& device = model.devices()[event.device];
      const devices::AttributeSpec& attr =
          *device.attributes()[event.attribute];
      fields["name"] = Value::String(attr.name);
      fields["value"] = Value::String(attr.ValueName(event.value));
      if (attr.kind == devices::AttributeKind::kNumeric) {
        fields["numericValue"] = Value::Number(attr.NumericAt(event.value));
        fields["doubleValue"] = fields["numericValue"];
        fields["integerValue"] = fields["numericValue"];
      }
      fields["device"] = Value::Device(event.device);
      fields["deviceId"] = Value::String(device.id());
      fields["displayName"] = Value::String(device.id());
      break;
    }
    case devices::EventSource::kLocationMode:
      fields["name"] = Value::String("mode");
      fields["value"] = Value::String(model.modes()[event.value]);
      break;
    case devices::EventSource::kAppTouch:
      fields["name"] = Value::String("touch");
      fields["value"] = Value::String("touched");
      break;
    case devices::EventSource::kTimer:
      fields["name"] = Value::String("timer");
      fields["value"] = Value::String("fired");
      break;
  }
  fields["isStateChange"] = Value::Bool(true);
  fields["descriptionText"] =
      Value::String(fields["name"].ToDisplayString() + " is " +
                    fields["value"].ToDisplayString());
  return Value::Map(std::move(fields));
}

/// Thrown to unwind to the enclosing method on `return`.
struct ReturnSignal {
  Value value;
};

class Interp {
 public:
  Interp(const SystemModel& model, SystemState& state,
         std::deque<devices::Event>& queue, CascadeLog& log,
         const FailureScenario& failure, int app_index, bool notes,
         EventValueCache* event_values)
      : model_(model),
        state_(state),
        queue_(queue),
        log_(log),
        failure_(failure),
        app_index_(app_index),
        app_(model.apps()[app_index]),
        notes_(notes),
        event_values_(app_.analysis.writes_containers ? nullptr
                                                      : event_values) {}

  void Invoke(const std::string& method_name, const devices::Event* event) {
    const dsl::MethodDecl* method = app_.analysis.app.FindMethod(method_name);
    if (method == nullptr) {
      throw SemanticError("app '" + app_.config.label +
                          "' has no handler '" + method_name + "'");
    }
    ValueList args;
    if (!method->params.empty()) {
      if (event == nullptr) {
        args.push_back(Value::Null());
      } else if (event_values_ != nullptr) {
        args.push_back(event_values_->Get(model_, *event));
      } else {
        args.push_back(MakeEventValue(model_, *event));
      }
    }
    CallMethod(*method, args);
  }

 private:
  const SystemModel& model_;
  SystemState& state_;
  std::deque<devices::Event>& queue_;
  CascadeLog& log_;
  const FailureScenario& failure_;
  int app_index_;
  const InstalledApp& app_;
  const bool notes_;  // record Fig. 7 trace lines
  // Shared event objects; null when this app may write into them.
  EventValueCache* const event_values_;
  std::vector<std::map<std::string, Value>> scopes_;
  int steps_ = 0;

  void Budget() {
    if (++steps_ > Evaluator::kStepBudget) {
      throw Error("app '" + app_.config.label +
                  "': evaluation step budget exceeded (unbounded loop?)");
    }
  }

  [[noreturn]] void Fail(int line, const std::string& message) {
    throw SemanticError(app_.analysis.app.source_name + ":" +
                        std::to_string(line) + ": " + message);
  }

  /// Records a Fig. 7 note when notes are on.  Call sites that format
  /// `code` check notes_ first, so nothing is built when they are off.
  void Trace(int line, const std::string& code) {
    if (!notes_) return;
    log_.trace.push_back(app_.analysis.app.source_name + ":" +
                         std::to_string(line) + "\t[" + code + "]");
  }

  // ---- Environment ---------------------------------------------------------

  Value CallMethod(const dsl::MethodDecl& method, const ValueList& args) {
    const std::size_t saved_depth = scopes_.size();
    if (saved_depth > 64) {
      throw Error("app '" + app_.config.label + "': call depth exceeded");
    }
    scopes_.emplace_back();
    for (std::size_t i = 0; i < method.params.size(); ++i) {
      scopes_.back()[method.params[i]] =
          i < args.size() ? args[i] : Value::Null();
    }
    Value result;
    try {
      result = ExecBody(method.body);
    } catch (const ReturnSignal& ret) {
      result = ret.value;
    }
    scopes_.resize(saved_depth);
    return result;
  }

  Value* FindVariable(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  /// The app's persistent `state` map when `expr` is the bare `state`
  /// identifier (not shadowed by a local or an input), so reads look a
  /// key up in place instead of copying the map into a Value.  Ticks the
  /// budget step the skipped receiver evaluation would have taken.
  const ValueMap* AppStateOf(const Expr& expr) {
    if (expr.kind != ExprKind::kIdent || expr.text != "state" ||
        FindVariable(expr.text) != nullptr ||
        app_.bindings.count(expr.text) > 0) {
      return nullptr;
    }
    Budget();
    return &state_.app_state[app_index_];
  }

  // ---- Statements -----------------------------------------------------------

  /// Executes a body; the value of the trailing expression statement is
  /// the Groovy implicit return value.
  Value ExecBody(const std::vector<dsl::StmtPtr>& body) {
    Value last;
    for (std::size_t i = 0; i < body.size(); ++i) {
      last = ExecStmt(*body[i]);
      if (i + 1 < body.size()) last = Value::Null();
    }
    return last;
  }

  Value ExecStmt(const Stmt& stmt) {
    Budget();
    switch (stmt.kind) {
      case StmtKind::kExpr:
        return Eval(*stmt.expr);
      case StmtKind::kVarDecl: {
        Value init = stmt.expr ? Eval(*stmt.expr) : Value::Null();
        scopes_.back()[stmt.name] = std::move(init);
        return Value::Null();
      }
      case StmtKind::kIf: {
        if (Eval(*stmt.expr).Truthy()) {
          scopes_.emplace_back();
          Value v = ExecBody(stmt.body);
          scopes_.pop_back();
          return v;
        }
        scopes_.emplace_back();
        Value v = ExecBody(stmt.else_body);
        scopes_.pop_back();
        return v;
      }
      case StmtKind::kReturn:
        throw ReturnSignal{stmt.expr ? Eval(*stmt.expr) : Value::Null()};
      case StmtKind::kForIn: {
        Value iterable = Eval(*stmt.expr);
        if (!iterable.is_list()) {
          if (iterable.is_null()) return Value::Null();
          Fail(stmt.line, "for-in expects a list");
        }
        scopes_.emplace_back();
        for (const Value& item : iterable.AsList()) {
          Budget();
          scopes_.back()[stmt.name] = item;
          ExecBody(stmt.body);
        }
        scopes_.pop_back();
        return Value::Null();
      }
      case StmtKind::kWhile: {
        scopes_.emplace_back();
        while (Eval(*stmt.expr).Truthy()) {
          Budget();
          ExecBody(stmt.body);
        }
        scopes_.pop_back();
        return Value::Null();
      }
      case StmtKind::kBlock: {
        scopes_.emplace_back();
        Value v = ExecBody(stmt.body);
        scopes_.pop_back();
        return v;
      }
    }
    return Value::Null();
  }

  // ---- Expressions ------------------------------------------------------------

  Value Eval(const Expr& expr) {
    Budget();
    switch (expr.kind) {
      case ExprKind::kNullLit:
        return Value::Null();
      case ExprKind::kBoolLit:
        return Value::Bool(expr.bool_value);
      case ExprKind::kNumberLit:
        return Value::Number(expr.number_value);
      case ExprKind::kStringLit:
        return Value::String(Interpolate(expr));
      case ExprKind::kListLit: {
        ValueList items;
        items.reserve(expr.items.size());
        for (const dsl::ExprPtr& item : expr.items) {
          items.push_back(Eval(*item));
        }
        return Value::List(std::move(items));
      }
      case ExprKind::kMapLit: {
        ValueMap entries;
        for (const dsl::NamedArg& entry : expr.named) {
          entries[entry.name] = Eval(*entry.value);
        }
        return Value::Map(std::move(entries));
      }
      case ExprKind::kIdent:
        return EvalIdent(expr);
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kUnary: {
        Value operand = Eval(*expr.a);
        if (expr.unary_op == dsl::UnaryOp::kNot) {
          return Value::Bool(!operand.Truthy());
        }
        if (!operand.is_number()) Fail(expr.line, "unary '-' needs a number");
        return Value::Number(-operand.AsNumber());
      }
      case ExprKind::kTernary: {
        Value cond = Eval(*expr.a);
        if (!expr.b) {  // elvis
          return cond.Truthy() ? cond : Eval(*expr.c);
        }
        return cond.Truthy() ? Eval(*expr.b) : Eval(*expr.c);
      }
      case ExprKind::kCall:
        return EvalCall(expr);
      case ExprKind::kMember:
        return EvalMember(expr);
      case ExprKind::kIndex: {
        if (const ValueMap* app_state = AppStateOf(*expr.a)) {
          const std::string key = Eval(*expr.b).ToDisplayString();
          auto it = app_state->find(key);
          return it != app_state->end() ? it->second : Value::Null();
        }
        Value recv = Eval(*expr.a);
        Value index = Eval(*expr.b);
        if (recv.is_list()) {
          if (!index.is_number()) Fail(expr.line, "list index must be a number");
          const auto i = static_cast<std::size_t>(index.AsNumber());
          if (i >= recv.AsList().size()) return Value::Null();
          return recv.AsList()[i];
        }
        if (recv.is_map()) {
          auto it = recv.AsMap().find(index.ToDisplayString());
          return it != recv.AsMap().end() ? it->second : Value::Null();
        }
        if (recv.is_null()) return Value::Null();
        Fail(expr.line, "indexing needs a list or map");
      }
      case ExprKind::kClosure:
        return Value::Closure(&expr);
      case ExprKind::kAssign:
        return EvalAssign(expr);
    }
    return Value::Null();
  }

  /// GString interpolation: replaces each `${…}` fragment (parsed with
  /// the literal) by its value; one that fails to evaluate stays
  /// verbatim.
  std::string Interpolate(const Expr& literal) {
    if (literal.parts.empty()) return literal.text;
    std::string out;
    for (const dsl::StringPart& part : literal.parts) {
      if (part.expr == nullptr) {
        out += part.text;
        continue;
      }
      try {
        out += Eval(*part.expr).ToDisplayString();
      } catch (const Error&) {
        out += part.text;
      }
    }
    return out;
  }

  Value EvalIdent(const Expr& expr) {
    const std::string& name = expr.text;
    if (Value* local = FindVariable(name)) return *local;
    auto binding = app_.bindings.find(name);
    if (binding != app_.bindings.end()) return binding->second;
    if (name == "state") {
      return Value::Map(state_.app_state[app_index_]);
    }
    if (name == "location" || name == "app" || name == "log" ||
        name == "Math" || name == "settings") {
      // Platform objects: handled structurally by member/call evaluation.
      return Value::String("<" + name + ">");
    }
    // Groovy resolves unknown names to null-ish bindings; surface a
    // diagnostic instead — apps in the corpus must be fully resolved.
    Fail(expr.line, "unknown identifier '" + name + "'");
  }

  Value EvalBinary(const Expr& expr) {
    if (expr.binary_op == BinaryOp::kAnd) {
      return Value::Bool(Eval(*expr.a).Truthy() && Eval(*expr.b).Truthy());
    }
    if (expr.binary_op == BinaryOp::kOr) {
      return Value::Bool(Eval(*expr.a).Truthy() || Eval(*expr.b).Truthy());
    }
    Value lhs = Eval(*expr.a);
    Value rhs = Eval(*expr.b);
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        if (lhs.is_list()) {
          ValueList joined = lhs.AsList();
          if (rhs.is_list()) {
            joined.insert(joined.end(), rhs.AsList().begin(),
                          rhs.AsList().end());
          } else if (!rhs.is_null()) {
            joined.push_back(rhs);
          }
          return Value::List(std::move(joined));
        }
        if (lhs.is_string() || rhs.is_string()) {
          return Value::String(lhs.ToDisplayString() + rhs.ToDisplayString());
        }
        if (lhs.is_number() && rhs.is_number()) {
          return Value::Number(lhs.AsNumber() + rhs.AsNumber());
        }
        Fail(expr.line, "invalid operands to '+'");
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        if (!lhs.is_number() || !rhs.is_number()) {
          Fail(expr.line, "arithmetic needs numbers");
        }
        const double a = lhs.AsNumber();
        const double b = rhs.AsNumber();
        switch (expr.binary_op) {
          case BinaryOp::kSub: return Value::Number(a - b);
          case BinaryOp::kMul: return Value::Number(a * b);
          case BinaryOp::kDiv:
            if (b == 0) Fail(expr.line, "division by zero");
            return Value::Number(a / b);
          default:
            if (b == 0) Fail(expr.line, "modulo by zero");
            return Value::Number(std::fmod(a, b));
        }
      }
      case BinaryOp::kEq:
        return Value::Bool(lhs.Equals(rhs));
      case BinaryOp::kNe:
        return Value::Bool(!lhs.Equals(rhs));
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        double a = 0, b = 0;
        if (lhs.is_number() && rhs.is_number()) {
          a = lhs.AsNumber();
          b = rhs.AsNumber();
        } else if (lhs.is_string() && rhs.is_string()) {
          const int cmp = lhs.AsString().compare(rhs.AsString());
          a = cmp;
          b = 0;
        } else {
          Fail(expr.line, "invalid comparison operands");
        }
        switch (expr.binary_op) {
          case BinaryOp::kLt: return Value::Bool(a < b);
          case BinaryOp::kLe: return Value::Bool(a <= b);
          case BinaryOp::kGt: return Value::Bool(a > b);
          default: return Value::Bool(a >= b);
        }
      }
      case BinaryOp::kIn: {
        if (rhs.is_list()) {
          for (const Value& item : rhs.AsList()) {
            if (item.Equals(lhs)) return Value::Bool(true);
          }
          return Value::Bool(false);
        }
        if (rhs.is_map()) {
          return Value::Bool(rhs.AsMap().count(lhs.ToDisplayString()) > 0);
        }
        if (rhs.is_string() && lhs.is_string()) {
          return Value::Bool(rhs.AsString().find(lhs.AsString()) !=
                             std::string::npos);
        }
        Fail(expr.line, "'in' needs a list, map, or string on the right");
      }
      default:
        Fail(expr.line, "unsupported binary operator");
    }
  }

  Value EvalAssign(const Expr& expr) {
    Value value = Eval(*expr.b);
    const Expr& target = *expr.a;

    auto combine = [&](const Value& old) -> Value {
      if (expr.assign_op == dsl::AssignOp::kAssign) return value;
      if (!old.is_number() || !value.is_number()) {
        Fail(expr.line, "+=/-= need numbers");
      }
      return Value::Number(expr.assign_op == dsl::AssignOp::kAddAssign
                               ? old.AsNumber() + value.AsNumber()
                               : old.AsNumber() - value.AsNumber());
    };

    if (target.kind == ExprKind::kIdent) {
      if (Value* slot = FindVariable(target.text)) {
        *slot = combine(*slot);
        return *slot;
      }
      // Undeclared: bind in the current scope (Groovy script binding).
      Value result = combine(Value::Null());
      scopes_.back()[target.text] = result;
      return result;
    }

    if (target.kind == ExprKind::kMember) {
      // state.foo = v  — persistent app state.
      if (target.a->kind == ExprKind::kIdent && target.a->text == "state") {
        auto& state_map = state_.app_state[app_index_];
        Value old;
        auto it = state_map.find(target.text);
        if (it != state_map.end()) old = it->second;
        Value result = combine(old);
        switch (result.kind()) {
          case Value::Kind::kNull:
          case Value::Kind::kBool:
          case Value::Kind::kNumber:
          case Value::Kind::kString:
            break;
          default:
            Fail(expr.line, "state entries must be scalars");
        }
        state_map[target.text] = result;
        return result;
      }
      // location.mode = "Away".
      if (target.text == "mode" && target.a->kind == ExprKind::kIdent &&
          target.a->text == "location") {
        if (!value.is_string()) Fail(expr.line, "mode must be a string");
        SetLocationMode(value.AsString(), expr.line);
        return value;
      }
      // Map field assignment.
      Value recv = Eval(*target.a);
      if (recv.is_map()) {
        recv.MutableMap()[target.text] = combine(Value::Null());
        return value;
      }
      Fail(expr.line, "unsupported assignment target");
    }

    if (target.kind == ExprKind::kIndex) {
      Value recv = Eval(*target.a);
      Value index = Eval(*target.b);
      if (recv.is_list() && index.is_number()) {
        auto i = static_cast<std::size_t>(index.AsNumber());
        if (i < recv.MutableList().size()) {
          recv.MutableList()[i] = value;
        }
        return value;
      }
      if (recv.is_map()) {
        recv.MutableMap()[index.ToDisplayString()] = value;
        return value;
      }
    }
    Fail(expr.line, "unsupported assignment target");
  }

  Value EvalMember(const Expr& expr) {
    // state.foo read.
    if (expr.a->kind == ExprKind::kIdent && expr.a->text == "state") {
      const auto& state_map = state_.app_state[app_index_];
      auto it = state_map.find(expr.text);
      return it != state_map.end() ? it->second : Value::Null();
    }
    // location.*
    if (expr.a->kind == ExprKind::kIdent && expr.a->text == "location") {
      if (expr.text == "mode") {
        return Value::String(model_.modes()[state_.mode]);
      }
      if (expr.text == "modes") {
        ValueList modes;
        for (const std::string& m : model_.modes()) {
          modes.push_back(Value::String(m));
        }
        return Value::List(std::move(modes));
      }
      if (expr.text == "name") return Value::String("Home");
      return Value::Null();
    }

    Value recv = Eval(*expr.a);
    if (recv.is_null()) {
      if (expr.safe_navigation) return Value::Null();
      Fail(expr.line, "member '" + expr.text + "' on null");
    }
    return MemberOf(recv, expr.text, expr.line);
  }

  Value MemberOf(const Value& recv, const std::string& name, int line) {
    if (recv.is_device()) {
      return DeviceMember(recv.DeviceIndex(), name, line);
    }
    if (recv.is_map()) {
      auto it = recv.AsMap().find(name);
      return it != recv.AsMap().end() ? it->second : Value::Null();
    }
    if (recv.is_list()) {
      if (name == "size") {
        return Value::Number(static_cast<double>(recv.AsList().size()));
      }
      if (name == "first") {
        return recv.AsList().empty() ? Value::Null() : recv.AsList().front();
      }
      if (name == "last") {
        return recv.AsList().empty() ? Value::Null() : recv.AsList().back();
      }
      // Groovy spread: devices.currentSwitch.
      ValueList mapped;
      for (const Value& item : recv.AsList()) {
        mapped.push_back(MemberOf(item, name, line));
      }
      return Value::List(std::move(mapped));
    }
    if (recv.is_string()) {
      if (name == "length" || name == "size") {
        return Value::Number(static_cast<double>(recv.AsString().size()));
      }
    }
    return Value::Null();
  }

  Value DeviceMember(int device_index, const std::string& name, int line) {
    const devices::Device& device = model_.devices()[device_index];
    if (name == "id" || name == "label" || name == "displayName" ||
        name == "name") {
      return Value::String(device.id());
    }
    if (strings::StartsWith(name, "current") && name.size() > 7) {
      std::string attr_name = name.substr(7);
      attr_name[0] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(attr_name[0])));
      return ReadAttribute(device_index, attr_name, line);
    }
    Fail(line, "unknown device member '" + name + "'");
  }

  Value ReadAttribute(int device_index, const std::string& attr_name,
                      int line) {
    const devices::Device& device = model_.devices()[device_index];
    const int attr_index = device.AttributeIndex(attr_name);
    if (attr_index < 0) {
      Fail(line, "device '" + device.id() + "' has no attribute '" +
                     attr_name + "'");
    }
    const devices::AttributeSpec& attr = *device.attributes()[attr_index];
    const int value = state_.devices[device_index].values[attr_index];
    if (attr.kind == devices::AttributeKind::kNumeric) {
      return Value::Number(attr.NumericAt(value));
    }
    return Value::String(attr.ValueName(value));
  }

  // ---- Calls ---------------------------------------------------------------

  Value EvalCall(const Expr& expr) {
    if (!expr.a) return EvalFreeCall(expr);

    // log.debug(...) and friends: ignore, but evaluate args for effects.
    if (expr.a->kind == ExprKind::kIdent && expr.a->text == "log") {
      for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
      return Value::Null();
    }
    // Math.xyz(...).
    if (expr.a->kind == ExprKind::kIdent && expr.a->text == "Math") {
      return EvalMathCall(expr);
    }

    if (expr.text == "get" || expr.text == "containsKey") {
      if (const ValueMap* app_state = AppStateOf(*expr.a)) {
        return MapCall(*app_state, expr);
      }
    }
    Value recv = Eval(*expr.a);
    if (recv.is_null()) {
      if (expr.safe_navigation) return Value::Null();
      Fail(expr.line, "method '" + expr.text + "' on null");
    }
    return EvalMethodCall(recv, expr);
  }

  Value EvalMathCall(const Expr& expr) {
    ValueList args;
    for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
    auto num = [&](std::size_t i) -> double {
      if (i >= args.size() || !args[i].is_number()) {
        Fail(expr.line, "Math." + expr.text + " needs numeric arguments");
      }
      return args[i].AsNumber();
    };
    if (expr.text == "abs") return Value::Number(std::abs(num(0)));
    if (expr.text == "max") return Value::Number(std::max(num(0), num(1)));
    if (expr.text == "min") return Value::Number(std::min(num(0), num(1)));
    if (expr.text == "round") return Value::Number(std::round(num(0)));
    if (expr.text == "floor") return Value::Number(std::floor(num(0)));
    if (expr.text == "ceil") return Value::Number(std::ceil(num(0)));
    Fail(expr.line, "unknown Math function '" + expr.text + "'");
  }

  Value CallClosure(const Expr& closure, const ValueList& args) {
    scopes_.emplace_back();
    if (closure.params.empty()) {
      scopes_.back()["it"] = args.empty() ? Value::Null() : args[0];
    } else {
      for (std::size_t i = 0; i < closure.params.size(); ++i) {
        scopes_.back()[closure.params[i]] =
            i < args.size() ? args[i] : Value::Null();
      }
    }
    Value result;
    try {
      result = ExecBody(closure.body);
    } catch (const ReturnSignal& ret) {
      result = ret.value;
    }
    scopes_.pop_back();
    return result;
  }

  Value EvalFreeCall(const Expr& expr) {
    const std::string& name = expr.text;

    // Lifecycle/registration APIs are modeled statically; at runtime they
    // are inert (the Model Generator already registered callbacks, §8).
    if (name == "subscribe" || name == "unschedule" || name == "pause" ||
        name == "initialize" || name == "updated") {
      for (const dsl::ExprPtr& arg : expr.items) {
        if (arg->kind != ExprKind::kIdent) Eval(*arg);
      }
      return Value::Null();
    }
    if (name == "unsubscribe") {
      log_.api_calls.push_back({ApiCallRecord::Kind::kUnsubscribe,
                                app_index_, app_.config.label, false,
                                expr.line});
      Trace(expr.line, "unsubscribe()");
      return Value::Null();
    }
    if (name == "runIn" || name == "runOnce") {
      if (expr.items.size() >= 2) {
        RegisterTimer(HandlerName(*expr.items[1]), expr.line);
      }
      return Value::Null();
    }
    if (name == "schedule") {
      return Value::Null();  // recurring schedules fire via timer ticks
    }
    if (strings::StartsWith(name, "runEvery")) {
      return Value::Null();
    }
    if (name == "setLocationMode") {
      if (expr.items.empty()) Fail(expr.line, "setLocationMode needs a mode");
      Value mode = Eval(*expr.items[0]);
      if (!mode.is_string()) Fail(expr.line, "mode must be a string");
      SetLocationMode(mode.AsString(), expr.line);
      return Value::Null();
    }
    if (name == "sendLocationEvent") {
      for (const dsl::NamedArg& arg : expr.named) {
        if (arg.name == "value") {
          Value mode = Eval(*arg.value);
          if (mode.is_string()) SetLocationMode(mode.AsString(), expr.line);
        }
      }
      return Value::Null();
    }
    if (name == "sendEvent" || name == "createFakeEvent") {
      EmitFakeEvent(expr);
      return Value::Null();
    }
    if (name == "sendSms" || name == "sendSmsMessage") {
      ApiCallRecord record;
      record.kind = ApiCallRecord::Kind::kSms;
      record.app = app_index_;
      record.line = expr.line;
      if (!expr.items.empty()) {
        Value to = Eval(*expr.items[0]);
        record.detail = to.ToDisplayString();
        record.recipient_mismatch =
            record.detail != model_.deployment().contact_phone;
      }
      if (expr.items.size() > 1) Eval(*expr.items[1]);
      if (!record.recipient_mismatch) log_.user_notified = true;
      log_.api_calls.push_back(std::move(record));
      Trace(expr.line, "sendSms(...)");
      return Value::Null();
    }
    if (name == "sendPush" || name == "sendPushMessage" ||
        name == "sendNotification" || name == "sendNotificationEvent" ||
        name == "sendNotificationToContacts") {
      for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
      log_.api_calls.push_back({ApiCallRecord::Kind::kPush, app_index_,
                                "push", false, expr.line});
      log_.user_notified = true;
      Trace(expr.line, "sendPush(...)");
      return Value::Null();
    }
    if (name == "httpPost" || name == "httpGet" || name == "httpPostJson") {
      std::string detail;
      if (!expr.items.empty()) detail = Eval(*expr.items[0]).ToDisplayString();
      log_.api_calls.push_back({ApiCallRecord::Kind::kHttp, app_index_,
                                detail, false, expr.line});
      if (notes_) Trace(expr.line, name + "(...)");
      return Value::Null();
    }
    if (name == "getAllDevices" || name == "getChildDevices" ||
        name == "findAllDevices" || name == "discoverDevices") {
      // Dynamic-discovery extension: hand the app every installed device.
      if (!model_.options().dynamic_discovery) {
        Fail(expr.line, "dynamic device discovery is disabled (enable the "
                        "extension to check this app)");
      }
      ValueList all;
      for (std::size_t d = 0; d < model_.devices().size(); ++d) {
        all.push_back(Value::Device(static_cast<int>(d)));
      }
      return Value::List(std::move(all));
    }
    if (name == "now") return Value::Number(0);
    if (name == "timeOfDayIsBetween") {
      // Wall-clock windows are abstracted away: the checker enumerates
      // event permutations regardless of clock time (paper §8 models time
      // as a monotonic counter; guards on it are kept permissive so no
      // behaviour is missed).
      for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
      return Value::Bool(true);
    }
    if (name == "getSunriseAndSunset") {
      ValueMap result;
      result["sunrise"] = Value::Number(6 * 3600);
      result["sunset"] = Value::Number(18 * 3600);
      return Value::Map(std::move(result));
    }
    if (name == "parseJson") {
      for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
      return Value::Map({});
    }

    // User-defined method.
    if (const dsl::MethodDecl* method =
            app_.analysis.app.FindMethod(name)) {
      ValueList args;
      for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
      return CallMethod(*method, args);
    }
    Fail(expr.line, "unknown function '" + name + "'");
  }

  std::string HandlerName(const Expr& arg) {
    if (arg.kind == ExprKind::kIdent || arg.kind == ExprKind::kStringLit) {
      return arg.text;
    }
    return "";
  }

  void RegisterTimer(const std::string& handler, int line) {
    if (handler.empty()) return;
    for (std::size_t s = 0; s < app_.analysis.schedules.size(); ++s) {
      const ir::ScheduleInfo& schedule = app_.analysis.schedules[s];
      if (schedule.handler != handler || schedule.recurring) continue;
      TimerEntry entry{app_index_, static_cast<int>(s)};
      for (const TimerEntry& pending : state_.timers) {
        if (pending == entry) return;  // SmartThings replaces pending timers
      }
      state_.timers.push_back(entry);
      if (notes_) Trace(line, "runIn -> " + handler);
      return;
    }
  }

  void SetLocationMode(const std::string& mode, int line) {
    const int index = model_.deployment().ModeIndex(mode);
    if (index < 0) {
      Fail(line, "unknown location mode '" + mode + "'");
    }
    if (state_.mode == index) return;
    state_.mode = static_cast<std::int16_t>(index);
    log_.mode_setters.push_back(app_index_);
    devices::Event event;
    event.source = devices::EventSource::kLocationMode;
    event.value = index;
    queue_.push_back(event);
    if (notes_) Trace(line, "location.mode = " + mode);
  }

  void EmitFakeEvent(const Expr& expr) {
    std::string attr_name;
    std::string value_name;
    for (const dsl::NamedArg& arg : expr.named) {
      Value v = Eval(*arg.value);
      if (arg.name == "name") attr_name = v.ToDisplayString();
      if (arg.name == "value") value_name = v.ToDisplayString();
    }
    log_.api_calls.push_back({ApiCallRecord::Kind::kFakeEvent, app_index_,
                              attr_name + "/" + value_name, false,
                              expr.line});
    if (notes_) {
      Trace(expr.line, "sendEvent(name: " + attr_name + ", value: " +
                           value_name + ")");
    }
    if (attr_name.empty()) return;
    // The forged event is delivered to every subscriber of a matching
    // (device, attribute, value) — the spoofing vector of §3: apps
    // downstream cannot tell it from a real sensor reading.
    for (std::size_t d = 0; d < model_.devices().size(); ++d) {
      const devices::Device& device = model_.devices()[d];
      const int attr_index = device.AttributeIndex(attr_name);
      if (attr_index < 0) continue;
      const devices::AttributeSpec& attr = *device.attributes()[attr_index];
      int value_index = attr.IndexOfValue(value_name);
      if (value_index < 0 &&
          attr.kind == devices::AttributeKind::kNumeric &&
          !value_name.empty()) {
        value_index = attr.IndexOfNumeric(std::atoi(value_name.c_str()));
      }
      if (value_index < 0) continue;
      devices::Event event;
      event.source = devices::EventSource::kDevice;
      event.device = static_cast<int>(d);
      event.attribute = attr_index;
      event.value = value_index;
      event.synthetic = true;
      queue_.push_back(event);
      log_.actuations.emplace_back(app_index_, static_cast<int>(d));
    }
  }

  Value EvalMethodCall(const Value& recv, const Expr& expr) {
    const std::string& name = expr.text;

    if (recv.is_device()) {
      return DeviceCall(recv.DeviceIndex(), expr);
    }
    if (recv.is_list()) {
      return ListCall(recv, expr);
    }
    if (recv.is_string()) {
      return StringCall(recv.AsString(), expr);
    }
    if (recv.is_number()) {
      if (name == "toInteger" || name == "intValue" || name == "toLong") {
        return Value::Number(std::floor(recv.AsNumber()));
      }
      if (name == "toDouble" || name == "toFloat" ||
          name == "toBigDecimal") {
        return recv;
      }
      if (name == "toString") {
        return Value::String(recv.ToDisplayString());
      }
    }
    if (recv.is_map()) {
      if (name == "get" || name == "containsKey") {
        return MapCall(recv.AsMap(), expr);
      }
      if (name == "toString") return Value::String(recv.ToDisplayString());
    }
    Fail(expr.line, "unsupported method '" + name + "' on " +
                        recv.ToDisplayString());
  }

  /// map.get(key) / map.containsKey(key).
  Value MapCall(const ValueMap& map, const Expr& expr) {
    Value key = expr.items.empty() ? Value::Null() : Eval(*expr.items[0]);
    auto it = map.find(key.ToDisplayString());
    if (expr.text == "containsKey") return Value::Bool(it != map.end());
    return it != map.end() ? it->second : Value::Null();
  }

  Value DeviceCall(int device_index, const Expr& expr) {
    const std::string& name = expr.text;
    const devices::Device& device = model_.devices()[device_index];

    if (name == "currentValue" || name == "latestValue") {
      if (expr.items.empty()) Fail(expr.line, "currentValue needs an attribute");
      Value attr = Eval(*expr.items[0]);
      return ReadAttribute(device_index, attr.ToDisplayString(), expr.line);
    }
    if (name == "hasCapability") {
      if (expr.items.empty()) return Value::Bool(false);
      Value cap = Eval(*expr.items[0]);
      return Value::Bool(
          device.type().HasCapability(strings::ToLower(cap.ToDisplayString())));
    }
    if (name == "refresh" || name == "poll" || name == "ping" ||
        name == "configure") {
      return Value::Null();
    }

    const devices::CommandSpec* spec = device.type().FindCommand(name);
    if (spec == nullptr) {
      // Under the dynamic-discovery extension apps blanket-command every
      // device they found; devices without the command ignore it (the
      // paper's rejected apps rely on Groovy's dynamic dispatch).
      if (model_.options().dynamic_discovery) {
        for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
        return Value::Null();
      }
      Fail(expr.line, "device '" + device.id() + "' has no command '" +
                          name + "'");
    }
    ValueList args;
    for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
    ExecuteCommand(device_index, *spec, args, expr.line);
    return Value::Null();
  }

  void ExecuteCommand(int device_index, const devices::CommandSpec& spec,
                      const ValueList& args, int line) {
    const devices::Device& device = model_.devices()[device_index];
    const int attr_index = device.AttributeIndex(spec.attribute);
    if (attr_index < 0) return;
    const devices::AttributeSpec& attr = *device.attributes()[attr_index];

    int target = -1;
    if (!spec.takes_argument) {
      target = attr.IndexOfValue(spec.value);
    } else if (!args.empty()) {
      if (args[0].is_number()) {
        target = attr.IndexOfNumeric(static_cast<int>(args[0].AsNumber()));
      } else {
        target = attr.IndexOfValue(args[0].ToDisplayString());
      }
    }
    if (target < 0) return;

    CommandRecord record;
    record.app = app_index_;
    record.device = device_index;
    record.spec = &spec;
    record.value_index = target;
    record.line = line;

    if (notes_) {
      Trace(line, "ST_Command.evtType = " + spec.name + " -> " + device.id());
    }
    log_.actuations.emplace_back(app_index_, device_index);

    const bool delivered = !failure_.actuator_offline && !failure_.comm_fail;
    record.delivered = delivered;
    if (!delivered) {
      ++log_.failed_deliveries;
      log_.commands.push_back(record);
      return;
    }

    devices::State& dev_state = state_.devices[device_index];
    if (dev_state.values[attr_index] != target) {
      dev_state.values[attr_index] = static_cast<std::int16_t>(target);
      dev_state.physical[attr_index] = static_cast<std::int16_t>(target);
      record.state_changed = true;
      devices::Event event;
      event.source = devices::EventSource::kDevice;
      event.device = device_index;
      event.attribute = attr_index;
      event.value = target;
      queue_.push_back(event);
      if (notes_) {
        Trace(line, device.id() + ".current" + attr.name + " = " +
                        attr.ValueName(target));
      }
    }
    log_.commands.push_back(record);
  }

  Value ListCall(const Value& recv, const Expr& expr) {
    const std::string& name = expr.text;
    const ValueList& items = recv.AsList();

    // Device-list broadcast: switches.on() commands every member.
    if (!items.empty() && items.front().is_device()) {
      bool all_devices = true;
      for (const Value& item : items) {
        all_devices = all_devices && item.is_device();
      }
      if (all_devices) {
        const devices::Device& first =
            model_.devices()[items.front().DeviceIndex()];
        if (first.type().FindCommand(name) != nullptr) {
          ValueList args;
          for (const dsl::ExprPtr& arg : expr.items) {
            args.push_back(Eval(*arg));
          }
          for (const Value& item : items) {
            const devices::Device& device =
                model_.devices()[item.DeviceIndex()];
            if (const devices::CommandSpec* spec =
                    device.type().FindCommand(name)) {
              ExecuteCommand(item.DeviceIndex(), *spec, args, expr.line);
            }
          }
          return Value::Null();
        }
      }
    }

    const Expr* closure = nullptr;
    if (!expr.items.empty() &&
        expr.items.back()->kind == ExprKind::kClosure) {
      closure = expr.items.back().get();
    }
    auto apply = [this, closure](const Value& item) -> Value {
      if (closure == nullptr) return item;
      return CallClosure(*closure, {item});
    };

    if (name == "each") {
      for (const Value& item : items) apply(item);
      return recv;
    }
    if (name == "find") {
      for (const Value& item : items) {
        if (apply(item).Truthy()) return item;
      }
      return Value::Null();
    }
    if (name == "findAll") {
      ValueList out;
      for (const Value& item : items) {
        if (apply(item).Truthy()) out.push_back(item);
      }
      return Value::List(std::move(out));
    }
    if (name == "collect") {
      ValueList out;
      for (const Value& item : items) out.push_back(apply(item));
      return Value::List(std::move(out));
    }
    if (name == "any") {
      for (const Value& item : items) {
        if (apply(item).Truthy()) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    if (name == "every") {
      for (const Value& item : items) {
        if (!apply(item).Truthy()) return Value::Bool(false);
      }
      return Value::Bool(true);
    }
    if (name == "count") {
      int matched = 0;
      for (const Value& item : items) {
        if (apply(item).Truthy()) ++matched;
      }
      return Value::Number(matched);
    }
    if (name == "first") {
      return items.empty() ? Value::Null() : items.front();
    }
    if (name == "last") {
      return items.empty() ? Value::Null() : items.back();
    }
    if (name == "size") {
      return Value::Number(static_cast<double>(items.size()));
    }
    if (name == "isEmpty") return Value::Bool(items.empty());
    if (name == "contains") {
      Value needle = expr.items.empty() ? Value::Null() : Eval(*expr.items[0]);
      for (const Value& item : items) {
        if (item.Equals(needle)) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    if (name == "sum") {
      double total = 0;
      for (const Value& item : items) {
        Value v = apply(item);
        if (v.is_number()) total += v.AsNumber();
      }
      return Value::Number(total);
    }
    if (name == "join") {
      std::string sep =
          expr.items.empty() ? "" : Eval(*expr.items[0]).ToDisplayString();
      std::string out;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += sep;
        out += items[i].ToDisplayString();
      }
      return Value::String(std::move(out));
    }
    if (name == "unique" || name == "sort" || name == "reverse" ||
        name == "flatten") {
      ValueList out = items;
      if (name == "reverse") std::reverse(out.begin(), out.end());
      if (name == "unique") {
        ValueList deduped;
        for (const Value& item : out) {
          bool seen = false;
          for (const Value& existing : deduped) {
            seen = seen || existing.Equals(item);
          }
          if (!seen) deduped.push_back(item);
        }
        out = std::move(deduped);
      }
      return Value::List(std::move(out));
    }
    Fail(expr.line, "unsupported list method '" + name + "'");
  }

  Value StringCall(const std::string& recv, const Expr& expr) {
    const std::string& name = expr.text;
    auto arg0 = [this, &expr]() -> std::string {
      return expr.items.empty() ? ""
                                : Eval(*expr.items[0]).ToDisplayString();
    };
    if (name == "toInteger" || name == "toLong") {
      return Value::Number(std::atoi(recv.c_str()));
    }
    if (name == "toDouble" || name == "toFloat" || name == "toBigDecimal") {
      return Value::Number(std::atof(recv.c_str()));
    }
    if (name == "toLowerCase") return Value::String(strings::ToLower(recv));
    if (name == "toUpperCase") {
      std::string out = recv;
      for (char& c : out) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      return Value::String(std::move(out));
    }
    if (name == "trim") return Value::String(std::string(strings::Trim(recv)));
    if (name == "contains") {
      return Value::Bool(recv.find(arg0()) != std::string::npos);
    }
    if (name == "startsWith") {
      return Value::Bool(strings::StartsWith(recv, arg0()));
    }
    if (name == "endsWith") {
      return Value::Bool(strings::EndsWith(recv, arg0()));
    }
    if (name == "equalsIgnoreCase") {
      return Value::Bool(strings::ToLower(recv) == strings::ToLower(arg0()));
    }
    if (name == "replaceAll") {
      std::string from = arg0();
      std::string to = expr.items.size() > 1
                           ? Eval(*expr.items[1]).ToDisplayString()
                           : "";
      return Value::String(strings::ReplaceAll(recv, from, to));
    }
    if (name == "length" || name == "size") {
      return Value::Number(static_cast<double>(recv.size()));
    }
    if (name == "toString") return Value::String(recv);
    if (name == "isNumber") {
      char* end = nullptr;
      std::strtod(recv.c_str(), &end);
      return Value::Bool(!recv.empty() && end == recv.c_str() + recv.size());
    }
    Fail(expr.line, "unsupported string method '" + name + "'");
  }
};

}  // namespace

const Value& EventValueCache::Get(const SystemModel& model,
                                  const devices::Event& event) {
  // The object depends on the device coordinates only for device events
  // and on the value only for device and mode events.
  std::uint64_t key = static_cast<std::uint64_t>(event.source) << 56;
  if (event.source == devices::EventSource::kDevice) {
    key |= static_cast<std::uint64_t>(event.device + 1) << 32 |
           static_cast<std::uint64_t>(event.attribute + 1) << 16;
  }
  if (event.source == devices::EventSource::kDevice ||
      event.source == devices::EventSource::kLocationMode) {
    key |= static_cast<std::uint16_t>(event.value);
  }
  auto it = values_.find(key);
  if (it == values_.end()) {
    it = values_.emplace(key, MakeEventValue(model, event)).first;
  }
  return it->second;
}

Evaluator::Evaluator(const SystemModel& model, SystemState& state,
                     std::deque<devices::Event>& queue, CascadeLog& log,
                     const FailureScenario& failure, bool notes,
                     EventValueCache* event_values)
    : model_(model),
      state_(state),
      queue_(queue),
      log_(log),
      failure_(failure),
      notes_(notes),
      event_values_(event_values) {}

void Evaluator::InvokeHandler(int app, const std::string& method,
                              const devices::Event* event) {
  Interp interp(model_, state_, queue_, log_, failure_, app, notes_,
                event_values_);
  interp.Invoke(method, event);
}

}  // namespace iotsan::model
