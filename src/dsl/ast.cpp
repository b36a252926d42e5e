#include "dsl/ast.hpp"

namespace iotsan::dsl {

const MethodDecl* App::FindMethod(std::string_view method_name) const {
  for (const MethodDecl& m : methods) {
    if (m.name == method_name) return &m;
  }
  return nullptr;
}

const InputDecl* App::FindInput(std::string_view input_name) const {
  for (const InputDecl& in : inputs) {
    if (in.name == input_name) return &in;
  }
  return nullptr;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->line = e.line;
  out->column = e.column;
  out->bool_value = e.bool_value;
  out->number_value = e.number_value;
  out->is_decimal = e.is_decimal;
  out->text = e.text;
  out->binary_op = e.binary_op;
  out->unary_op = e.unary_op;
  out->assign_op = e.assign_op;
  out->safe_navigation = e.safe_navigation;
  out->params = e.params;
  if (e.a) out->a = CloneExpr(*e.a);
  if (e.b) out->b = CloneExpr(*e.b);
  if (e.c) out->c = CloneExpr(*e.c);
  out->items.reserve(e.items.size());
  for (const ExprPtr& item : e.items) out->items.push_back(CloneExpr(*item));
  out->named.reserve(e.named.size());
  for (const NamedArg& arg : e.named) {
    out->named.push_back(NamedArg{arg.name, CloneExpr(*arg.value)});
  }
  out->body.reserve(e.body.size());
  for (const StmtPtr& s : e.body) out->body.push_back(CloneStmt(*s));
  out->parts.reserve(e.parts.size());
  for (const StringPart& part : e.parts) {
    out->parts.push_back(
        StringPart{part.text, part.expr ? CloneExpr(*part.expr) : nullptr});
  }
  return out;
}

StmtPtr CloneStmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->line = s.line;
  out->column = s.column;
  out->name = s.name;
  if (s.expr) out->expr = CloneExpr(*s.expr);
  out->body.reserve(s.body.size());
  for (const StmtPtr& child : s.body) out->body.push_back(CloneStmt(*child));
  out->else_body.reserve(s.else_body.size());
  for (const StmtPtr& child : s.else_body) {
    out->else_body.push_back(CloneStmt(*child));
  }
  return out;
}

}  // namespace iotsan::dsl
