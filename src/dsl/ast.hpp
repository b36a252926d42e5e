// Abstract syntax tree for SmartScript apps.
//
// The AST is a tagged-node design (one struct per syntactic class with a
// kind discriminator) rather than a virtual hierarchy: every consumer in
// iotsan — the static analyzer (src/ir), the evaluator (src/model), the
// type-inference pass, and the Promela emitter (src/promela) — switches
// exhaustively over node kinds, which a closed enum makes checkable.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace iotsan::dsl {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExprKind {
  kNullLit,
  kBoolLit,
  kNumberLit,
  kStringLit,
  kListLit,      // [a, b, c]
  kMapLit,       // [key: v, ...]  (Groovy map literal)
  kIdent,
  kBinary,       // arithmetic / comparison / logic / 'in'
  kUnary,        // -x, !x
  kTernary,      // c ? a : b   and elvis a ?: b (cond == lhs)
  kCall,         // f(args) or recv.m(args); named args kept separately
  kMember,       // recv.name  (property access; '?.': safe member)
  kIndex,        // recv[expr]
  kClosure,      // { params -> stmts }  (implicit param: it)
  kAssign,       // target = value, +=, -=
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kIn,
};

enum class UnaryOp { kNeg, kNot };

enum class AssignOp { kAssign, kAddAssign, kSubAssign };

/// One `key: value` named argument in a call or map literal entry.
struct NamedArg {
  std::string name;
  ExprPtr value;
};

/// One piece of a GString literal: literal text, or a `${…}` fragment
/// parsed once with the literal.  `text` is what the piece renders as
/// when it is literal or when its fragment fails to evaluate: the
/// fragment verbatim, `${` and `}` included.
struct StringPart {
  std::string text;
  ExprPtr expr;  // null for literal text and for unparseable fragments
};

struct Expr {
  ExprKind kind;
  int line = 0;
  int column = 0;

  // kBoolLit
  bool bool_value = false;
  // kNumberLit
  double number_value = 0;
  bool is_decimal = false;
  // kStringLit, kIdent, kMember (member name), kCall (callee name when
  // it is a plain identifier call)
  std::string text;

  // kBinary / kUnary / kAssign operators.
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;
  AssignOp assign_op = AssignOp::kAssign;

  // Children.  Meaning depends on kind:
  //  kBinary: a=lhs, b=rhs. kUnary: a. kTernary: a=cond, b=then, c=else.
  //  kMember/kIndex: a=receiver (b=index for kIndex).
  //  kCall: a=receiver (may be null for free calls).
  //  kAssign: a=target, b=value.
  ExprPtr a, b, c;

  // kListLit elements; kCall positional arguments.
  std::vector<ExprPtr> items;
  // kMapLit entries; kCall named arguments.
  std::vector<NamedArg> named;

  // kMember with '?.'
  bool safe_navigation = false;

  // kStringLit whose text contains `${`: its pieces, in order.
  std::vector<StringPart> parts;

  // kClosure
  std::vector<std::string> params;          // empty => implicit `it`
  std::vector<StmtPtr> body;

  Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
};

enum class StmtKind {
  kExpr,
  kVarDecl,   // def x = e
  kIf,
  kReturn,
  kForIn,     // for (x in e) { ... }
  kWhile,
  kBlock,
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  int column = 0;

  // kVarDecl: name + optional init (in `expr`).
  std::string name;

  // kExpr / kReturn value / kIf condition / kForIn iterable / kWhile cond.
  ExprPtr expr;

  // kIf: then/else branches. kForIn/kWhile/kBlock: body in `body`.
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;

  Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;
};

/// One `input "name", "type", title: ..., required: ..., multiple: ...`
/// declaration inside preferences (paper Fig. 1).
struct InputDecl {
  std::string name;        // app global this input defines
  std::string type;        // "capability.switch", "number", "enum", ...
  std::string title;
  std::string section;     // enclosing section description
  bool required = true;
  bool multiple = false;
  std::vector<std::string> options;  // for "enum" inputs
  ExprPtr default_value;             // optional `defaultValue:`
  int line = 0;
};

/// A `def name(params) { ... }` method.
struct MethodDecl {
  std::string name;
  std::vector<std::string> params;
  std::vector<StmtPtr> body;
  int line = 0;
};

/// A parsed SmartScript application.
struct App {
  // definition(...) metadata.
  std::string name;
  std::string namespace_;
  std::string author;
  std::string description;
  std::string category;

  std::vector<InputDecl> inputs;
  std::vector<MethodDecl> methods;

  /// Source name the app was parsed from (diagnostics / reports).
  std::string source_name;

  const MethodDecl* FindMethod(std::string_view method_name) const;
  const InputDecl* FindInput(std::string_view input_name) const;
};

/// Deep-copy helpers (AST nodes are move-only; corpus variants clone).
ExprPtr CloneExpr(const Expr& e);
StmtPtr CloneStmt(const Stmt& s);

}  // namespace iotsan::dsl
