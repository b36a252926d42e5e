#include "dsl/parser.hpp"

#include <utility>

#include "dsl/lexer.hpp"
#include "util/error.hpp"

namespace iotsan::dsl {

namespace {

std::vector<StringPart> SplitInterpolations(const std::string& text);

class Parser {
 public:
  Parser(std::string_view source, std::string_view source_name)
      : tokens_(Tokenize(source, source_name)), source_name_(source_name) {}

  App ParseApp() {
    App app;
    app.source_name = std::string(source_name_);
    bool saw_definition = false;
    while (!Check(TokenKind::kEnd)) {
      if (CheckIdent("definition")) {
        ParseDefinition(app);
        saw_definition = true;
      } else if (CheckIdent("preferences")) {
        ParsePreferences(app);
      } else if (Check(TokenKind::kDef)) {
        app.methods.push_back(ParseMethod());
      } else {
        Fail("expected 'definition', 'preferences', or a method");
      }
    }
    if (!saw_definition) {
      throw SemanticError(std::string(source_name_) +
                          ": app has no definition(...) block");
    }
    return app;
  }

  ExprPtr ParseSingleExpression() {
    ExprPtr e = ParseExpr();
    if (!Check(TokenKind::kEnd)) Fail("trailing content after expression");
    return e;
  }

 private:
  std::vector<Token> tokens_;
  std::size_t index_ = 0;
  std::string_view source_name_;
  int depth_ = 0;  // open Nest scopes (statements and expression levels)

  /// Counts one level of statement or expression nesting for its
  /// lifetime.  The parser recurses once per level, so the cap bounds
  /// stack use on hostile source.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxParseDepth) {
        parser_.Fail("nesting deeper than " + std::to_string(kMaxParseDepth) +
                     " levels");
      }
    }
    ~Nest() { --parser_.depth_; }

   private:
    Parser& parser_;
  };

  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = index_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& Current() const { return Peek(); }

  Token Advance() {
    Token t = Peek();
    if (index_ + 1 < tokens_.size()) ++index_;
    return t;
  }

  bool Check(TokenKind kind) const { return Current().kind == kind; }
  bool CheckIdent(std::string_view name) const {
    return Current().kind == TokenKind::kIdentifier && Current().text == name;
  }

  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }

  Token Expect(TokenKind kind, const char* context) {
    if (!Check(kind)) {
      Fail(std::string("expected ") + std::string(TokenKindName(kind)) +
           " in " + context + ", got " +
           std::string(TokenKindName(Current().kind)));
    }
    return Advance();
  }

  [[noreturn]] void Fail(const std::string& message) const {
    const Token& t = Current();
    throw ParseError(std::string(source_name_) + ":" + std::to_string(t.line) +
                     ":" + std::to_string(t.column) + ": " + message);
  }

  ExprPtr NewExpr(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = Current().line;
    e->column = Current().column;
    return e;
  }

  StmtPtr NewStmt(StmtKind kind) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = Current().line;
    s->column = Current().column;
    return s;
  }

  // ---- Top-level forms -------------------------------------------------

  void ParseDefinition(App& app) {
    Advance();  // 'definition'
    Expect(TokenKind::kLeftParen, "definition");
    while (!Check(TokenKind::kRightParen)) {
      Token key = Expect(TokenKind::kIdentifier, "definition");
      Expect(TokenKind::kColon, "definition");
      // Values are strings (or arbitrary expressions we ignore).
      if (Check(TokenKind::kString)) {
        const std::string value = Advance().text;
        if (key.text == "name") app.name = value;
        else if (key.text == "namespace") app.namespace_ = value;
        else if (key.text == "author") app.author = value;
        else if (key.text == "description") app.description = value;
        else if (key.text == "category") app.category = value;
        // Unknown string keys (iconUrl, ...) are accepted and dropped.
      } else {
        ParseExpr();  // non-string metadata value: parse and drop
      }
      if (!Match(TokenKind::kComma)) break;
    }
    Expect(TokenKind::kRightParen, "definition");
    if (app.name.empty()) {
      throw SemanticError(std::string(source_name_) +
                          ": definition(...) must provide name:");
    }
  }

  void ParsePreferences(App& app) {
    Advance();  // 'preferences'
    Expect(TokenKind::kLeftBrace, "preferences");
    while (!Check(TokenKind::kRightBrace)) {
      if (CheckIdent("section")) {
        ParseSection(app);
      } else if (CheckIdent("input")) {
        ParseInput(app, /*section=*/"");
      } else if (CheckIdent("page")) {
        ParsePage(app);
      } else {
        Fail("expected 'section', 'page', or 'input' in preferences");
      }
    }
    Expect(TokenKind::kRightBrace, "preferences");
  }

  // `page(name: "p", title: "t") { section... }` — flattened.
  void ParsePage(App& app) {
    Advance();  // 'page'
    if (Match(TokenKind::kLeftParen)) {
      SkipBalancedParens();
    }
    Expect(TokenKind::kLeftBrace, "page");
    while (!Check(TokenKind::kRightBrace)) {
      if (CheckIdent("section")) {
        ParseSection(app);
      } else if (CheckIdent("input")) {
        ParseInput(app, "");
      } else {
        Fail("expected 'section' or 'input' in page");
      }
    }
    Expect(TokenKind::kRightBrace, "page");
  }

  void SkipBalancedParens() {
    int depth = 1;
    while (depth > 0 && !Check(TokenKind::kEnd)) {
      if (Check(TokenKind::kLeftParen)) ++depth;
      if (Check(TokenKind::kRightParen)) --depth;
      Advance();
    }
  }

  void ParseSection(App& app) {
    Advance();  // 'section'
    std::string description;
    if (Match(TokenKind::kLeftParen)) {
      if (Check(TokenKind::kString)) description = Advance().text;
      // Named section options (hideable:, ...) — skip.
      while (Match(TokenKind::kComma)) {
        Expect(TokenKind::kIdentifier, "section options");
        Expect(TokenKind::kColon, "section options");
        ParseExpr();
      }
      Expect(TokenKind::kRightParen, "section");
    }
    Expect(TokenKind::kLeftBrace, "section");
    while (!Check(TokenKind::kRightBrace)) {
      if (CheckIdent("input")) {
        ParseInput(app, description);
      } else if (CheckIdent("paragraph") || CheckIdent("label") ||
                 CheckIdent("mode") || CheckIdent("href")) {
        // Cosmetic elements: consume the directive and its arguments.
        Advance();
        ParseCommandArgsAndDrop();
      } else {
        Fail("expected 'input' (or paragraph/label/mode/href) in section");
      }
    }
    Expect(TokenKind::kRightBrace, "section");
  }

  void ParseCommandArgsAndDrop() {
    if (Match(TokenKind::kLeftParen)) {
      int depth = 1;
      while (depth > 0 && !Check(TokenKind::kEnd)) {
        if (Check(TokenKind::kLeftParen)) ++depth;
        if (Check(TokenKind::kRightParen)) --depth;
        Advance();
      }
      return;
    }
    // Paren-free argument list: consume expressions until end of line.
    if (Current().starts_line || Check(TokenKind::kRightBrace)) return;
    do {
      if (Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kColon) {
        Advance();
        Advance();
      }
      ParseExpr();
    } while (Match(TokenKind::kComma));
  }

  void ParseInput(App& app, std::string section) {
    const int line = Current().line;
    Advance();  // 'input'
    const bool parenthesized = Match(TokenKind::kLeftParen);
    InputDecl input;
    input.section = std::move(section);
    input.line = line;
    input.name = Expect(TokenKind::kString, "input name").text;
    Expect(TokenKind::kComma, "input");
    input.type = Expect(TokenKind::kString, "input type").text;
    while (Match(TokenKind::kComma)) {
      Token key = Expect(TokenKind::kIdentifier, "input options");
      Expect(TokenKind::kColon, "input options");
      if (key.text == "title" || key.text == "description") {
        const std::string v = Expect(TokenKind::kString, "input title").text;
        if (key.text == "title") input.title = v;
      } else if (key.text == "required") {
        ExprPtr v = ParseExpr();
        input.required = !(v->kind == ExprKind::kBoolLit && !v->bool_value);
      } else if (key.text == "multiple") {
        ExprPtr v = ParseExpr();
        input.multiple = v->kind == ExprKind::kBoolLit && v->bool_value;
      } else if (key.text == "options") {
        ExprPtr v = ParseExpr();
        if (v->kind != ExprKind::kListLit) Fail("options: expects a list");
        for (const ExprPtr& item : v->items) {
          if (item->kind != ExprKind::kStringLit) {
            Fail("options: expects a list of strings");
          }
          input.options.push_back(item->text);
        }
      } else if (key.text == "defaultValue") {
        input.default_value = ParseExpr();
      } else {
        ParseExpr();  // metadata we do not model (image:, ...)
      }
    }
    if (parenthesized) Expect(TokenKind::kRightParen, "input");
    app.inputs.push_back(std::move(input));
  }

  MethodDecl ParseMethod() {
    MethodDecl method;
    method.line = Current().line;
    Expect(TokenKind::kDef, "method");
    method.name = Expect(TokenKind::kIdentifier, "method name").text;
    Expect(TokenKind::kLeftParen, "method parameters");
    while (!Check(TokenKind::kRightParen)) {
      method.params.push_back(
          Expect(TokenKind::kIdentifier, "parameter").text);
      if (!Match(TokenKind::kComma)) break;
    }
    Expect(TokenKind::kRightParen, "method parameters");
    method.body = ParseBlock();
    return method;
  }

  // ---- Statements ------------------------------------------------------

  std::vector<StmtPtr> ParseBlock() {
    Expect(TokenKind::kLeftBrace, "block");
    std::vector<StmtPtr> stmts;
    while (!Check(TokenKind::kRightBrace) && !Check(TokenKind::kEnd)) {
      stmts.push_back(ParseStatement());
    }
    Expect(TokenKind::kRightBrace, "block");
    return stmts;
  }

  std::vector<StmtPtr> ParseBlockOrSingle() {
    if (Check(TokenKind::kLeftBrace)) return ParseBlock();
    std::vector<StmtPtr> stmts;
    stmts.push_back(ParseStatement());
    return stmts;
  }

  StmtPtr ParseStatement() {
    const Nest nest(*this);
    while (Match(TokenKind::kSemicolon)) {
    }
    if (Check(TokenKind::kDef)) return ParseVarDecl();
    if (Check(TokenKind::kIf)) return ParseIf();
    if (Check(TokenKind::kReturn)) return ParseReturn();
    if (Check(TokenKind::kFor)) return ParseForIn();
    if (Check(TokenKind::kWhile)) return ParseWhile();
    return ParseExprStatement();
  }

  StmtPtr ParseVarDecl() {
    StmtPtr s = NewStmt(StmtKind::kVarDecl);
    Advance();  // 'def'
    s->name = Expect(TokenKind::kIdentifier, "variable declaration").text;
    if (Match(TokenKind::kAssign)) {
      s->expr = ParseExpr();
    }
    Match(TokenKind::kSemicolon);
    return s;
  }

  StmtPtr ParseIf() {
    StmtPtr s = NewStmt(StmtKind::kIf);
    Advance();  // 'if'
    Expect(TokenKind::kLeftParen, "if condition");
    s->expr = ParseExpr();
    Expect(TokenKind::kRightParen, "if condition");
    s->body = ParseBlockOrSingle();
    if (Match(TokenKind::kElse)) {
      if (Check(TokenKind::kIf)) {
        s->else_body.push_back(ParseIf());
      } else {
        s->else_body = ParseBlockOrSingle();
      }
    }
    return s;
  }

  StmtPtr ParseReturn() {
    StmtPtr s = NewStmt(StmtKind::kReturn);
    Advance();  // 'return'
    if (!Check(TokenKind::kRightBrace) && !Check(TokenKind::kSemicolon) &&
        !Check(TokenKind::kEnd) && !Current().starts_line) {
      s->expr = ParseExpr();
    }
    Match(TokenKind::kSemicolon);
    return s;
  }

  StmtPtr ParseForIn() {
    StmtPtr s = NewStmt(StmtKind::kForIn);
    Advance();  // 'for'
    Expect(TokenKind::kLeftParen, "for");
    if (Check(TokenKind::kDef)) Advance();  // `for (def x in e)` tolerated
    s->name = Expect(TokenKind::kIdentifier, "for variable").text;
    Expect(TokenKind::kIn, "for");
    s->expr = ParseExpr();
    Expect(TokenKind::kRightParen, "for");
    s->body = ParseBlockOrSingle();
    return s;
  }

  StmtPtr ParseWhile() {
    StmtPtr s = NewStmt(StmtKind::kWhile);
    Advance();  // 'while'
    Expect(TokenKind::kLeftParen, "while condition");
    s->expr = ParseExpr();
    Expect(TokenKind::kRightParen, "while condition");
    s->body = ParseBlockOrSingle();
    return s;
  }

  /// True if the current token could begin a Groovy command-call argument.
  bool StartsCommandArg() const {
    switch (Current().kind) {
      case TokenKind::kString:
      case TokenKind::kNumber:
      case TokenKind::kIdentifier:
      case TokenKind::kTrue:
      case TokenKind::kFalse:
      case TokenKind::kNull:
      case TokenKind::kLeftBracket:
        return true;
      default:
        return false;
    }
  }

  StmtPtr ParseExprStatement() {
    StmtPtr s = NewStmt(StmtKind::kExpr);
    ExprPtr e = ParsePrecedence(0);

    // Groovy command-call: `subscribe motion1, "motion.active", handler`.
    // Recognized when a bare identifier (or member access) is followed on
    // the same line by a token that can begin an argument.
    const bool callable_head =
        e->kind == ExprKind::kIdent || e->kind == ExprKind::kMember;
    if (callable_head && StartsCommandArg() && !Current().starts_line) {
      ExprPtr call = std::make_unique<Expr>();
      call->kind = ExprKind::kCall;
      call->line = e->line;
      call->column = e->column;
      if (e->kind == ExprKind::kIdent) {
        call->text = e->text;
      } else {
        call->text = e->text;          // member name
        call->a = std::move(e->a);     // receiver
      }
      ParseCallArgsInto(*call, /*terminated_by_paren=*/false);
      e = std::move(call);
    }
    s->expr = std::move(e);
    Match(TokenKind::kSemicolon);
    return s;
  }

  // ---- Expressions (precedence climbing) --------------------------------
  //
  // Levels (loosest to tightest):
  //   0 assignment   = += -=
  //   1 ternary ?: / elvis
  //   2 ||
  //   3 &&
  //   4 == !=
  //   5 < <= > >= in
  //   6 + -
  //   7 * / %
  //   8 unary - !
  //   9 postfix: call, member, index
  //  10 primary

  ExprPtr ParseExpr() { return ParsePrecedence(0); }

  ExprPtr ParsePrecedence(int level) {
    switch (level) {
      case 0: return ParseAssignment();
      case 1: return ParseTernary();
      default: return ParseBinaryLevel(level);
    }
  }

  ExprPtr ParseAssignment() {
    const Nest nest(*this);
    ExprPtr target = ParsePrecedence(1);
    AssignOp op;
    if (Check(TokenKind::kAssign)) op = AssignOp::kAssign;
    else if (Check(TokenKind::kPlusAssign)) op = AssignOp::kAddAssign;
    else if (Check(TokenKind::kMinusAssign)) op = AssignOp::kSubAssign;
    else return target;

    if (target->kind != ExprKind::kIdent &&
        target->kind != ExprKind::kMember &&
        target->kind != ExprKind::kIndex) {
      Fail("invalid assignment target");
    }
    Advance();
    ExprPtr e = NewExpr(ExprKind::kAssign);
    e->assign_op = op;
    e->line = target->line;
    e->column = target->column;
    e->a = std::move(target);
    e->b = ParseAssignment();  // right-associative
    return e;
  }

  ExprPtr ParseTernary() {
    const Nest nest(*this);
    ExprPtr cond = ParseBinaryLevel(2);
    if (Match(TokenKind::kQuestion)) {
      ExprPtr e = NewExpr(ExprKind::kTernary);
      e->line = cond->line;
      e->a = std::move(cond);
      e->b = ParseTernary();
      Expect(TokenKind::kColon, "ternary");
      e->c = ParseTernary();
      return e;
    }
    if (Match(TokenKind::kElvis)) {
      // a ?: b  ==  a ? a : b; represented as ternary with null then-branch
      // and the evaluator treating a missing `b` as "reuse condition".
      ExprPtr e = NewExpr(ExprKind::kTernary);
      e->line = cond->line;
      e->a = std::move(cond);
      e->b = nullptr;  // elvis marker
      e->c = ParseTernary();
      return e;
    }
    return cond;
  }

  static bool BinaryOpAt(int level, TokenKind kind, BinaryOp& op) {
    switch (level) {
      case 2:
        if (kind == TokenKind::kOrOr) { op = BinaryOp::kOr; return true; }
        return false;
      case 3:
        if (kind == TokenKind::kAndAnd) { op = BinaryOp::kAnd; return true; }
        return false;
      case 4:
        if (kind == TokenKind::kEq) { op = BinaryOp::kEq; return true; }
        if (kind == TokenKind::kNe) { op = BinaryOp::kNe; return true; }
        return false;
      case 5:
        if (kind == TokenKind::kLt) { op = BinaryOp::kLt; return true; }
        if (kind == TokenKind::kLe) { op = BinaryOp::kLe; return true; }
        if (kind == TokenKind::kGt) { op = BinaryOp::kGt; return true; }
        if (kind == TokenKind::kGe) { op = BinaryOp::kGe; return true; }
        if (kind == TokenKind::kIn) { op = BinaryOp::kIn; return true; }
        return false;
      case 6:
        if (kind == TokenKind::kPlus) { op = BinaryOp::kAdd; return true; }
        if (kind == TokenKind::kMinus) { op = BinaryOp::kSub; return true; }
        return false;
      case 7:
        if (kind == TokenKind::kStar) { op = BinaryOp::kMul; return true; }
        if (kind == TokenKind::kSlash) { op = BinaryOp::kDiv; return true; }
        if (kind == TokenKind::kPercent) { op = BinaryOp::kMod; return true; }
        return false;
      default:
        return false;
    }
  }

  ExprPtr ParseBinaryLevel(int level) {
    if (level >= 8) return ParseUnary();
    ExprPtr lhs = ParseBinaryLevel(level + 1);
    BinaryOp op;
    while (BinaryOpAt(level, Current().kind, op)) {
      // Groovy statements are newline-terminated, but only operators that
      // could also *start* a statement are ambiguous at a line break:
      // '+'/'-' (unary prefixes).  '&&', '==', '<', ... cannot begin a
      // statement, so they continue the previous line's expression.
      if (Current().starts_line && (Current().kind == TokenKind::kPlus ||
                                    Current().kind == TokenKind::kMinus)) {
        break;
      }
      Advance();
      ExprPtr e = NewExpr(ExprKind::kBinary);
      e->binary_op = op;
      e->line = lhs->line;
      e->a = std::move(lhs);
      e->b = ParseBinaryLevel(level + 1);
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    const Nest nest(*this);
    if (Check(TokenKind::kMinus) || Check(TokenKind::kNot)) {
      ExprPtr e = NewExpr(ExprKind::kUnary);
      e->unary_op =
          Check(TokenKind::kMinus) ? UnaryOp::kNeg : UnaryOp::kNot;
      Advance();
      e->a = ParseUnary();
      return e;
    }
    return ParsePostfix();
  }

  void ParseCallArgsInto(Expr& call, bool terminated_by_paren) {
    while (true) {
      if (terminated_by_paren && Check(TokenKind::kRightParen)) break;
      if (Check(TokenKind::kIdentifier) &&
          Peek(1).kind == TokenKind::kColon) {
        NamedArg arg;
        arg.name = Advance().text;
        Advance();  // ':'
        arg.value = ParsePrecedence(1);
        call.named.push_back(std::move(arg));
      } else {
        call.items.push_back(ParsePrecedence(1));
      }
      if (!Match(TokenKind::kComma)) break;
    }
    if (terminated_by_paren) {
      Expect(TokenKind::kRightParen, "call arguments");
    }
  }

  ExprPtr ParseClosure() {
    ExprPtr e = NewExpr(ExprKind::kClosure);
    Expect(TokenKind::kLeftBrace, "closure");
    // Detect an explicit parameter list: IDENT (',' IDENT)* '->'.
    std::size_t save = index_;
    std::vector<std::string> params;
    bool has_params = false;
    if (Check(TokenKind::kIdentifier)) {
      params.push_back(Current().text);
      std::size_t probe = index_ + 1;
      while (probe + 1 < tokens_.size() &&
             tokens_[probe].kind == TokenKind::kComma &&
             tokens_[probe + 1].kind == TokenKind::kIdentifier) {
        params.push_back(tokens_[probe + 1].text);
        probe += 2;
      }
      if (probe < tokens_.size() &&
          tokens_[probe].kind == TokenKind::kArrow) {
        has_params = true;
        index_ = probe + 1;
      }
    }
    if (has_params) {
      e->params = std::move(params);
    } else {
      index_ = save;
    }
    while (!Check(TokenKind::kRightBrace) && !Check(TokenKind::kEnd)) {
      e->body.push_back(ParseStatement());
    }
    Expect(TokenKind::kRightBrace, "closure");
    return e;
  }

  ExprPtr ParsePostfix() {
    ExprPtr e = ParsePrimary();
    while (true) {
      if (Check(TokenKind::kDot) || Check(TokenKind::kSafeDot)) {
        const bool safe = Check(TokenKind::kSafeDot);
        Advance();
        Token name = Expect(TokenKind::kIdentifier, "member access");
        if (Check(TokenKind::kLeftParen) || Check(TokenKind::kLeftBrace)) {
          ExprPtr call = std::make_unique<Expr>();
          call->kind = ExprKind::kCall;
          call->line = name.line;
          call->column = name.column;
          call->text = name.text;
          call->safe_navigation = safe;
          call->a = std::move(e);
          if (Match(TokenKind::kLeftParen)) {
            ParseCallArgsInto(*call, /*terminated_by_paren=*/true);
          }
          if (Check(TokenKind::kLeftBrace)) {
            call->items.push_back(ParseClosure());  // trailing closure
          }
          e = std::move(call);
        } else {
          ExprPtr member = std::make_unique<Expr>();
          member->kind = ExprKind::kMember;
          member->line = name.line;
          member->column = name.column;
          member->text = name.text;
          member->safe_navigation = safe;
          member->a = std::move(e);
          e = std::move(member);
        }
      } else if (Check(TokenKind::kLeftParen) &&
                 e->kind == ExprKind::kIdent) {
        // Free-function call: f(args).
        Advance();
        ExprPtr call = std::make_unique<Expr>();
        call->kind = ExprKind::kCall;
        call->line = e->line;
        call->column = e->column;
        call->text = e->text;
        ParseCallArgsInto(*call, /*terminated_by_paren=*/true);
        if (Check(TokenKind::kLeftBrace)) {
          call->items.push_back(ParseClosure());
        }
        e = std::move(call);
      } else if (Check(TokenKind::kLeftBracket) && !Current().starts_line) {
        Advance();
        ExprPtr index = std::make_unique<Expr>();
        index->kind = ExprKind::kIndex;
        index->line = e->line;
        index->column = e->column;
        index->a = std::move(e);
        index->b = ParseExpr();
        Expect(TokenKind::kRightBracket, "index");
        e = std::move(index);
      } else {
        break;
      }
    }
    return e;
  }

  ExprPtr ParsePrimary() {
    switch (Current().kind) {
      case TokenKind::kNull: {
        ExprPtr e = NewExpr(ExprKind::kNullLit);
        Advance();
        return e;
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        ExprPtr e = NewExpr(ExprKind::kBoolLit);
        e->bool_value = Check(TokenKind::kTrue);
        Advance();
        return e;
      }
      case TokenKind::kNumber: {
        ExprPtr e = NewExpr(ExprKind::kNumberLit);
        e->number_value = Current().number;
        e->is_decimal = Current().is_decimal;
        Advance();
        return e;
      }
      case TokenKind::kString: {
        ExprPtr e = NewExpr(ExprKind::kStringLit);
        e->text = Current().text;
        e->parts = SplitInterpolations(e->text);
        Advance();
        return e;
      }
      case TokenKind::kIdentifier: {
        ExprPtr e = NewExpr(ExprKind::kIdent);
        e->text = Current().text;
        Advance();
        return e;
      }
      case TokenKind::kLeftParen: {
        Advance();
        ExprPtr e = ParseExpr();
        Expect(TokenKind::kRightParen, "parenthesized expression");
        return e;
      }
      case TokenKind::kLeftBracket:
        return ParseListOrMap();
      case TokenKind::kLeftBrace:
        return ParseClosure();
      default:
        Fail("expected an expression, got " +
             std::string(TokenKindName(Current().kind)));
    }
  }

  ExprPtr ParseListOrMap() {
    const int line = Current().line;
    Expect(TokenKind::kLeftBracket, "list/map literal");
    // Disambiguation: `[:]` empty map; `key: v` map; otherwise list.
    if (Match(TokenKind::kColon)) {
      Expect(TokenKind::kRightBracket, "map literal");
      ExprPtr e = NewExpr(ExprKind::kMapLit);
      e->line = line;
      return e;
    }
    const bool is_map =
        (Check(TokenKind::kIdentifier) || Check(TokenKind::kString)) &&
        Peek(1).kind == TokenKind::kColon;
    if (is_map) {
      ExprPtr e = NewExpr(ExprKind::kMapLit);
      e->line = line;
      while (!Check(TokenKind::kRightBracket)) {
        NamedArg entry;
        if (Check(TokenKind::kIdentifier) || Check(TokenKind::kString)) {
          entry.name = Advance().text;
        } else {
          Fail("expected map key");
        }
        Expect(TokenKind::kColon, "map literal");
        entry.value = ParsePrecedence(1);
        e->named.push_back(std::move(entry));
        if (!Match(TokenKind::kComma)) break;
      }
      Expect(TokenKind::kRightBracket, "map literal");
      return e;
    }
    ExprPtr e = NewExpr(ExprKind::kListLit);
    e->line = line;
    while (!Check(TokenKind::kRightBracket)) {
      e->items.push_back(ParsePrecedence(1));
      if (!Match(TokenKind::kComma)) break;
    }
    Expect(TokenKind::kRightBracket, "list literal");
    return e;
  }
};

/// Splits a GString into literal pieces and `${…}` fragments, each
/// fragment running to the first `}` after it.  An unterminated `${`
/// stays literal, as does a fragment that does not parse.  Empty when
/// `text` has no `${`.
std::vector<StringPart> SplitInterpolations(const std::string& text) {
  std::vector<StringPart> parts;
  if (text.find("${") == std::string::npos) return parts;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find("${", pos);
    const std::size_t end =
        start == std::string::npos ? start : text.find('}', start);
    if (end == std::string::npos) {
      parts.push_back({text.substr(pos), nullptr});
      break;
    }
    if (start > pos) parts.push_back({text.substr(pos, start - pos), nullptr});
    StringPart fragment{text.substr(start, end + 1 - start), nullptr};
    try {
      fragment.expr = ParseExpression(
          std::string_view(text).substr(start + 2, end - start - 2));
    } catch (const Error&) {
      // Kept verbatim, as literal text.
    }
    parts.push_back(std::move(fragment));
    pos = end + 1;
  }
  return parts;
}

}  // namespace

App ParseApp(std::string_view source, std::string_view source_name) {
  return Parser(source, source_name).ParseApp();
}

ExprPtr ParseExpression(std::string_view source,
                        std::string_view source_name) {
  return Parser(source, source_name).ParseSingleExpression();
}

}  // namespace iotsan::dsl
