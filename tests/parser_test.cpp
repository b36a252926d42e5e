#include <gtest/gtest.h>

#include "dsl/parser.hpp"
#include "dsl/printer.hpp"
#include "util/error.hpp"

namespace iotsan::dsl {
namespace {

// ---- Expressions ----------------------------------------------------------

std::string Parsed(std::string_view source) {
  return PrintExpr(*ParseExpression(source));
}

TEST(ExprParserTest, Precedence) {
  EXPECT_EQ(Parsed("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Parsed("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(Parsed("a || b && c"), "(a || (b && c))");
  EXPECT_EQ(Parsed("a == b || c == d"), "((a == b) || (c == d))");
  EXPECT_EQ(Parsed("1 < 2 == true"), "((1 < 2) == true)");
  EXPECT_EQ(Parsed("-a + b"), "(-a + b)");
  EXPECT_EQ(Parsed("!a && b"), "(!a && b)");
}

TEST(ExprParserTest, NestingCapRejectsDeepInput) {
  // 10k nested parens used to overflow the stack.
  const std::size_t deep = 10000;
  EXPECT_THROW(
      ParseExpression(std::string(deep, '(') + "1" + std::string(deep, ')')),
      ParseError);
  EXPECT_THROW(ParseExpression(std::string(deep, '!') + "a"), ParseError);
  EXPECT_THROW(ParseExpression(std::string(deep, '[') + std::string(deep, ']')),
               ParseError);
  // Realistic nesting stays well inside the cap.
  EXPECT_EQ(Parsed(std::string(20, '(') + "1" + std::string(20, ')')), "1");
}

TEST(ExprParserTest, Associativity) {
  EXPECT_EQ(Parsed("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(Parsed("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(ExprParserTest, TernaryAndElvis) {
  EXPECT_EQ(Parsed("a ? b : c"), "(a ? b : c)");
  EXPECT_EQ(Parsed("a ?: c"), "(a ?: c)");
  EXPECT_EQ(Parsed("a ? b : c ? d : e"), "(a ? b : (c ? d : e))");
}

TEST(ExprParserTest, MemberIndexCall) {
  EXPECT_EQ(Parsed("a.b.c"), "a.b.c");
  EXPECT_EQ(Parsed("a[1]"), "a[1]");
  EXPECT_EQ(Parsed("f(1, 2)"), "f(1, 2)");
  EXPECT_EQ(Parsed("a.f(x)"), "a.f(x)");
  EXPECT_EQ(Parsed("a?.b"), "a?.b");
  EXPECT_EQ(Parsed("evt.device.off()"), "evt.device.off()");
}

TEST(ExprParserTest, NamedArguments) {
  EXPECT_EQ(Parsed("sendEvent(name: \"smoke\", value: \"detected\")"),
            "sendEvent(name: \"smoke\", value: \"detected\")");
}

TEST(ExprParserTest, ListAndMapLiterals) {
  EXPECT_EQ(Parsed("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(Parsed("[]"), "[]");
  EXPECT_EQ(Parsed("[a: 1, b: 2]"), "[a: 1, b: 2]");
  EXPECT_EQ(Parsed("[:]"), "[:]");
  EXPECT_EQ(Parsed("[\"x\", y]"), "[\"x\", y]");
}

TEST(ExprParserTest, Closures) {
  ExprPtr e = ParseExpression("list.findAll { it.currentSwitch == \"on\" }");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->text, "findAll");
  ASSERT_EQ(e->items.size(), 1u);
  EXPECT_EQ(e->items[0]->kind, ExprKind::kClosure);
  EXPECT_TRUE(e->items[0]->params.empty());  // implicit `it`
}

TEST(ExprParserTest, ClosureWithExplicitParams) {
  ExprPtr e = ParseExpression("list.collect { a, b -> a }");
  ASSERT_EQ(e->items.size(), 1u);
  EXPECT_EQ(e->items[0]->params,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ExprParserTest, InOperator) {
  EXPECT_EQ(Parsed("x in [1, 2]"), "(x in [1, 2])");
}

TEST(ExprParserTest, MultiLineContinuation) {
  // Non-statement-starting operators continue across newlines.
  EXPECT_EQ(Parsed("a &&\n b"), "(a && b)");
  EXPECT_EQ(Parsed("a ==\n b"), "(a == b)");
}

TEST(ExprParserTest, RejectsMalformed) {
  EXPECT_THROW(ParseExpression("1 +"), ParseError);
  EXPECT_THROW(ParseExpression("(1"), ParseError);
  EXPECT_THROW(ParseExpression("a b"), ParseError);
  EXPECT_THROW(ParseExpression("f(1,"), ParseError);
  EXPECT_THROW(ParseExpression("[1, 2"), ParseError);
  EXPECT_THROW(ParseExpression("a ? b"), ParseError);
}

// ---- Apps -------------------------------------------------------------------

constexpr const char* kMinimalApp = R"APP(
definition(name: "Test App", namespace: "test", author: "t")

preferences {
    section("Devices") {
        input "sw", "capability.switch", title: "Switch"
        input "motion", "capability.motionSensor", required: false
        input "things", "capability.contactSensor", multiple: true
        input "level", "number", title: "Level"
        input "choice", "enum", options: ["a", "b"]
    }
}

def installed() {
    subscribe(sw, "switch.on", onHandler)
}

def onHandler(evt) {
    if (evt.value == "on") {
        sw.off()
    } else {
        log.debug "ignored"
    }
}
)APP";

TEST(AppParserTest, DefinitionMetadata) {
  App app = ParseApp(kMinimalApp);
  EXPECT_EQ(app.name, "Test App");
  EXPECT_EQ(app.namespace_, "test");
  EXPECT_EQ(app.author, "t");
}

TEST(AppParserTest, InputsParsed) {
  App app = ParseApp(kMinimalApp);
  ASSERT_EQ(app.inputs.size(), 5u);
  EXPECT_EQ(app.inputs[0].name, "sw");
  EXPECT_EQ(app.inputs[0].type, "capability.switch");
  EXPECT_EQ(app.inputs[0].title, "Switch");
  EXPECT_TRUE(app.inputs[0].required);
  EXPECT_FALSE(app.inputs[0].multiple);
  EXPECT_FALSE(app.inputs[1].required);
  EXPECT_TRUE(app.inputs[2].multiple);
  EXPECT_EQ(app.inputs[4].options, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(app.inputs[0].section, "Devices");
}

TEST(AppParserTest, MethodsParsed) {
  App app = ParseApp(kMinimalApp);
  ASSERT_EQ(app.methods.size(), 2u);
  EXPECT_EQ(app.methods[0].name, "installed");
  EXPECT_TRUE(app.methods[0].params.empty());
  EXPECT_EQ(app.methods[1].name, "onHandler");
  EXPECT_EQ(app.methods[1].params, (std::vector<std::string>{"evt"}));
  EXPECT_NE(app.FindMethod("onHandler"), nullptr);
  EXPECT_EQ(app.FindMethod("nope"), nullptr);
}

TEST(AppParserTest, CommandCallSyntax) {
  // Groovy's paren-free command call.
  App app = ParseApp(R"APP(
definition(name: "C", namespace: "t")
def installed() {
    subscribe sw, "switch", handler
}
def handler(evt) { }
)APP");
  const Stmt& stmt = *app.methods[0].body[0];
  ASSERT_EQ(stmt.kind, StmtKind::kExpr);
  EXPECT_EQ(stmt.expr->kind, ExprKind::kCall);
  EXPECT_EQ(stmt.expr->text, "subscribe");
  EXPECT_EQ(stmt.expr->items.size(), 3u);
}

TEST(AppParserTest, StatementsRoundTripThroughPrinter) {
  App app = ParseApp(kMinimalApp);
  // Printing and reparsing must preserve the structure.
  App reparsed = ParseApp(PrintApp(app));
  EXPECT_EQ(reparsed.name, app.name);
  EXPECT_EQ(reparsed.inputs.size(), app.inputs.size());
  EXPECT_EQ(reparsed.methods.size(), app.methods.size());
  EXPECT_EQ(PrintApp(reparsed), PrintApp(app));
}

TEST(AppParserTest, ControlFlowStatements) {
  App app = ParseApp(R"APP(
definition(name: "CF", namespace: "t")
def run() {
    def total = 0
    for (x in [1, 2, 3]) {
        total = total + x
    }
    while (total > 10) {
        total = total - 1
    }
    if (total == 10) {
        return total
    } else if (total > 5) {
        return 5
    }
    return 0
}
)APP");
  const auto& body = app.methods[0].body;
  ASSERT_EQ(body.size(), 5u);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kForIn);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kIf);
  ASSERT_EQ(body[3]->else_body.size(), 1u);
  EXPECT_EQ(body[3]->else_body[0]->kind, StmtKind::kIf);  // else-if chain
  EXPECT_EQ(body[4]->kind, StmtKind::kReturn);
}

TEST(AppParserTest, MissingDefinitionRejected) {
  EXPECT_THROW(ParseApp("def foo() { }"), SemanticError);
  EXPECT_THROW(ParseApp("definition(namespace: \"x\")"), SemanticError);
}

TEST(AppParserTest, SyntaxErrorsRejected) {
  EXPECT_THROW(ParseApp("definition(name: \"X\")\ndef f( {"), ParseError);
  EXPECT_THROW(ParseApp("definition(name: \"X\")\npreferences { junk }"),
               ParseError);
  EXPECT_THROW(
      ParseApp("definition(name: \"X\")\ndef f() { if true { } }"),
      ParseError);
}

TEST(AppParserTest, PageBlocksFlattened) {
  App app = ParseApp(R"APP(
definition(name: "Paged", namespace: "t")
preferences {
    page(name: "p1", title: "First") {
        section("S") {
            input "a", "number"
        }
    }
}
)APP");
  ASSERT_EQ(app.inputs.size(), 1u);
  EXPECT_EQ(app.inputs[0].name, "a");
}

TEST(AppParserTest, CosmeticSectionElementsIgnored) {
  App app = ParseApp(R"APP(
definition(name: "Cosmetic", namespace: "t")
preferences {
    section("S") {
        paragraph "Some explanation text"
        input "a", "number"
    }
}
)APP");
  ASSERT_EQ(app.inputs.size(), 1u);
}

TEST(AppParserTest, NestingCapRejectsDeepStatements) {
  std::string body;
  for (int i = 0; i < 5000; ++i) body += "if (x) ";
  body += "y()";
  EXPECT_THROW(ParseApp("definition(name: \"Deep\", namespace: \"t\")\n"
                        "def h(evt) { " + body + " }"),
               ParseError);
}

TEST(ExprParserTest, InterpolationsParsedWithTheLiteral) {
  ExprPtr e = ParseExpression("\"a ${b.c} ${(} d ${e\"");
  ASSERT_EQ(e->parts.size(), 5u);
  EXPECT_EQ(e->parts[0].text, "a ");
  ASSERT_NE(e->parts[1].expr, nullptr);
  EXPECT_EQ(PrintExpr(*e->parts[1].expr), "b.c");
  EXPECT_EQ(e->parts[1].text, "${b.c}");
  EXPECT_EQ(e->parts[2].text, " ");
  // Unparseable and unterminated fragments stay literal.
  EXPECT_EQ(e->parts[3].expr, nullptr);
  EXPECT_EQ(e->parts[3].text, "${(}");
  EXPECT_EQ(e->parts[4].text, " d ${e");
  EXPECT_TRUE(ParseExpression("\"plain\"")->parts.empty());
  ExprPtr clone = CloneExpr(*e);
  ASSERT_EQ(clone->parts.size(), 5u);
  EXPECT_EQ(PrintExpr(*clone->parts[1].expr), "b.c");
}

TEST(AppParserTest, CloneProducesIdenticalPrint) {
  App app = ParseApp(kMinimalApp);
  for (const MethodDecl& m : app.methods) {
    for (const StmtPtr& s : m.body) {
      StmtPtr clone = CloneStmt(*s);
      EXPECT_EQ(PrintStmt(*clone), PrintStmt(*s));
    }
  }
}

}  // namespace
}  // namespace iotsan::dsl
