#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/json.hpp"

namespace iotsan::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null").is_null());
  EXPECT_EQ(Parse("true").AsBool(), true);
  EXPECT_EQ(Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("42").AsNumber(), 42);
  EXPECT_DOUBLE_EQ(Parse("-2.5e2").AsNumber(), -250);
  EXPECT_EQ(Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\nb\t\"c\"\\")").AsString(), "a\nb\t\"c\"\\");
  EXPECT_EQ(Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Parse(R"("é")").AsString(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParseTest, Arrays) {
  Value v = Parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.AsArray()[1].AsNumber(), 2);
  EXPECT_TRUE(Parse("[]").AsArray().empty());
}

TEST(JsonParseTest, Objects) {
  Value v = Parse(R"({"a": 1, "b": [true, null]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.At("a").AsNumber(), 1);
  EXPECT_TRUE(v.At("b").AsArray()[1].is_null());
  EXPECT_TRUE(v.Has("a"));
  EXPECT_FALSE(v.Has("c"));
}

TEST(JsonParseTest, NestedStructures) {
  Value v = Parse(R"({"devices": [{"id": "d1", "roles": ["r1", "r2"]}]})");
  EXPECT_EQ(v.At("devices").AsArray()[0].At("roles").AsArray()[1].AsString(),
            "r2");
}

TEST(JsonParseTest, LineCommentsExtension) {
  Value v = Parse("// header\n{\"a\": 1 // trailing\n}");
  EXPECT_DOUBLE_EQ(v.At("a").AsNumber(), 1);
}

TEST(JsonParseTest, TrailingCommaExtension) {
  EXPECT_EQ(Parse("[1, 2,]").AsArray().size(), 2u);
  EXPECT_EQ(Parse(R"({"a": 1,})").AsObject().size(), 1u);
}

TEST(JsonParseTest, ErrorsCarryPosition) {
  try {
    Parse("{\n  \"a\": }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_THROW(Parse(""), ParseError);
  EXPECT_THROW(Parse("{"), ParseError);
  EXPECT_THROW(Parse("[1 2]"), ParseError);
  EXPECT_THROW(Parse("tru"), ParseError);
  EXPECT_THROW(Parse("\"unterminated"), ParseError);
  EXPECT_THROW(Parse("1 2"), ParseError);
  EXPECT_THROW(Parse("{a: 1}"), ParseError);
}

TEST(JsonValueTest, TypeMismatchThrows) {
  EXPECT_THROW(Parse("1").AsString(), Error);
  EXPECT_THROW(Parse("\"x\"").AsNumber(), Error);
  EXPECT_THROW(Parse("[]").AsObject(), Error);
  EXPECT_THROW(Parse("{}").At("missing"), Error);
}

TEST(JsonValueTest, GettersWithDefaults) {
  Value v = Parse(R"({"name": "x", "count": 3, "flag": true})");
  EXPECT_EQ(v.GetString("name"), "x");
  EXPECT_EQ(v.GetString("other", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(v.GetNumber("count"), 3);
  EXPECT_DOUBLE_EQ(v.GetNumber("other", 7), 7);
  EXPECT_TRUE(v.GetBool("flag"));
  EXPECT_FALSE(v.GetBool("other"));
}

TEST(JsonValueTest, DeepCopySemantics) {
  Value a = Parse("[1, 2]");
  Value b = a;
  b.MutableArray().push_back(Value(3));
  EXPECT_EQ(a.AsArray().size(), 2u);
  EXPECT_EQ(b.AsArray().size(), 3u);
}

TEST(JsonValueTest, Equality) {
  EXPECT_EQ(Parse("[1, {\"a\": true}]"), Parse("[1, {\"a\": true}]"));
  EXPECT_FALSE(Parse("[1]") == Parse("[2]"));
  EXPECT_FALSE(Parse("1") == Parse("\"1\""));
}

TEST(JsonParseTest, NestingCapRejectsDeepInput) {
  // 100k levels used to overflow the stack; past the cap it is a
  // ParseError, at the cap it still parses.
  const std::size_t deep = 100000;
  EXPECT_THROW(Parse(std::string(deep, '[') + std::string(deep, ']')),
               ParseError);
  EXPECT_THROW(Parse(std::string(deep, '{')), ParseError);
  std::string objects;
  for (int i = 0; i < kMaxDepth + 1; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxDepth + 1, '}');
  EXPECT_THROW(Parse(objects), ParseError);
  const std::string at_cap = std::string(kMaxDepth, '[') +
                             std::string(kMaxDepth, ']');
  EXPECT_NO_THROW(Parse(at_cap));
}

TEST(JsonDumpTest, RoundTrip) {
  const char* docs[] = {
      "null", "true", "42", "\"hi\"", "[1,2,3]",
      R"({"a":1,"b":[true,null],"c":"x"})",
  };
  for (const char* doc : docs) {
    Value original = Parse(doc);
    EXPECT_EQ(Parse(original.Dump()), original) << doc;
  }
}

TEST(JsonDumpTest, PrettyPrinting) {
  std::string out = Parse(R"({"a":[1]})").Dump(2);
  EXPECT_NE(out.find("\n"), std::string::npos);
  EXPECT_NE(out.find("  \"a\""), std::string::npos);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  Value v(std::string("a\nb\x01"));
  EXPECT_EQ(v.Dump(), "\"a\\nb\\u0001\"");
}

TEST(JsonDumpTest, IntegralNumbersStayIntegral) {
  EXPECT_EQ(Parse("75").Dump(), "75");
  EXPECT_EQ(Parse("-3").Dump(), "-3");
}

}  // namespace
}  // namespace iotsan::json
