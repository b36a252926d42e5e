// SmartScript parser: source text -> dsl::App.
#pragma once

#include <string_view>

#include "dsl/ast.hpp"

namespace iotsan::dsl {

/// Nesting limit of both entry points, counted in statement and
/// expression levels: each parenthesized sub-expression costs three, a
/// nested statement one.  Deeper input is a ParseError.
inline constexpr int kMaxParseDepth = 512;

/// Parses a complete SmartScript application: a `definition(...)` header,
/// an optional `preferences { ... }` block, and `def` methods.  Throws
/// iotsan::ParseError (syntax) or iotsan::SemanticError (structural
/// problems such as a missing definition block).
App ParseApp(std::string_view source, std::string_view source_name = "<app>");

/// Parses a single expression (used by the property language and tests).
ExprPtr ParseExpression(std::string_view source,
                        std::string_view source_name = "<expr>");

}  // namespace iotsan::dsl
