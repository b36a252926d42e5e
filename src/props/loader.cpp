#include "props/loader.hpp"

#include <set>

#include "util/error.hpp"
#include "util/json.hpp"

namespace iotsan::props {

std::vector<Property> LoadPropertiesJson(std::string_view text) {
  const json::Value doc = json::Parse(text);
  std::vector<Property> out;
  std::set<std::string> ids;
  for (const json::Value& entry : doc.AsArray()) {
    const std::string id = entry.GetString("id");
    const std::string expression = entry.GetString("expression");
    if (id.empty() || expression.empty()) {
      throw SemanticError(
          "user property needs both \"id\" and \"expression\": " +
          entry.Dump());
    }
    if (!ids.insert(id).second) {
      throw SemanticError("duplicate user property id '" + id + "'");
    }
    if (FindBuiltinProperty(id) != nullptr) {
      throw SemanticError("user property id '" + id +
                          "' collides with a built-in property");
    }
    // MakeInvariant parses the expression; name the property on failure.
    try {
      out.push_back(MakeInvariant(id, entry.GetString("category", "User"),
                                  entry.GetString("description", id),
                                  expression));
    } catch (const Error& e) {
      throw SemanticError("user property '" + id + "': " + e.what());
    }
  }
  return out;
}

}  // namespace iotsan::props
