// Request-option table tests (src/core/request_options): every front end
// reads the one table — the CLI flag parser, the service's JSON
// "options" object, and the cluster unit request a coordinator sends —
// so each row must mean the same thing through each of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "cluster/cluster.hpp"
#include "config/deployment.hpp"
#include "core/request_options.hpp"
#include "server/handlers.hpp"
#include "util/error.hpp"

namespace iotsan {
namespace {

using core::RequestOptions;
using core::RequestOptionSpec;

/// Lowest command bit that accepts the row's flag.
unsigned CommandFor(const RequestOptionSpec& row) {
  const cli::FlagSpec* spec = cli::FindFlag(row.flag);
  return spec->commands & (~spec->commands + 1);
}

RequestOptions FromCli(const RequestOptionSpec& row, long long value) {
  std::vector<std::string> args = {row.flag};
  if (row.integer()) args.push_back(std::to_string(value));
  cli::CliFlags flags;
  cli::ParseFlags(CommandFor(row), args, flags);
  return flags;
}

std::string RequestBody(const std::string& options) {
  return R"({"schema": "iotsan.request/1",
             "deployment": {"name": "d", "devices": [], "apps": []},
             "options": )" +
         options + "}";
}

RequestOptions FromJson(const RequestOptionSpec& row, long long value) {
  const std::string json_value =
      row.integer() ? std::to_string(value) : (value != 0 ? "true" : "false");
  return server::ParseCheckRequest(
             RequestBody(std::string("{\"") + row.json_key + "\": " +
                         json_value + "}"))
      .options;
}

TEST(RequestOptionTableTest, EveryRowHasOneDeferringFlag) {
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    SCOPED_TRACE(row.json_key);
    const cli::FlagSpec* spec = cli::FindFlag(row.flag);
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->set, nullptr);  // the core row sets it
    // Integer options take a value; switches do not.
    EXPECT_EQ(spec->arg != nullptr, row.integer());
    EXPECT_EQ(core::FindRequestOption(row.json_key), &row);
    EXPECT_EQ(core::FindRequestOptionFlag(row.flag), &row);
  }
  for (const cli::FlagSpec& spec : cli::FlagTable()) {
    if (spec.set != nullptr) continue;
    EXPECT_NE(core::FindRequestOptionFlag(spec.name), nullptr) << spec.name;
  }
}

TEST(RequestOptionTableTest, CliFlagAndJsonKeyGiveEqualOptions) {
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    SCOPED_TRACE(row.json_key);
    const std::vector<long long> values =
        row.integer()
            ? std::vector<long long>{row.min, (row.min + row.max) / 2,
                                     row.max}
            : std::vector<long long>{1};
    for (long long value : values) {
      const RequestOptions cli = FromCli(row, value);
      EXPECT_EQ(cli, FromJson(row, value)) << value;
      EXPECT_EQ(row.get(cli), value);
    }
  }
}

TEST(RequestOptionTableTest, BothFrontEndsRejectValuesOutsideTheRange) {
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    SCOPED_TRACE(row.json_key);
    if (!row.integer()) {
      // A switch takes a JSON boolean, never a number.
      EXPECT_THROW(server::ParseCheckRequest(RequestBody(
                       std::string("{\"") + row.json_key + "\": 1}")),
                   server::RequestError);
      continue;
    }
    for (long long value : {row.min - 1, row.max + 1}) {
      EXPECT_THROW(FromCli(row, value), Error) << value;
      try {
        FromJson(row, value);
        ADD_FAILURE() << "JSON accepted " << value;
      } catch (const server::RequestError& e) {
        EXPECT_EQ(e.status(), 400);
      }
    }
  }
}

// A resident server fills `jobs` from its pool and `deadlineSeconds` from
// its config unless the request names them.
TEST(RequestOptionTableTest, ServerNotesTheOptionsItDefaults) {
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    SCOPED_TRACE(row.json_key);
    const std::string value = row.integer() ? std::to_string(row.max) : "true";
    server::ParsedOptionsMeta meta;
    server::ParseCheckRequest(
        RequestBody(std::string("{\"") + row.json_key + "\": " + value + "}"),
        &meta);
    EXPECT_EQ(meta.jobs_given, std::string(row.json_key) == "jobs");
    EXPECT_EQ(meta.deadline_given,
              std::string(row.json_key) == "deadlineSeconds");
  }
}

TEST(RequestOptionTableTest, UnitRequestReproducesEveryForwardedOption) {
  core::CheckRequest request;
  request.deployment = config::ParseDeployment(
      json::Parse(R"({"name": "d", "devices": [], "apps": []})"));
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    row.set(request.options, row.integer() ? row.max : 1);
  }
  cluster::WorkUnit unit;
  unit.group_apps = {0};
  const json::Value doc = cluster::UnitRequestJson(request, unit);
  const RequestOptions worker =
      server::ParseCheckRequest(doc.Dump(0)).options;
  for (const RequestOptionSpec& row : core::RequestOptionTable()) {
    SCOPED_TRACE(row.json_key);
    const bool forwarded = row.forward == core::Forward::kWhenSet ||
                           row.forward == core::Forward::kAlways;
    EXPECT_EQ(doc.At("options").Has(row.json_key), forwarded);
    if (forwarded) {
      EXPECT_EQ(row.get(worker), row.get(request.options));
    }
  }
}

}  // namespace
}  // namespace iotsan
