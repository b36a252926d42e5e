// Shared CLI flag-table tests (src/cli/flags): strict numeric
// validation, command gating, and table/help consistency — exercised
// directly against the parser the iotsan binary uses, no subprocess.
#include <gtest/gtest.h>

#include "cli/flags.hpp"
#include "util/error.hpp"

namespace iotsan::cli {
namespace {

CliFlags Parse(unsigned command, std::vector<std::string> args) {
  CliFlags flags;
  ParseFlags(command, args, flags);
  return flags;
}

TEST(CliFlagsTest, ParsesValidNumericFlags) {
  const CliFlags flags = Parse(
      kCmdCheck, {"--events", "5", "--jobs", "4", "--progress-every", "1000"});
  EXPECT_EQ(flags.events, 5);
  EXPECT_EQ(flags.jobs, 4);
  EXPECT_EQ(flags.progress_every, 1000u);
}

TEST(CliFlagsTest, SeparatesPositionalsFromFlags) {
  CliFlags flags;
  const std::vector<std::string> positionals = ParseFlags(
      kCmdCheck, {"deployment.json", "--jobs", "2", "--stats"}, flags);
  ASSERT_EQ(positionals.size(), 1u);
  EXPECT_EQ(positionals[0], "deployment.json");
  EXPECT_TRUE(flags.stats);
  EXPECT_EQ(flags.jobs, 2);
}

TEST(CliFlagsTest, RejectsMalformedNumericValues) {
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", "four"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", "4x"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", ""}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", "1e3"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--events", "3.5"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--bitstate-bits", "big"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--progress-every", "--stats"}), Error);
}

TEST(CliFlagsTest, RejectsOutOfRangeNumericValues) {
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", "-1"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs", "100000"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--events", "0"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--events", "65"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--bitstate-bits", "9"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--bitstate-bits", "41"}), Error);
  EXPECT_NO_THROW(Parse(kCmdCheck, {"--bitstate-bits", "10"}));
  EXPECT_NO_THROW(Parse(kCmdCheck, {"--bitstate-bits", "40"}));
  EXPECT_NO_THROW(Parse(kCmdCheck, {"--jobs", "0"}));
}

TEST(CliFlagsTest, ErrorNamesTheFlag) {
  try {
    Parse(kCmdCheck, {"--jobs", "four"});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("four"), std::string::npos);
  }
}

TEST(CliFlagsTest, RejectsMissingValueAndUnknownFlag) {
  EXPECT_THROW(Parse(kCmdCheck, {"--jobs"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--no-such-flag"}), Error);
}

TEST(CliFlagsTest, RejectsFlagsTheCommandDoesNotAccept) {
  EXPECT_THROW(Parse(kCmdDeps, {"--jobs", "2"}), Error);
  EXPECT_THROW(Parse(kCmdPromela, {"--cache-dir", "/tmp/x"}), Error);
  EXPECT_NO_THROW(Parse(kCmdDeps, {"--stats"}));
}

TEST(CliFlagsTest, CacheDirAcceptedByCheckAndAttribute) {
  EXPECT_EQ(Parse(kCmdCheck, {"--cache-dir", "/tmp/c"}).cache_dir, "/tmp/c");
  EXPECT_EQ(Parse(kCmdAttribute, {"--cache-dir", "/tmp/c"}).cache_dir,
            "/tmp/c");
}

TEST(CliFlagsTest, MetricsOutAndAccessLogAreCommandGated) {
  // --metrics-out belongs to check, --access-log to serve — each is
  // rejected everywhere else.
  EXPECT_EQ(Parse(kCmdCheck, {"--metrics-out", "/tmp/m.prom"}).metrics_out,
            "/tmp/m.prom");
  EXPECT_EQ(Parse(kCmdServe, {"--access-log", "/tmp/a.jsonl"}).access_log,
            "/tmp/a.jsonl");
  EXPECT_THROW(Parse(kCmdServe, {"--metrics-out", "/tmp/m.prom"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--access-log", "/tmp/a.jsonl"}), Error);
  EXPECT_THROW(Parse(kCmdCheck, {"--metrics-out"}), Error);
}

TEST(CliFlagsTest, StateCompressionIsACheckAndAttributeFlag) {
  EXPECT_TRUE(Parse(kCmdCheck, {"--state-compression"}).state_compression);
  EXPECT_FALSE(Parse(kCmdCheck, {}).state_compression);
  EXPECT_TRUE(
      Parse(kCmdAttribute, {"--state-compression"}).state_compression);
  EXPECT_THROW(Parse(kCmdDeps, {"--state-compression"}), Error);
  // No front end selects concurrent scheduling, so there is no POR flag.
  EXPECT_THROW(Parse(kCmdCheck, {"--por"}), Error);
  EXPECT_THROW(Parse(kCmdAttribute, {"--por"}), Error);
}

TEST(CliFlagsTest, BitstateBitsImpliesBitstate) {
  const CliFlags flags = Parse(kCmdCheck, {"--bitstate-bits", "20"});
  EXPECT_TRUE(flags.bitstate);
  EXPECT_EQ(flags.bitstate_bits_pow, 20);
}

TEST(CliFlagsTest, ParseFlagIntStrictness) {
  EXPECT_EQ(ParseFlagInt("--x", "42", 0, 100), 42);
  EXPECT_EQ(ParseFlagInt("--x", "-3", -10, 10), -3);
  EXPECT_THROW(ParseFlagInt("--x", " 42", 0, 100), Error);
  EXPECT_THROW(ParseFlagInt("--x", "42 ", 0, 100), Error);
  EXPECT_THROW(ParseFlagInt("--x", "0x10", 0, 100), Error);
  EXPECT_THROW(ParseFlagInt("--x", "999999999999999999999", 0, 100), Error);
}

TEST(CliFlagsTest, TableIsSelfConsistent) {
  for (const FlagSpec& spec : FlagTable()) {
    // Every flag spells "--name" and belongs to at least one command.
    EXPECT_EQ(std::string(spec.name).rfind("--", 0), 0u) << spec.name;
    EXPECT_NE(spec.commands, 0u) << spec.name;
    // A declared numeric range requires a value argument.
    if (spec.min < spec.max) {
      EXPECT_NE(spec.arg, nullptr) << spec.name;
    }
    // The table is the single source of truth for lookup.
    EXPECT_EQ(FindFlag(spec.name), &spec);
  }
  EXPECT_EQ(FindFlag("--nope"), nullptr);
}

TEST(CliFlagsTest, UsageListsOnlyAcceptedFlags) {
  const std::string usage = UsageFor(kCmdPromela);
  EXPECT_NE(usage.find("--events"), std::string::npos);
  EXPECT_EQ(usage.find("--jobs"), std::string::npos);
  EXPECT_EQ(usage.find("--cache-dir"), std::string::npos);
}

}  // namespace
}  // namespace iotsan::cli
