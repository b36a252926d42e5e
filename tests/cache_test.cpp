// Incremental-analysis cache tests (src/cache): warm runs must be
// indistinguishable from cold ones, invalidation must be exact (only
// groups whose inputs changed re-verify), and the store must shrug off
// corruption and concurrent callers.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cache/result_cache.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "props/property.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace iotsan {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSourceA = R"(
definition(name: "Cache App A", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

constexpr const char* kSourceB = R"(
definition(name: "Cache App B", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

/// A comment-only edit to app B: identical semantics (so the related-set
/// grouping is unchanged) but different source bytes, so only B's group
/// key moves.
constexpr const char* kSourceBEdited = R"(
// revision 2
definition(name: "Cache App B", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

/// Two apps over disjoint devices: dependency analysis yields two
/// related-set groups, so the cache sees two independent keys.
core::Sanitizer TwoGroupSanitizer(const std::string& source_b = kSourceB) {
  config::DeploymentBuilder b("cachehome");
  b.Device("m1", "motionSensor");
  b.Device("m2", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.App("Cache App A").Devices("m1", {"m1"}).Devices("sw", {"sw1"});
  b.App("Cache App B").Devices("m1", {"m2"}).Devices("sw", {"sw2"});
  core::Sanitizer sanitizer(b.Build());
  sanitizer.AddAppSource("Cache App A", kSourceA);
  sanitizer.AddAppSource("Cache App B", source_b);
  return sanitizer;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "iotsan_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

/// RAII telemetry registry: counters observable after each run.
struct ScopedRegistry {
  telemetry::Registry registry;
  ScopedRegistry() { telemetry::SetActive(&registry); }
  ~ScopedRegistry() { telemetry::SetActive(nullptr); }
};

void ExpectSameReport(const core::SanitizerReport& cold,
                      const core::SanitizerReport& warm) {
  EXPECT_EQ(cold.states_explored, warm.states_explored);
  EXPECT_EQ(cold.states_matched, warm.states_matched);
  EXPECT_EQ(cold.transitions, warm.transitions);
  EXPECT_EQ(cold.cascade_drains, warm.cascade_drains);
  EXPECT_EQ(cold.completed, warm.completed);
  EXPECT_EQ(cold.depth_histogram, warm.depth_histogram);
  ASSERT_EQ(cold.violations.size(), warm.violations.size());
  for (std::size_t i = 0; i < cold.violations.size(); ++i) {
    EXPECT_EQ(checker::FormatViolation(cold.violations[i]),
              checker::FormatViolation(warm.violations[i]));
  }
  EXPECT_EQ(cold.per_set_violations.size(), warm.per_set_violations.size());
}

// ---- Entry serialization -----------------------------------------------------

TEST(CacheEntryTest, RoundTripsResultExactly) {
  cache::GroupKey key;
  key.digest = 0x1234;
  key.text = "{\"k\":1}";
  checker::CheckResult result;
  result.states_explored = 17;
  result.states_matched = 4;
  result.transitions = 30;
  result.seconds = 0.123456789012345;
  result.depth_histogram = {1, 8, 8};
  checker::Violation violation;
  violation.property_id = "P06";
  violation.description = "door unlocks";
  violation.apps = {"A"};
  violation.depth = 2;
  result.violations.push_back(violation);

  const json::Value doc = cache::EntryToJson(key, "v1", result);
  const checker::CheckResult back = cache::EntryFromJson(doc, key, "v1");
  EXPECT_EQ(back.states_explored, result.states_explored);
  EXPECT_EQ(back.states_matched, result.states_matched);
  EXPECT_EQ(back.transitions, result.transitions);
  EXPECT_EQ(back.seconds, result.seconds);  // %.17g round-trips exactly
  EXPECT_EQ(back.depth_histogram, result.depth_histogram);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].property_id, "P06");
  EXPECT_EQ(back.violations[0].apps, violation.apps);
  EXPECT_EQ(back.violations[0].depth, 2);
}

TEST(CacheEntryTest, RejectsWrongVersionAndCollidingKey) {
  cache::GroupKey key;
  key.digest = 1;
  key.text = "{\"k\":1}";
  const json::Value doc = cache::EntryToJson(key, "v1", {});
  EXPECT_THROW(cache::EntryFromJson(doc, key, "v2"), Error);
  cache::GroupKey other = key;
  other.text = "{\"k\":2}";  // same digest, different key document
  EXPECT_THROW(cache::EntryFromJson(doc, other, "v1"), Error);
}

// ---- End-to-end warm runs ----------------------------------------------------

TEST(CacheTest, WarmSerialRunIsIdenticalAndAllHits) {
  const std::string dir = FreshDir("warm_serial");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;

  core::SanitizerReport cold, warm;
  {
    ScopedRegistry scoped;
    cold = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 0u);
    EXPECT_EQ(scoped.registry.cache.misses, 2u);
    EXPECT_EQ(scoped.registry.cache.stores, 2u);
  }
  {
    ScopedRegistry scoped;
    warm = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 2u)
        << "every group must hit on an unchanged deployment";
    EXPECT_EQ(scoped.registry.cache.misses, 0u);
  }
  ExpectSameReport(cold, warm);
  // Serial merge sums the memoized per-group seconds in group order, so
  // even the timing line is byte-identical.
  EXPECT_EQ(cold.seconds, warm.seconds);
}

TEST(CacheTest, WarmParallelRunMatchesColdSerial) {
  const std::string dir = FreshDir("warm_jobs");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;

  core::SanitizerReport cold = sanitizer.Check(options);  // jobs = 1
  options.check.jobs = 4;
  core::SanitizerReport warm;
  {
    ScopedRegistry scoped;
    warm = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 2u)
        << "the key must be --jobs independent";
  }
  ExpectSameReport(cold, warm);
}

TEST(CacheTest, DiskLayerServesAFreshProcess) {
  const std::string dir = FreshDir("disk");
  cache::CacheConfig config;
  config.dir = dir;
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;

  core::SanitizerReport cold;
  {
    cache::ResultCache cold_cache(config);
    options.cache = &cold_cache;
    cold = sanitizer.Check(options);
  }
  // A new instance has an empty memory layer — hits must come from disk.
  cache::ResultCache warm_cache(config);
  options.cache = &warm_cache;
  ScopedRegistry scoped;
  core::SanitizerReport warm = sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits_disk, 2u);
  ExpectSameReport(cold, warm);
  EXPECT_EQ(cold.seconds, warm.seconds);
}

TEST(CacheTest, CorruptEntryDegradesToMissAndIsRepaired) {
  const std::string dir = FreshDir("corrupt");
  cache::CacheConfig config;
  config.dir = dir;
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  core::SanitizerReport cold;
  {
    cache::ResultCache cache(config);
    options.cache = &cache;
    cold = sanitizer.Check(options);
  }
  // Truncate every entry to garbage.
  int corrupted = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "{ not json";
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 2);
  cache::ResultCache cache(config);
  options.cache = &cache;
  ScopedRegistry scoped;
  core::SanitizerReport warm = sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.misses, 2u);
  EXPECT_EQ(scoped.registry.cache.corrupt_entries, 2u);
  EXPECT_EQ(scoped.registry.cache.stores, 2u) << "good entries rewritten";
  ExpectSameReport(cold, warm);
}

TEST(CacheTest, VersionBumpInvalidatesEverything) {
  const std::string dir = FreshDir("version");
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  cache::CacheConfig config;
  config.dir = dir;
  config.version = "build-A";
  {
    cache::ResultCache cache(config);
    options.cache = &cache;
    sanitizer.Check(options);
  }
  config.version = "build-B";
  cache::ResultCache cache(config);
  options.cache = &cache;
  ScopedRegistry scoped;
  sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits, 0u);
  EXPECT_EQ(scoped.registry.cache.misses, 2u);
  // The stale build-A entries are prunable but not served.
  const cache::DirStats stats = cache::ResultCache::Prune(dir, "build-B");
  EXPECT_EQ(stats.entries, 2u);   // the fresh build-B entries
  EXPECT_EQ(stats.stale, 2u);     // the build-A leftovers
  EXPECT_EQ(stats.removed, 2u);
}

TEST(CacheTest, SourceEditInvalidatesOnlyContainingGroups) {
  const std::string dir = FreshDir("edit");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;
  {
    core::Sanitizer sanitizer = TwoGroupSanitizer();
    sanitizer.Check(options);
  }
  // Same deployment, app B's source edited: A's group must still hit.
  core::Sanitizer sanitizer = TwoGroupSanitizer(kSourceBEdited);
  ScopedRegistry scoped;
  sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits, 1u)
      << "group {A} is untouched by B's edit";
  EXPECT_EQ(scoped.registry.cache.misses, 1u)
      << "only group {B} re-verifies";
}

TEST(CacheTest, OldKeyLayoutEntriesMissOnceAndArePruned) {
  // Entries a build with the iotsan.cache/1 key layout wrote for this
  // very home and options (tests/fixtures/cache_v1/cache).
  const std::string dir = FreshDir("upgrade");
  fs::copy(IOTSAN_CACHE_V1_DIR "/cache", dir, fs::copy_options::recursive);
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  const core::SanitizerReport cold = sanitizer.Check(options);

  cache::CacheConfig config;
  config.dir = dir;
  config.version = "fixture-v";  // the version the fixtures recorded
  cache::ResultCache cache(config);
  options.cache = &cache;
  {
    ScopedRegistry scoped;
    const core::SanitizerReport upgraded = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 0u) << "old entries never serve";
    EXPECT_EQ(scoped.registry.cache.misses, 2u);
    EXPECT_EQ(scoped.registry.cache.corrupt_entries, 0u);
    EXPECT_EQ(scoped.registry.cache.stores, 2u);
    ExpectSameReport(cold, upgraded);
  }
  const cache::DirStats stats = cache::ResultCache::Prune(dir, "fixture-v");
  EXPECT_EQ(stats.entries, 2u);  // the fresh iotsan.cache/2 entries
  EXPECT_EQ(stats.stale, 2u);    // the old-layout leftovers
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.removed, 2u);
  cache::ResultCache reopened(config);
  options.cache = &reopened;
  ScopedRegistry scoped;
  ExpectSameReport(cold, sanitizer.Check(options));
  EXPECT_EQ(scoped.registry.cache.hits, 2u) << "the miss happens once";
}

// ---- Key layout --------------------------------------------------------------

/// The key texts of `deployment`'s groups (sources A and B installed)
/// under `options`, in plan order.
std::vector<std::string> KeyTexts(const config::Deployment& deployment,
                                  const core::SanitizerOptions& options) {
  core::Sanitizer sanitizer(deployment);
  sanitizer.AddAppSource("Cache App A", kSourceA);
  sanitizer.AddAppSource("Cache App B", kSourceB);
  core::GroupRunner runner(sanitizer, options);
  std::vector<std::string> texts;
  for (std::size_t g = 0; g < runner.groups().size(); ++g) {
    texts.push_back(runner.Key(g).text);
  }
  return texts;
}

TEST(CacheKeyTest, RunnerKeysEqualGroupKeyForByteForByte) {
  const core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.extra_properties.push_back(props::MakeInvariant(
      "U1", "User", "light stays off", R"(!(any("light", "switch") == "on"))"));
  core::GroupRunner runner(sanitizer, options);
  ASSERT_EQ(runner.groups().size(), 2u);
  for (std::size_t g = 0; g < runner.groups().size(); ++g) {
    const cache::GroupKey direct = sanitizer.GroupKeyFor(
        runner.groups()[g], options, runner.key_version());
    EXPECT_EQ(runner.Key(g).text, direct.text) << "group " << g;
    EXPECT_EQ(runner.Key(g).digest, direct.digest) << "group " << g;
  }
}

TEST(CacheKeyTest, RequestWideEditsChangeEveryGroupsKey) {
  const config::Deployment base = TwoGroupSanitizer().deployment();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  const std::vector<std::string> before = KeyTexts(base, options);
  ASSERT_EQ(before.size(), 2u);
  auto expect_all_moved = [&](const config::Deployment& deployment,
                              const core::SanitizerOptions& edited,
                              const char* what) {
    const std::vector<std::string> after = KeyTexts(deployment, edited);
    ASSERT_EQ(after.size(), before.size()) << what;
    for (std::size_t g = 0; g < before.size(); ++g) {
      EXPECT_NE(after[g], before[g]) << what << ", group " << g;
    }
  };

  config::Deployment d = base;
  d.devices.push_back({"m3", "motionSensor", {}});
  expect_all_moved(d, options, "added device");
  d = base;
  d.devices[2].roles = {"heaterOutlet"};
  expect_all_moved(d, options, "changed role");
  d = base;
  d.modes.push_back("Vacation");
  expect_all_moved(d, options, "modes");
  d = base;
  d.contact_phone = "555-0100";
  expect_all_moved(d, options, "contactPhone");
  d = base;
  d.allow_network_interfaces = true;
  expect_all_moved(d, options, "allowNetworkInterfaces");

  core::SanitizerOptions edited = options;
  edited.extra_properties.push_back(props::MakeInvariant(
      "U1", "User", "light stays off", R"(!(any("light", "switch") == "on"))"));
  expect_all_moved(base, edited, "user property");
  edited = options;
  edited.check.max_events = 3;
  expect_all_moved(base, edited, "max_events");

  // The version: a cache minted under another build.
  cache::ResultCache other_build(cache::CacheConfig{"", 0, "build-B"});
  edited = options;
  edited.cache = &other_build;
  expect_all_moved(base, edited, "version");
}

TEST(CacheKeyTest, OneAppBindingEditChangesOnlyItsGroupsKey) {
  const config::Deployment base = TwoGroupSanitizer().deployment();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  const std::vector<std::string> before = KeyTexts(base, options);
  config::Deployment edited = base;
  edited.apps[1].inputs["m1"].device_ids = {"m1"};  // app B now watches m1
  const std::vector<std::string> after = KeyTexts(edited, options);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0], before[0]) << "app A's group is untouched";
  EXPECT_NE(after[1], before[1]);
}

TEST(CacheKeyTest, KeyTextDoesNotGrowWithTheDeviceTable) {
  const config::Deployment base = TwoGroupSanitizer().deployment();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  const std::vector<std::string> small = KeyTexts(base, options);
  config::Deployment grown = base;
  for (int i = 0; i < 100; ++i) {
    grown.devices.push_back(
        {"spare" + std::to_string(i), "smartSwitch", {"light"}});
  }
  const std::vector<std::string> large = KeyTexts(grown, options);
  ASSERT_EQ(large.size(), small.size());
  for (std::size_t g = 0; g < small.size(); ++g) {
    EXPECT_NE(large[g], small[g]);
    // Only the shared part's byte count gains digits.
    EXPECT_LE(large[g].size(), small[g].size() + 4) << "group " << g;
  }
}

// ---- Store policy and mechanics ----------------------------------------------

TEST(CacheTest, RefusesResultsThatAreNotPureFunctionsOfTheKey) {
  cache::ResultCache cache(cache::CacheConfig{});
  ScopedRegistry scoped;
  cache::GroupKey key;
  key.digest = 7;
  key.text = "k";
  checker::CheckResult incomplete;
  incomplete.completed = false;  // budget-stopped: wall-clock dependent
  cache.Store(key, incomplete, 1);
  checker::CheckResult racy_bitstate;
  racy_bitstate.store_fill_ratio = 0.25;  // bitstate occupancy
  cache.Store(key, racy_bitstate, 4);     // multi-lane: racy omission set
  EXPECT_EQ(scoped.registry.cache.store_skips, 2u);
  EXPECT_EQ(scoped.registry.cache.stores, 0u);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  // The same bitstate result computed on one lane is deterministic.
  cache.Store(key, racy_bitstate, 1);
  EXPECT_EQ(scoped.registry.cache.stores, 1u);
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST(CacheTest, MemoryLruEvictsLeastRecentlyUsed) {
  cache::CacheConfig config;
  config.memory_entries = 2;
  cache::ResultCache cache(config);
  ScopedRegistry scoped;
  auto key_n = [](std::uint64_t n) {
    cache::GroupKey key;
    key.digest = n;
    key.text = "key-" + std::to_string(n);
    return key;
  };
  cache.Store(key_n(1), {}, 1);
  cache.Store(key_n(2), {}, 1);
  EXPECT_TRUE(cache.Lookup(key_n(1)).has_value());  // touch 1; LRU = 2
  cache.Store(key_n(3), {}, 1);                     // evicts 2
  EXPECT_EQ(scoped.registry.cache.evictions, 1u);
  EXPECT_TRUE(cache.Lookup(key_n(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key_n(3)).has_value());
  EXPECT_FALSE(cache.Lookup(key_n(2)).has_value());
}

TEST(CacheTest, DigestCollisionDetectedByKeyText) {
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 99;
  key.text = "group-one";
  checker::CheckResult result;
  result.states_explored = 5;
  cache.Store(key, result, 1);
  cache::GroupKey colliding;
  colliding.digest = 99;  // same address
  colliding.text = "group-two";
  EXPECT_FALSE(cache.Lookup(colliding).has_value());
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST(CacheTest, SingleFlightComputesOnce) {
  cache::ResultCache cache(cache::CacheConfig{});
  ScopedRegistry scoped;
  cache::GroupKey key;
  key.digest = 42;
  key.text = "shared";
  std::atomic<int> computes{0};
  auto compute = [&]() {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    checker::CheckResult result;
    result.states_explored = 11;
    return result;
  };
  std::vector<std::thread> threads;
  std::atomic<int> wrong_results{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&]() {
      const checker::CheckResult result =
          cache.FetchOrCompute(key, 1, compute);
      if (result.states_explored != 11) ++wrong_results;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes, 1) << "concurrent same-key callers must share one run";
  EXPECT_EQ(wrong_results, 0);
  EXPECT_GT(scoped.registry.cache.singleflight_waits, 0u);
}

TEST(CacheTest, SingleFlightSurvivesLeaderFailure) {
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 43;
  key.text = "flaky";
  std::atomic<int> attempts{0};
  auto compute = [&]() -> checker::CheckResult {
    if (attempts.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw Error("transient");
    }
    checker::CheckResult result;
    result.states_explored = 23;
    return result;
  };
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&]() {
      try {
        if (cache.FetchOrCompute(key, 1, compute).states_explored == 23) {
          ++successes;
        }
      } catch (const Error&) {
        // The failing leader rethrows to its own caller.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes, 3) << "a waiter must take over after a failed leader";
}

TEST(CacheTest, ScanAndClearAccountForEveryFile) {
  const std::string dir = FreshDir("maint");
  cache::CacheConfig config;
  config.dir = dir;
  config.version = "v";
  cache::ResultCache cache(config);
  cache::GroupKey key;
  key.digest = 5;
  key.text = "k";
  cache.Store(key, {}, 1);
  std::ofstream(dir + "/deadbeefdeadbeef.json") << "not json";
  cache::DirStats stats = cache::ResultCache::Scan(dir, "v");
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.removed, 0u);
  stats = cache::ResultCache::Clear(dir);
  EXPECT_EQ(stats.removed, 2u);
  EXPECT_TRUE(fs::is_empty(dir));
}

}  // namespace
}  // namespace iotsan
