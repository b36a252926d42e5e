// Golden-value tests for the util/hash FNV-1a infrastructure and the
// cache fingerprints built on it (src/cache/fingerprint).  The pinned
// constants are the independently computed FNV-1a 64 reference values —
// if any of them moves, every on-disk cache entry and artifact
// fingerprint silently invalidates, so a failure here is a compat break,
// not a test to update casually.
#include <gtest/gtest.h>

#include "cache/fingerprint.hpp"
#include "checker/checker.hpp"
#include "config/builder.hpp"
#include "props/property.hpp"
#include "util/hash.hpp"

namespace iotsan {
namespace {

// ---- Fnv1a64 golden values ---------------------------------------------------

TEST(HashGoldenTest, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(hash::Fnv1a64(""), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(hash::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash::Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(hash::Fnv1a64("hello"), 0xa430d84680aabd0bULL);
  EXPECT_EQ(hash::Fnv1a64("iotsan"), 0xfe4cbfaeec95dde3ULL);
}

TEST(HashGoldenTest, StreamStringsAreLengthDelimited) {
  // "ab"+"c" and "a"+"bc" concatenate to the same bytes; the length
  // prefix must keep their digests apart.
  hash::Fnv1a64Stream ab_c;
  ab_c.Mix(std::string_view("ab")).Mix(std::string_view("c"));
  hash::Fnv1a64Stream a_bc;
  a_bc.Mix(std::string_view("a")).Mix(std::string_view("bc"));
  EXPECT_EQ(ab_c.digest(), 0x7e60470bf599cad6ULL);
  EXPECT_EQ(a_bc.digest(), 0xba1e1f0e0704d8eaULL);
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(HashGoldenTest, StreamIntegerAndDoubleEncodings) {
  hash::Fnv1a64Stream ints;
  ints.Mix(std::uint64_t{42});  // 8 little-endian bytes
  EXPECT_EQ(ints.digest(), 0xff3add6b3789daefULL);
  hash::Fnv1a64Stream doubles;
  doubles.Mix(1.5);  // IEEE-754 bit pattern, little endian
  EXPECT_EQ(doubles.digest(), 0xaa95e93229a27c80ULL);
}

TEST(HashGoldenTest, StreamCanonicalizesNegativeZero) {
  hash::Fnv1a64Stream pos;
  pos.Mix(0.0);
  hash::Fnv1a64Stream neg;
  neg.Mix(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(HashGoldenTest, HexIsSixteenLowercaseDigits) {
  hash::Fnv1a64Stream stream;  // empty stream = offset basis
  EXPECT_EQ(stream.Hex(), "cbf29ce484222325");
}

// ---- Group-key fingerprints --------------------------------------------------

config::Deployment TinyDeployment() {
  config::DeploymentBuilder b("h");
  b.Device("m1", "motionSensor");
  b.Device("sw", "smartSwitch", {"light"});
  b.App("Brighten My Path").Devices("motion1", {"m1"}).Devices("switches",
                                                               {"sw"});
  return b.Build();
}

/// The key of TinyDeployment's one-app group, with `source` standing
/// in for the app's SmartScript.
cache::GroupKey TinyKey(const config::Deployment& deployment,
                        const std::vector<props::Property>& props,
                        const checker::CheckOptions& check,
                        const model::ModelOptions& model,
                        const std::string& version = "test-1",
                        const std::string& source = "def h(evt) {}") {
  cache::SharedKeyInputs shared;
  shared.deployment = &deployment;
  shared.properties = &props;
  shared.check = &check;
  shared.model = &model;
  shared.version = version;
  cache::RequestKeyPart part;
  part.shared = cache::DigestOf(cache::SharedKeyText(shared));
  part.sources["Brighten My Path"] = cache::DigestOf(source);
  cache::GroupKeyInputs inputs;
  inputs.request = &part;
  for (const config::AppConfig& app : deployment.apps) {
    inputs.apps.push_back(&app);
  }
  return cache::MakeGroupKey(inputs);
}

TEST(GroupKeyTest, DeterministicAcrossCalls) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  cache::GroupKey a = TinyKey(deployment, props, check, model);
  cache::GroupKey b = TinyKey(deployment, props, check, model);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.Hex().size(), 16u);
  EXPECT_EQ(a.digest, hash::Fnv1a64(a.text));
}

TEST(GroupKeyTest, SourceEditChangesKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  const cache::GroupKey before = TinyKey(deployment, props, check, model);
  const cache::GroupKey after = TinyKey(deployment, props, check, model,
                                        "test-1", "def h(evt) { sw.on() }");
  EXPECT_NE(before.digest, after.digest);
}

TEST(GroupKeyTest, JobsDoNotAffectKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const model::ModelOptions model;
  checker::CheckOptions serial;
  serial.jobs = 1;
  checker::CheckOptions parallel;
  parallel.jobs = 8;
  const cache::GroupKey a = TinyKey(deployment, props, serial, model);
  const cache::GroupKey b = TinyKey(deployment, props, parallel, model);
  EXPECT_EQ(a.digest, b.digest) << "the key must be --jobs independent";
}

TEST(GroupKeyTest, CheckOptionsThatMatterChangeKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const model::ModelOptions model;
  checker::CheckOptions base;
  const cache::GroupKey key_base = TinyKey(deployment, props, base, model);
  checker::CheckOptions deeper = base;
  deeper.max_events = base.max_events + 1;
  EXPECT_NE(TinyKey(deployment, props, deeper, model).digest,
            key_base.digest);
  checker::CheckOptions failures = base;
  failures.model_failures = true;
  EXPECT_NE(TinyKey(deployment, props, failures, model).digest,
            key_base.digest);
  checker::CheckOptions bitstate = base;
  bitstate.store = checker::StoreKind::kBitstate;
  EXPECT_NE(TinyKey(deployment, props, bitstate, model).digest,
            key_base.digest);
}

TEST(GroupKeyTest, VersionChangesKey) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  const cache::GroupKey v1 = TinyKey(deployment, props, check, model);
  const cache::GroupKey v2 =
      TinyKey(deployment, props, check, model, "test-2");
  EXPECT_NE(v1.digest, v2.digest);
}

TEST(GroupKeyTest, TextCarriesTheSharedPartAsADigest) {
  const config::Deployment deployment = TinyDeployment();
  const std::vector<props::Property> props = props::BuiltinProperties();
  const checker::CheckOptions check;
  const model::ModelOptions model;
  const cache::GroupKey key = TinyKey(deployment, props, check, model);
  cache::SharedKeyInputs shared;
  shared.deployment = &deployment;
  shared.properties = &props;
  shared.check = &check;
  shared.model = &model;
  shared.version = "test-1";
  const std::string shared_text = cache::SharedKeyText(shared);
  const cache::Digest digest = cache::DigestOf(shared_text);
  EXPECT_EQ(digest.bytes, shared_text.size());
  EXPECT_EQ(digest.fnv, hash::Fnv1a64(shared_text));
  const json::Value doc = json::Parse(key.text);
  EXPECT_EQ(doc.GetString("schema"), cache::kCacheSchema);
  EXPECT_EQ(doc.At("shared").GetNumber("bytes"),
            static_cast<double>(shared_text.size()));
  EXPECT_EQ(doc.At("shared").GetString("fnv"),
            (cache::GroupKey{digest.fnv, ""}.Hex()));
  // The device table is not in the group's key text, only its digest.
  EXPECT_EQ(key.text.find("motionSensor"), std::string::npos);
  EXPECT_NE(shared_text.find("motionSensor"), std::string::npos);
  // The group's own binding is verbatim.
  EXPECT_NE(key.text.find(R"("motion1":["m1"])"), std::string::npos);
}

TEST(GroupKeyTest, PropertySetFingerprintTracksContent) {
  std::vector<props::Property> props;
  props.push_back(props::MakeInvariant("U1", "User", "light stays off",
                                       R"(!(any("light", "switch") == "on"))"));
  const std::uint64_t before = cache::PropertySetFingerprint(props);
  props[0].description = "edited";
  EXPECT_NE(cache::PropertySetFingerprint(props), before);
}

}  // namespace
}  // namespace iotsan
