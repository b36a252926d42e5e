// Content-addressed cache keys for per-group verification results.
//
// A related-set group's verification outcome is a pure function of
//   * the analyzed apps' sources (what the Translator would produce),
//   * the configuration the group is checked under: all devices
//     (role-bound properties see every device), the group's app
//     instances with their input bindings, the location modes, contact
//     phone, and network policy,
//   * the active safety-property set (built-ins + user-defined),
//   * the CheckOptions that influence the result (NOT `jobs`/`pool`/
//     `on_progress`: the search canonicalizes output across lane counts),
//   * the model-generation options, and
//   * the iotsan version (a new build may change semantics).
//
// All of that except the group's own app instances is the same for
// every group of one check.  So the key has two halves:
//   * the shared half (SharedKeyText: device table, modes, contact
//     phone, network policy, property set, options, version), rendered
//     and digested once per check into a length + FNV-1a 64 pair;
//   * the group half: the group's app instances with their bindings,
//     embedded verbatim, plus each app's source digest (memoized per
//     app definition in a RequestKeyPart).
// GroupKeyText joins the shared digest and the group half into a compact
// JSON document (std::map-ordered keys) and MakeGroupKey hashes it with
// the util/hash FNV-1a infrastructure, so a key costs O(group), not
// O(home).  The 64-bit digest addresses the entry (file name, LRU slot);
// the full document rides along inside the entry so a digest collision
// on it is detected by text comparison and degrades to a miss instead of
// serving a wrong result.  The shared half and the sources are carried
// as digests, so for them the key relies on FNV-1a plus the byte length
// telling different inputs apart (docs/caching.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "checker/checker.hpp"
#include "config/deployment.hpp"
#include "model/system_model.hpp"
#include "props/property.hpp"

namespace iotsan::cache {

/// Schema of key documents and cache entries.  Bumped whenever the key
/// layout changes: entries and registry records written under another
/// schema never match a current key, so they miss once and are rebuilt.
inline constexpr const char* kCacheSchema = "iotsan.cache/2";

/// True for the schema of any key layout, current or older
/// ("iotsan.cache/<n>"): such a document is stale, not corrupt.
bool IsCacheSchema(std::string_view schema);

/// A length + FNV-1a 64 fingerprint of some canonical bytes.
struct Digest {
  std::uint64_t bytes = 0;
  std::uint64_t fnv = 0;
};

/// The fingerprint of `bytes`.
Digest DigestOf(std::string_view bytes);

/// Everything in a group's key that every group of one check shares.
struct SharedKeyInputs {
  /// Devices, name, modes, contact phone and network policy; the apps
  /// are not read (they belong to the group half).
  const config::Deployment* deployment = nullptr;
  /// The full active property set (built-ins + extras), in order.
  const std::vector<props::Property>* properties = nullptr;
  const checker::CheckOptions* check = nullptr;
  const model::ModelOptions* model = nullptr;
  /// Tool version baked into the key; empty = util/build_info version.
  std::string version;
};

/// Canonical document of the shared half (compact JSON dump).  The
/// device table is embedded verbatim; the property set folds to an FNV
/// fingerprint.
std::string SharedKeyText(const SharedKeyInputs& inputs);

/// The request-wide half of the group keys of one check, computed once
/// and then read by every key: the shared digest plus the source digest
/// of each app definition the groups install.
struct RequestKeyPart {
  /// DigestOf(SharedKeyText(...)).
  Digest shared;
  /// App definition name -> digest of its SmartScript source.
  std::map<std::string, Digest> sources;
};

/// Everything a group's verification result depends on.
struct GroupKeyInputs {
  /// The request-wide half; must hold a source digest for every app
  /// definition in `apps`.
  const RequestKeyPart* request = nullptr;
  /// The group's app instances, in group order.
  std::vector<const config::AppConfig*> apps;
};

struct GroupKey {
  /// FNV-1a digest of `text` — the content address.
  std::uint64_t digest = 0;
  /// The canonical key document (compact JSON).
  std::string text;

  /// The digest as 16 lowercase hex digits (entry file stem).
  std::string Hex() const;
};

/// Canonical key document for `inputs` (compact JSON dump): the shared
/// digest, the group's app instances verbatim, and their source digests.
std::string GroupKeyText(const GroupKeyInputs& inputs);

/// Builds the content-addressed key: digest = Fnv1a64(GroupKeyText).
GroupKey MakeGroupKey(const GroupKeyInputs& inputs);

/// FNV fingerprint of the active property set (id, kind, category,
/// description, expression per property, length-delimited).  Exposed for
/// the golden-value tests.
std::uint64_t PropertySetFingerprint(
    const std::vector<props::Property>& properties);

}  // namespace iotsan::cache
