// Hashing primitives used by the model checker's state stores.
//
// The checker hashes serialized state vectors.  The exhaustive store uses
// Fnv1a64; the BITSTATE store (Spin's approximate verification mode, paper
// §2.3) derives k independent bit positions from one 64-bit seed hash via
// SplitMix64 remixing, the standard double-hashing construction for Bloom
// filters.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace iotsan::hash {

/// 64-bit FNV-1a over raw bytes.
std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes);

/// 64-bit FNV-1a over a string.
std::uint64_t Fnv1a64(std::string_view s);

/// 64-bit hash that consumes 8 bytes per step (an xxHash64-style round
/// per word, a SplitMix64 finish).  Several times faster than Fnv1a64 on
/// state vectors, but it reads words in native byte order: use it only
/// for in-memory tables, never for persisted or cross-host digests.
std::uint64_t WordHash64(std::span<const std::uint8_t> bytes);

/// SplitMix64 finalizer; a strong 64-bit mixing function.
std::uint64_t SplitMix64(std::uint64_t x);

/// The (h1, h2) pair behind NthHash, exposed so hot loops derive the two
/// hashes once per key and step h1 + i*h2 per probe (Kirsch-Mitzenmacher)
/// instead of remixing the base hash for every probe.
struct DoubleHash {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 1;
  std::uint64_t Nth(unsigned i) const {
    return h1 + static_cast<std::uint64_t>(i) * h2;
  }
};
DoubleHash MakeDoubleHash(std::uint64_t base);

/// Derives the i-th hash for a k-hash Bloom filter from a base hash,
/// using the Kirsch-Mitzenmacher double-hashing scheme.  Equivalent to
/// MakeDoubleHash(base).Nth(i).
std::uint64_t NthHash(std::uint64_t base, unsigned i);

/// Streaming FNV-1a accumulator for composite fingerprints (the
/// incremental-analysis cache keys, src/cache).  Every Mix overload is
/// length- or width-delimited and byte-order-fixed (little endian), so
/// digests are stable across platforms and field concatenations cannot
/// alias ("ab"+"c" != "a"+"bc").
class Fnv1a64Stream {
 public:
  /// Raw bytes, NOT length-delimited (compose with Mix(uint64) when
  /// framing matters).
  Fnv1a64Stream& MixBytes(std::span<const std::uint8_t> bytes);
  /// Length-prefixed string: mixes the 64-bit length, then the bytes.
  Fnv1a64Stream& Mix(std::string_view s);
  /// 8 little-endian bytes.
  Fnv1a64Stream& Mix(std::uint64_t v);
  Fnv1a64Stream& Mix(bool v) { return Mix(std::uint64_t{v ? 1u : 0u}); }
  /// The IEEE-754 bit pattern (canonicalizing -0.0 to 0.0).
  Fnv1a64Stream& Mix(double v);

  std::uint64_t digest() const { return h_; }
  /// The digest as 16 lowercase hex digits (cache file names).
  std::string Hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace iotsan::hash
