#include "util/hash.hpp"

#include <cstdio>
#include <cstring>

namespace iotsan::hash {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t WordHash64(std::span<const std::uint8_t> bytes) {
  // xxHash64's primes and per-word round; the tail is zero-padded into
  // one last word, which the length mixed in up front disambiguates.
  constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
  constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto round = [&](std::uint64_t h, std::uint64_t word) {
    h ^= rotl(word * kPrime2, 31) * kPrime1;
    return rotl(h, 27) * kPrime1 + kPrime4;
  };
  std::uint64_t h = kPrime5 + bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = round(h, word);
  }
  if (i < bytes.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    h = round(h, word);
  }
  return SplitMix64(h);
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

DoubleHash MakeDoubleHash(std::uint64_t base) {
  // h_i = h1 + i*h2, with h1/h2 derived from the base hash.  The |1 keeps
  // h2 odd so distinct i yield distinct positions even for small bases.
  return {SplitMix64(base), SplitMix64(base ^ 0xa5a5a5a5a5a5a5a5ULL) | 1ULL};
}

std::uint64_t NthHash(std::uint64_t base, unsigned i) {
  return MakeDoubleHash(base).Nth(i);
}

Fnv1a64Stream& Fnv1a64Stream::MixBytes(std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    h_ ^= b;
    h_ *= kFnvPrime;
  }
  return *this;
}

Fnv1a64Stream& Fnv1a64Stream::Mix(std::string_view s) {
  Mix(static_cast<std::uint64_t>(s.size()));
  for (char c : s) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= kFnvPrime;
  }
  return *this;
}

Fnv1a64Stream& Fnv1a64Stream::Mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<std::uint8_t>(v >> (8 * i));
    h_ *= kFnvPrime;
  }
  return *this;
}

Fnv1a64Stream& Fnv1a64Stream::Mix(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(bits);
}

std::string Fnv1a64Stream::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace iotsan::hash
