#include "checker/state_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"

namespace iotsan::checker {

ExhaustiveStore::ExhaustiveStore(unsigned shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint64_t ExhaustiveStore::Hash(std::span<const std::uint8_t> bytes) {
  return hash::WordHash64(bytes);
}

std::uint8_t* ByteArena::Allocate(std::size_t size) {
  if (block_used_ + size > block_size_) {
    block_size_ = std::max(
        block_size_ == 0 ? first_block_ : std::min(block_size_ * 2, max_block_),
        size);
    blocks_.push_back(std::make_unique<std::uint8_t[]>(block_size_));
    block_used_ = 0;
    block_bytes_ += block_size_;
  }
  std::uint8_t* out = blocks_.back().get() + block_used_;
  block_used_ += size;
  return out;
}

bool ExhaustiveStore::TestAndInsertHashed(std::span<const std::uint8_t> bytes,
                                          std::uint64_t hash) {
  const auto size = static_cast<std::uint32_t>(bytes.size());
  // Shard from the top hash bits, slot from the low bits, so the two
  // stay uncorrelated.
  Shard& shard = *shards_[(hash >> 32) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t i = hash & mask;
  for (; shard.slots[i].bytes != nullptr; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (slot.hash != hash) continue;
    std::uint32_t stored_size;
    std::memcpy(&stored_size, slot.bytes, sizeof(stored_size));
    if (stored_size == size &&
        std::equal(bytes.begin(), bytes.end(),
                   slot.bytes + sizeof(stored_size))) {
      return true;
    }
  }
  std::uint8_t* copy = shard.arena.Allocate(sizeof(size) + bytes.size());
  std::memcpy(copy, &size, sizeof(size));
  std::copy(bytes.begin(), bytes.end(), copy + sizeof(size));
  shard.slots[i] = {hash, copy};
  shard.memory += bytes.size() + sizeof(void*) * 2;
  if (++shard.count * 2 > shard.slots.size()) Grow(shard);
  return false;
}

void ExhaustiveStore::Grow(Shard& shard) {
  std::vector<Slot> slots(shard.slots.size() * 2);
  const std::size_t mask = slots.size() - 1;
  for (const Slot& slot : shard.slots) {
    if (slot.bytes == nullptr) continue;
    std::size_t i = slot.hash & mask;
    while (slots[i].bytes != nullptr) i = (i + 1) & mask;
    slots[i] = slot;
  }
  shard.slots = std::move(slots);
}

std::uint64_t ExhaustiveStore::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->count;
  }
  return total;
}

std::uint64_t ExhaustiveStore::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->memory;
  }
  return total;
}

std::size_t InternPool::ViewHash::operator()(std::string_view key) const {
  return static_cast<std::size_t>(hash::Fnv1a64(key));
}

InternPool::InternPool(unsigned shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint32_t InternPool::Intern(std::span<const std::uint8_t> bytes) {
  const std::string_view key(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size());
  const std::uint64_t hash = hash::Fnv1a64(key);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[(hash >> 32) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Copy the component into the shard's arena; addresses are stable so
  // the map can key on a view into it.
  std::uint8_t* dest = shard.arena.Allocate(bytes.size());
  std::copy(bytes.begin(), bytes.end(), dest);
  const std::uint32_t index =
      next_index_.fetch_add(1, std::memory_order_relaxed);
  shard.entries.emplace(
      std::string_view(reinterpret_cast<const char*>(dest), bytes.size()),
      index);
  shard.memory += sizeof(void*) * 2 + sizeof(std::uint32_t);
  return index;
}

std::uint64_t InternPool::size() const {
  return next_index_.load(std::memory_order_relaxed);
}

std::uint64_t InternPool::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->memory + shard->arena.block_bytes();
  }
  return total;
}

BitstateStore::BitstateStore(std::size_t bit_count, unsigned hash_count,
                             std::uint64_t seed)
    : bits_(bit_count), hash_count_(hash_count == 0 ? 1 : hash_count),
      seed_(seed) {}

bool BitstateStore::TestAndInsert(std::span<const std::uint8_t> bytes) {
  // One pass over the state bytes yields the base hash; the k probe
  // positions are h1 + i*h2 (Kirsch-Mitzenmacher), with the two derived
  // hashes hoisted out of the probe loop.  A swarm-lane seed remixes the
  // base hash so each lane probes an independent bit pattern; seed 0
  // skips the remix and matches the historical store exactly.
  std::uint64_t base = hash::Fnv1a64(bytes);
  if (seed_ != 0) base = hash::SplitMix64(base ^ seed_);
  const hash::DoubleHash dh = hash::MakeDoubleHash(base);
  bool seen = true;
  std::uint64_t probe = dh.h1;
  for (unsigned i = 0; i < hash_count_; ++i, probe += dh.h2) {
    seen &= bits_.TestAndSet(probe);
  }
  if (!seen) inserted_.fetch_add(1, std::memory_order_relaxed);
  return seen;
}

double BitstateStore::Occupancy() const {
  return static_cast<double>(bits_.PopCount()) /
         static_cast<double>(bits_.size());
}

double BitstateStore::EstOmissionProbability() const {
  double p = 1;
  const double fill = Occupancy();
  for (unsigned i = 0; i < hash_count_; ++i) p *= fill;
  return p;
}

}  // namespace iotsan::checker
