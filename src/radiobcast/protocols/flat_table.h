#pragma once
// Flat open-addressing hash tables of the protocols layer (docs/PERF.md,
// "Memory model"): linear probing over one power-of-two array of trivially
// copyable keys, grown by doubling at ~0.7 load. An insert or lookup that
// does not grow the table touches no heap. The growth schedule is a pure
// function of the insertion sequence, so bytes() is deterministic across
// platforms; the tables are only ever probed, never iterated, so their layout
// cannot leak into results.
//
//   * FlatKeySet<Key>   — a set of fixed-width keys (the liar's sent lies).
//   * PackedKeySet      — FlatKeySet of packed uint64 keys (pool relations,
//                         evidence dedup).
//   * PackedU32Map      — packed uint64 keys to uint32 values, with erase.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace rbcast {

/// splitmix64 finalizer — the tables' hash, and the evidence digest mixer
/// (also used by the seeds).
constexpr std::uint64_t det_mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Key traits of a flat table: `kEmpty`, the empty-slot sentinel no stored
/// key may equal, and `hash(key)`.
template <typename Key>
struct FlatKeyTraits;

/// Packed uint64 keys: every packing in the protocols keeps key bits well
/// under 64, so ~0ull is free as the sentinel.
template <>
struct FlatKeyTraits<std::uint64_t> {
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static std::uint64_t hash(std::uint64_t key) { return det_mix64(key); }
};

/// Open-addressing set of fixed-width keys.
template <typename Key, typename Traits = FlatKeyTraits<Key>>
class FlatKeySet {
  static_assert(std::is_trivially_copyable_v<Key>);

 public:
  FlatKeySet() : keys_(kInitialCapacity, Traits::kEmpty) {}

  /// Inserts `key`; returns true iff it was not already present.
  bool insert(const Key& key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != Traits::kEmpty) {
      if (keys_[i] == key) return false;
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) grow();
    return true;
  }

  bool contains(const Key& key) const {
    std::size_t i = slot_of(key);
    while (keys_[i] != Traits::kEmpty) {
      if (keys_[i] == key) return true;
      i = (i + 1) & (keys_.size() - 1);
    }
    return false;
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const { return keys_.size() * sizeof(Key); }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(const Key& key) const {
    return static_cast<std::size_t>(Traits::hash(key)) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<Key> old = std::move(keys_);
    keys_.assign(old.size() * 2, Traits::kEmpty);
    for (const Key& key : old) {
      if (key == Traits::kEmpty) continue;
      std::size_t i = slot_of(key);
      while (keys_[i] != Traits::kEmpty) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = key;
    }
  }

  std::vector<Key> keys_;
  std::size_t size_ = 0;
};

using PackedKeySet = FlatKeySet<std::uint64_t>;

/// Open-addressing map from packed uint64 keys to uint32 values, same scheme
/// as PackedKeySet. slot() inserts a zero-initialized value on first access;
/// erase() removes a key.
class PackedU32Map {
 public:
  PackedU32Map()
      : keys_(kInitialCapacity, kEmpty), values_(kInitialCapacity, 0) {}

  /// Value slot for `key`, default-inserting 0. The reference is invalidated
  /// by the next slot() call (a grow may rehash).
  std::uint32_t& slot(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    values_[i] = 0;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) {
      grow();
      return *find(key);
    }
    return values_[i];
  }

  /// Value slot for `key`, or nullptr if absent (never inserts).
  std::uint32_t* find(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    return nullptr;
  }

  /// Removes `key` if present. Backward-shift deletion: later entries of the
  /// probe run move up into the hole, so no tombstones are left behind.
  void erase(std::uint64_t key) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t hole = slot_of(key);
    while (keys_[hole] != key) {
      if (keys_[hole] == kEmpty) return;
      hole = (hole + 1) & mask;
    }
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmpty;
         j = (j + 1) & mask) {
      // keys_[j] may fill the hole iff its home slot is not in (hole, j].
      if (((j - slot_of(keys_[j])) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        values_[hole] = values_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    --size_;
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

 private:
  static constexpr std::uint64_t kEmpty = FlatKeyTraits<std::uint64_t>::kEmpty;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(det_mix64(key)) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    values_.assign(old_keys.size() * 2, 0);
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      std::size_t i = slot_of(old_keys[j]);
      while (keys_[i] != kEmpty) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t size_ = 0;
};

}  // namespace rbcast
