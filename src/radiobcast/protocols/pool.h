#pragma once
// Structure-of-arrays protocol pools (docs/PERF.md, "Memory model").
//
// The pools are the only implementation of crash flooding (Section VII), CPA
// (Section IX) and the two-hop Byzantine protocol (Section VI-B). Their state
// is laid out flat:
//
//   * dense std::vector arrays indexed by slot for per-node phase state
//     (committed value, commit round, claim tallies);
//   * one bit per slot for commit flags (DenseBits);
//   * packed-key open-addressing hash tables (PackedKeySet / PackedU32Map)
//     for the per-node relations — keys pack (slot, peer, value) into one
//     uint64, and the tables are only ever probed, never iterated, so their
//     layout cannot leak into results;
//   * a shared arena for the per-(slot, origin, value) reporter-count blocks
//     of the two-hop protocol (one contiguous K-slot block per active pair).
//
// A slot is a node's CSR index when the simulator installs one pool for all
// honest nodes of a trial (`slots` = node count), and 0 when a
// PoolNodeBehavior (net/pool.h) drives a single node through a one-slot pool
// — the runtime, fault wrappers and behavior factories. Peers are always
// addressed by their torus index, so both layouts run the same statements.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/message.h"
#include "radiobcast/net/pool.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/determination.h"

namespace rbcast {

/// One bit per slot.
class DenseBits {
 public:
  explicit DenseBits(std::int64_t n)
      : words_(static_cast<std::size_t>((n + 63) / 64), 0) {}

  bool test(std::int32_t i) const {
    return (words_[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1;
  }
  void set(std::int32_t i) {
    words_[static_cast<std::size_t>(i) >> 6] |= 1ULL << (i & 63);
  }

  std::uint64_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Open-addressing set of packed uint64 keys (linear probing, power-of-two
/// capacity, grown at ~0.7 load). Keys must never equal ~0ull (the empty
/// sentinel) — every packing below keeps key bits well under 64. The growth
/// schedule is a pure function of the insertion sequence, so bytes() is
/// deterministic across platforms.
class PackedKeySet {
 public:
  PackedKeySet() : keys_(kInitialCapacity, kEmpty) {}

  /// Inserts `key`; returns true iff it was not already present.
  bool insert(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return false;
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) grow();
    return true;
  }

  bool contains(std::uint64_t key) const {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return true;
      i = (i + 1) & (keys_.size() - 1);
    }
    return false;
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const { return keys_.size() * sizeof(std::uint64_t); }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(det_mix64(key)) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(keys_);
    keys_.assign(old.size() * 2, kEmpty);
    for (const std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t i = slot_of(key);
      while (keys_[i] != kEmpty) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = key;
    }
  }

  std::vector<std::uint64_t> keys_;
  std::size_t size_ = 0;
};

/// Open-addressing map from packed uint64 keys to uint32 values, same scheme
/// as PackedKeySet. slot() inserts a zero-initialized value on first access
/// (the only mutation the protocols need).
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
      return *find_existing(key);
    }
    return values_[i];
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(det_mix64(key)) & (keys_.size() - 1);
  }

  std::uint32_t* find_existing(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != key) i = (i + 1) & (keys_.size() - 1);
    return &values_[i];
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

/// Shared dense commit state (committed bit, value, round) — the per-node
/// fields every protocol pool carries.
class CommitArrays {
 public:
  explicit CommitArrays(std::int64_t n)
      : committed_(n),
        value_(static_cast<std::size_t>(n), 0),
        round_(static_cast<std::size_t>(n), -1) {}

  bool committed(std::int32_t node) const { return committed_.test(node); }
  std::uint8_t value(std::int32_t node) const {
    return value_[static_cast<std::size_t>(node)];
  }

  void set(std::int32_t node, std::uint8_t value, std::int64_t round) {
    committed_.set(node);
    value_[static_cast<std::size_t>(node)] = value;
    round_[static_cast<std::size_t>(node)] =
        static_cast<std::int32_t>(round);
  }

  std::optional<std::uint8_t> committed_value(std::int32_t node) const {
    if (!committed_.test(node)) return std::nullopt;
    return value_[static_cast<std::size_t>(node)];
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const {
    if (!committed_.test(node)) return std::nullopt;
    return round_[static_cast<std::size_t>(node)];
  }

  std::uint64_t bytes() const {
    return committed_.bytes() + value_.size() +
           round_.size() * sizeof(std::int32_t);
  }

 private:
  DenseBits committed_;
  std::vector<std::uint8_t> value_;  // valid iff the committed bit is set
  std::vector<std::int32_t> round_;
};

/// Crash-stop broadcast (Section VII): "each node that receives a value
/// commits to it, re-broadcasts it once for the benefit of others, and then
/// may terminate." Per-node state: one commit bit + value byte + round.
class CrashFloodPool final : public NodePool {
 public:
  explicit CrashFloodPool(std::int64_t slots) : state_(slots) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override { return state_.bytes(); }

 private:
  CommitArrays state_;
};

/// The Certified Propagation Algorithm of [Koo04], analyzed in Section IX.
/// The source's direct neighbors commit on hearing it; every other node
/// commits once t+1 distinct neighbors announced the same value (first claim
/// per neighbor only), re-broadcasts once and terminates. State: dense claim
/// tallies per value plus a packed (slot, sender) first-claim set.
class CpaPool final : public NodePool {
 public:
  CpaPool(const ProtocolParams& params, const Torus& torus,
          std::int64_t slots)
      : t_(params.t),
        source_(torus.wrap(params.source)),
        state_(slots),
        claims_(static_cast<std::size_t>(slots) * 2, 0) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override {
    return state_.bytes() + claims_.size() * sizeof(std::int32_t) +
           first_claim_.bytes();
  }

 private:
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  std::int64_t t_;
  Coord source_;
  CommitArrays state_;
  std::vector<std::int32_t> claims_;  // 2 per slot: [2*slot + value]
  PackedKeySet first_claim_;          // (slot << 32) | sender index
};

/// The simplified Bhandari–Vaidya protocol (Section VI-B): only the
/// immediate neighbors of a committer send HEARD reports, so a commit
/// travels at most two hops; same exact threshold t < r(2r+1)/2 in L-inf.
///
///  * (i, v) is reliably determined on COMMITTED(i, v) from i itself (first
///    value per sender), or on HEARD(k, i, v) from t+1 distinct reporters k
///    that, together with i, lie in nbd(c) for one center c — one-intermediate
///    chains with distinct reporters are node-disjoint, so one is honest;
///  * a node commits to v once t+1 determined committers of v lie in one
///    neighborhood.
///
/// Reporter counts per candidate center come from the CenterTable bitset
/// walk; the per-(origin, value) count vectors are K-slot blocks in one
/// shared arena. The constructor enforces CenterTable::require's two-hop
/// domain.
class BvTwoHopPool final : public NodePool {
 public:
  /// Throws std::invalid_argument outside CenterTable::require's domain.
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m, std::int64_t slots);

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override;

  /// True iff `node` has reliably determined that the node at torus index
  /// `origin` committed `value` (exposed for tests).
  bool has_determined(std::int32_t node, std::int32_t origin,
                      std::uint8_t value) const {
    return determined_.contains(nov_key(node, origin, value));
  }

  /// (origin, value) pairs determined, summed over all slots — for a
  /// one-slot pool, that node's count (exposed for tests).
  std::int64_t determinations() const {
    return static_cast<std::int64_t>(determined_.size());
  }

 private:
  void handle_committed(NodeContext& ctx, std::int32_t node,
                        const Envelope& env);
  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);
  void determine(NodeContext& ctx, std::int32_t node, Coord origin,
                 std::uint8_t value);
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  // (slot, origin index, value bit) — 21 + 21 + 1 bits.
  static std::uint64_t nov_key(std::int32_t node, std::int32_t origin,
                               std::uint8_t value) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 22) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin))
            << 1) |
           (value & 1);
  }

  std::int64_t t_;
  bool track_after_commit_;
  Coord source_;
  std::int32_t r_;
  Metric m_;
  const CenterTable& center_table_;  // first: its domain check runs first
  const NeighborhoodTable& table_;
  CommitArrays state_;
  PackedKeySet first_committed_;  // (slot << 32) | sender index
  PackedKeySet heard_consumed_;   // (slot << 42) | (reporter << 21) | origin
  PackedKeySet determined_;       // nov_key(slot, origin, value)
  PackedU32Map center_counts_;    // nov_key(slot, center, value) -> count
  PackedU32Map reporter_blocks_;  // nov_key(slot, origin, value) -> block + 1
  std::vector<std::int32_t> reporter_arena_;  // blocks of K counts
  std::size_t arena_blocks_ = 0;
};

}  // namespace rbcast
