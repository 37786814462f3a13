#pragma once
// Structure-of-arrays protocol pools (docs/PERF.md, "Memory model").
//
// The pools are the only implementation of every honest protocol: crash
// flooding (Section VII), CPA (Section IX), the two-hop Byzantine protocol
// (Section VI-B) and the full four-hop one (Section VI). Their state is laid
// out flat:
//
//   * dense std::vector arrays indexed by slot for per-node phase state
//     (committed value, commit round, claim tallies);
//   * one bit per slot for commit flags (DenseBits);
//   * packed-key open-addressing hash tables (PackedKeySet / PackedU32Map,
//     protocols/flat_table.h) for the per-node relations — keys pack (slot,
//     peer, value) into one uint64, and the tables are only ever probed,
//     never iterated, so their layout cannot leak into results;
//   * a shared arena for the per-(slot, origin, value) reporter-count blocks
//     of the two-hop protocol (one contiguous K-slot block per active pair),
//     and one pool-wide store of the four-hop protocol's per-(slot, origin,
//     value) IncrementalDetermination states.
//
// A slot is a node's CSR index when the simulator installs one pool for all
// honest nodes of a trial (`slots` = node count), and 0 when a
// PoolNodeBehavior (net/pool.h) drives a single node through a one-slot pool
// — the runtime, fault wrappers and behavior factories. Peers are always
// addressed by their torus index, so both layouts run the same statements.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/message.h"
#include "radiobcast/net/pool.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/protocols/flat_table.h"

namespace rbcast {

class EarmarkPlan;

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

/// Packed (slot, node, value bit) key: slot and torus index are both below
/// 2^31, so the key uses at most 63 bits and never equals the tables' empty
/// sentinel. Relations without a value (first claim per sender) pass 0.
constexpr std::uint64_t nov_key(std::int32_t slot, std::int32_t node,
                                std::uint8_t value = 0) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 1) |
         (value & 1);
}

/// The commit rule both Byzantine protocols share (Section VI): a node commits
/// to v once it has *reliably determined* that at least t+1 nodes lying in
/// one neighborhood committed to v. Evaluated incrementally: every new
/// determination (origin, v) bumps a per-(slot, center, v) count for every
/// center c with origin in nbd(c) — the centers within distance r of origin,
/// origin itself excluded — and the rule fires once one count reaches t+1.
/// Single value domain {0, 1}.
class NeighborhoodCommitRule {
 public:
  NeighborhoodCommitRule(const Torus& torus, std::int32_t r, Metric m,
                         std::int64_t t)
      : torus_(torus), t_(t), table_(NeighborhoodTable::get(r, m)) {}

  /// Records that `slot` reliably determined that `origin` committed
  /// `value`. Idempotent per (slot, origin, value). Returns true iff the
  /// determination is new and some neighborhood now holds t+1 determined
  /// committers of `value` (callers commit idempotently, so firing again
  /// after the first time is harmless).
  bool record(std::int32_t slot, Coord origin, std::uint8_t value) {
    const Coord o = torus_.wrap(origin);
    if (!determined_.insert(nov_key(slot, torus_.index(o), value))) {
      return false;
    }
    bool fired = false;
    for (const Offset off : table_.offsets()) {
      std::uint32_t& count =
          center_counts_.slot(nov_key(slot, torus_.index(o + off), value));
      count += 1;
      if (static_cast<std::int64_t>(count) >= t_ + 1) fired = true;
    }
    return fired;
  }

  /// True iff `slot` determined that the node at torus index `origin`
  /// committed `value`.
  bool is_determined(std::int32_t slot, std::int32_t origin,
                     std::uint8_t value) const {
    return determined_.contains(nov_key(slot, origin, value));
  }

  /// Determinations recorded, summed over all slots.
  std::int64_t determinations() const {
    return static_cast<std::int64_t>(determined_.size());
  }

  std::uint64_t bytes() const {
    return determined_.bytes() + center_counts_.bytes();
  }

 private:
  Torus torus_;
  std::int64_t t_;
  const NeighborhoodTable& table_;
  PackedKeySet determined_;     // nov_key(slot, origin, value)
  PackedU32Map center_counts_;  // nov_key(slot, center, value) -> count
};

/// Base of the protocol pools: the dense commit state every pool carries
/// (one committed bit, value byte and commit round per slot), the NodePool
/// queries answered from it, and the one way a node commits.
class CommitPool : public NodePool {
 public:
  std::optional<std::uint8_t> committed_value(std::int32_t node) const final {
    if (!committed(node)) return std::nullopt;
    return value_[static_cast<std::size_t>(node)];
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const final {
    if (!committed(node)) return std::nullopt;
    return round_[static_cast<std::size_t>(node)];
  }

 protected:
  explicit CommitPool(std::int64_t slots)
      : committed_(slots),
        value_(static_cast<std::size_t>(slots), 0),
        round_(static_cast<std::size_t>(slots), -1) {}

  bool committed(std::int32_t node) const { return committed_.test(node); }

  /// Unless `node` already committed: records `value` and the round, counts
  /// the commit and broadcasts COMMITTED(self, value) — its only one.
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  std::uint64_t commit_bytes() const {
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
class CrashFloodPool final : public CommitPool {
 public:
  explicit CrashFloodPool(std::int64_t slots) : CommitPool(slots) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::uint64_t state_bytes() const override { return commit_bytes(); }
};

/// The Certified Propagation Algorithm of [Koo04], analyzed in Section IX.
/// The source's direct neighbors commit on hearing it; every other node
/// commits once t+1 distinct neighbors announced the same value (first claim
/// per neighbor only), re-broadcasts once and terminates. State: dense claim
/// tallies per value plus a packed (slot, sender) first-claim set.
class CpaPool final : public CommitPool {
 public:
  CpaPool(const ProtocolParams& params, const Torus& torus,
          std::int64_t slots)
      : CommitPool(slots),
        t_(params.t),
        source_(torus.wrap(params.source)),
        claims_(static_cast<std::size_t>(slots) * 2, 0) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::uint64_t state_bytes() const override {
    return commit_bytes() + claims_.size() * sizeof(std::int32_t) +
           first_claim_.bytes();
  }

 private:
  std::int64_t t_;
  Coord source_;
  std::vector<std::int32_t> claims_;  // 2 per slot: [2*slot + value]
  PackedKeySet first_claim_;          // nov_key(slot, sender)
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
class BvTwoHopPool final : public CommitPool {
 public:
  /// Throws std::invalid_argument outside CenterTable::require's domain.
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m, std::int64_t slots);

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::uint64_t state_bytes() const override;

  /// True iff `node` has reliably determined that the node at torus index
  /// `origin` committed `value` (exposed for tests).
  bool has_determined(std::int32_t node, std::int32_t origin,
                      std::uint8_t value) const {
    return rule_.is_determined(node, origin, value);
  }

  /// (origin, value) pairs determined, summed over all slots — for a
  /// one-slot pool, that node's count (exposed for tests).
  std::int64_t determinations() const { return rule_.determinations(); }

 private:
  void handle_committed(NodeContext& ctx, std::int32_t node,
                        const Envelope& env);
  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);
  void determine(NodeContext& ctx, std::int32_t node, Coord origin,
                 std::uint8_t value);

  std::int64_t t_;
  bool track_after_commit_;
  Coord source_;
  std::int32_t r_;
  Metric m_;
  const CenterTable& center_table_;  // its domain check precedes rule_
  NeighborhoodCommitRule rule_;
  PackedKeySet first_committed_;  // nov_key(slot, sender)
  PackedKeySet heard_consumed_;   // (slot << 42) | (reporter << 21) | origin
  PackedU32Map reporter_blocks_;  // nov_key(slot, origin, value) -> block + 1
  std::vector<std::int32_t> reporter_arena_;  // blocks of K counts
  std::size_t arena_blocks_ = 0;
};

enum class RelayMode : std::uint8_t { kFlood, kEarmarked };

/// The full Bhandari–Vaidya Byzantine protocol (Section VI): COMMITTED
/// announcements plus HEARD reports relayed through up to three intermediate
/// nodes (four hops from the committer). Achieves the exact threshold
/// t < r(2r+1)/2 in L-inf (Theorems 1-3).
///
///  * (i, v) is reliably determined on COMMITTED(i, v) from i itself (first
///    value per sender), or once t+1 *node-disjoint* reported paths
///    i -> relayers... whose nodes (i and every relayer) all lie in nbd(c) for
///    one center c are held. Reports are atomic trust units (a report is
///    truthful iff all its relayers are honest), so disjointness is computed
///    by exact set packing over whole reports (paths/packing.h), never by
///    recombining hops;
///  * a node commits through the shared NeighborhoodCommitRule.
///
/// Relay modes:
///   kFlood     — faithful protocol: relay every plausible, potentially
///                useful HEARD (the chain plus the relayer must still fit in a
///                single neighborhood with the committer, otherwise no decider
///                could ever accept an extension of it).
///   kEarmarked — relay only along the constructive path families of
///                Theorem 3 (protocols/earmark.h); same commit outcomes, far
///                less traffic. L-inf only.
///
/// Evidence about one (slot, origin, value) pair is an IncrementalDetermination
/// (protocols/determination.h) in one pool-wide record store. A slot's
/// records form a singly linked list, walked at the slot's round end: dirty
/// pairs are evaluated in ascending origin_value_key order, and records whose
/// evidence was already released are unlinked and recycled. Evidence is
/// released as soon as its pair is determined, and all of a slot's evidence
/// once the slot commits (unless track_after_commit).
///
/// Growth is bounded against report-flooding adversaries: at most
/// kReportsPerFirstRelayer reports are kept per first relayer (the first
/// relayer must be a plausible direct neighbor of the committer, so there are
/// at most |nbd| of them). Honest constructive families use distinct first
/// relayers, so the cap never starves an honest determination; junk beyond
/// the cap is dropped, which can only delay liveness, never break safety.
class BvIndirectPool final : public CommitPool {
 public:
  /// Throws std::invalid_argument outside CenterTable::require's domain
  /// (1 <= r <= 7 under L-inf, 1 <= r <= 9 under L2).
  BvIndirectPool(const ProtocolParams& params, const Torus& torus,
                 std::int32_t r, Metric m, RelayMode mode, std::int64_t slots);

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;
  void on_round_end(NodeContext& ctx, std::int32_t node) override;
  bool wants_round_end() const override { return true; }

  /// Tables plus every live pair's evidence (O(records) per call).
  std::uint64_t state_bytes() const override;

  /// True iff `node` has reliably determined that the node at torus index
  /// `origin` committed `value` (exposed for tests).
  bool has_determined(std::int32_t node, std::int32_t origin,
                      std::uint8_t value) const {
    return rule_.is_determined(node, origin, value);
  }

  /// (origin, value) pairs determined, summed over all slots — for a
  /// one-slot pool, that node's count (exposed for tests).
  std::int64_t determinations() const { return rule_.determinations(); }

 private:
  static constexpr int kReportsPerFirstRelayer = 8;

  /// One (slot, origin, value) pair's evidence; `det` is null once released.
  struct PairEvidence {
    Coord origin{};
    std::uint8_t value = 0;
    bool dirty = false;      // accepted a report since the last round end
    std::uint32_t next = 0;  // the slot's next record + 1, 0 = end of list
    std::unique_ptr<IncrementalDetermination> det;
  };

  void handle_committed(NodeContext& ctx, std::int32_t node,
                        const Envelope& env);
  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);
  void determine(NodeContext& ctx, std::int32_t node, Coord origin,
                 std::uint8_t value);
  /// Starts evidence for the pair `key` names; returns its record.
  std::uint32_t open(std::int32_t node, Coord origin, std::uint8_t value,
                     std::uint64_t key);
  /// Destroys the evidence of the pair `key` names, if any.
  void release(std::uint64_t key);

  std::int64_t t_;
  bool track_after_commit_;
  Coord source_;
  std::int32_t r_;
  Metric m_;
  RelayMode mode_;
  const CenterTable& center_table_;  // its domain check precedes rule_
  const EarmarkPlan* earmarks_;      // non-null iff mode == kEarmarked
  std::uint64_t digest_seed_;
  NeighborhoodCommitRule rule_;
  PackedKeySet first_committed_;  // nov_key(slot, sender)
  PackedU32Map evidence_index_;   // nov_key(slot, origin, value) -> record
  std::vector<PairEvidence> records_;
  std::vector<std::uint32_t> free_records_;
  std::vector<std::uint32_t> slot_records_;  // per slot: first record + 1
  // Round-end scratch: (origin_value_key, record) of the slot's dirty pairs.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch_dirty_;
};

}  // namespace rbcast
