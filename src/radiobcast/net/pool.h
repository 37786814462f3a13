#pragma once
// Structure-of-arrays node dispatch (docs/PERF.md, "Memory model").
//
// A NodePool hosts the protocol state of MANY nodes in dense arrays indexed
// by slot, replacing one heap-allocated object per node. The simulator
// installs one pool for the honest nodes of a trial (slot = CSR node index)
// and delivers to them through it; the source, adversaries and bespoke test
// behaviors keep per-node NodeBehavior objects. Everything that drives one
// node at a time — the networked runtime, fault wrappers such as
// CrashAtRoundBehavior, behavior factories — wraps a one-slot pool in a
// PoolNodeBehavior instead. Both receive the same callbacks in the same
// order with the same NodeContext, so they produce identical results; the
// golden SHA-256 suite and tests/test_runtime_equivalence.cpp pin that.
//
// Concrete pools live in protocols/pool.h (they depend on protocol
// machinery); this header is the net-layer contract only.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "radiobcast/net/backend.h"

namespace rbcast {

/// Flat multi-node protocol state. All callbacks mirror NodeBehavior's, with
/// the dense node index added so implementations address plain arrays.
class NodePool {
 public:
  virtual ~NodePool() = default;

  /// Called once per managed node before the first round (node-index order).
  virtual void on_start(NodeContext& /*ctx*/, std::int32_t /*node*/) {}

  /// Called for each transmission heard by a managed node.
  virtual void on_receive(NodeContext& ctx, std::int32_t node,
                          const Envelope& env) = 0;

  /// Called once per round per managed node — but only when
  /// wants_round_end() is true: pools with no round-end work opt out and the
  /// network skips the whole O(nodes)-per-round sweep for them.
  virtual void on_round_end(NodeContext& /*ctx*/, std::int32_t /*node*/) {}
  virtual bool wants_round_end() const { return false; }

  virtual std::optional<std::uint8_t> committed_value(
      std::int32_t node) const = 0;
  virtual std::optional<std::int64_t> commit_round(std::int32_t node) const = 0;

  /// Bytes of protocol state currently held, counted from logical sizes and
  /// the pool's own (deterministic) table growth schedule — never from
  /// std::vector capacities, so the figure is identical across standard
  /// libraries. Feeds Counters::engine_bytes_peak.
  virtual std::uint64_t state_bytes() const { return 0; }
};

/// Drives one node through a pool sized for one node, addressing slot 0 —
/// O(1) memory per wrapped node, whatever the torus size.
class PoolNodeBehavior final : public NodeBehavior {
 public:
  explicit PoolNodeBehavior(std::unique_ptr<NodePool> pool)
      : pool_(std::move(pool)) {}

  void on_start(NodeContext& ctx) override { pool_->on_start(ctx, 0); }
  void on_receive(NodeContext& ctx, const Envelope& env) override {
    pool_->on_receive(ctx, 0, env);
  }
  void on_round_end(NodeContext& ctx) override {
    if (pool_->wants_round_end()) pool_->on_round_end(ctx, 0);
  }
  std::optional<std::uint8_t> committed_value() const override {
    return pool_->committed_value(0);
  }
  std::optional<std::int64_t> commit_round() const override {
    return pool_->commit_round(0);
  }

  const NodePool& pool() const { return *pool_; }

 private:
  std::unique_ptr<NodePool> pool_;
};

}  // namespace rbcast
