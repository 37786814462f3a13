#include "radiobcast/protocols/pool.h"

#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"

namespace rbcast {
namespace {

/// Fills an r=2 network with one-slot two-hop pools behind the behavior
/// adapter and returns the pool driving `self`.
const BvTwoHopPool& two_hop_nodes(RadioNetwork& net, std::int64_t t,
                                  Coord self) {
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<PoolNodeBehavior>(
                            std::make_unique<BvTwoHopPool>(
                                ProtocolParams{t, {0, 0}}, net.torus(), 2,
                                Metric::kLInf, 1)));
  }
  const auto& node = dynamic_cast<const PoolNodeBehavior&>(*net.behavior(self));
  return dynamic_cast<const BvTwoHopPool&>(node.pool());
}

SimConfig base_config(std::int32_t r) {
  SimConfig cfg;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.r = r;
  cfg.metric = Metric::kLInf;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 21;
  return cfg;
}

TEST(BvTwoHop, FaultFreeFullCoverage) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
    EXPECT_TRUE(result.reached_quiescence);
  }
}

TEST(BvTwoHop, SurvivesCheckerboardBarrierAtExactThreshold) {
  // Koo's arrangement trimmed to the achievable budget t* = ceil(r(2r+1)/2)-1
  // must fail to stop the protocol (Theorem 1).
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = true;  // checkerboard is 1 over budget at t*
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    ASSERT_LE(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "r=" << r;
    EXPECT_EQ(result.wrong_commits, 0);
  }
}

TEST(BvTwoHop, StalledByCheckerboardAtImpossibilityBudget) {
  // At t = ceil(r(2r+1)/2) the untrimmed checkerboard strip starves deciders
  // beyond the barrier (the paper's impossibility region).
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_impossible_min(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = false;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    ASSERT_EQ(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
    const auto result = run_simulation(cfg, faults);
    EXPECT_FALSE(result.success()) << "r=" << r;
    EXPECT_GT(result.undecided, 0);
    EXPECT_EQ(result.wrong_commits, 0);  // safety holds regardless
  }
}

TEST(BvTwoHop, LyingBarrierNeverCausesWrongCommits) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    cfg.adversary = AdversaryKind::kLying;
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "r=" << r;
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvTwoHop, RandomLiarsAtThresholdAreHarmless) {
  SimConfig cfg = base_config(2);
  cfg.t = byz_linf_achievable_max(2);
  cfg.adversary = AdversaryKind::kLying;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  for (int rep = 0; rep < 3; ++rep) {
    Torus torus(cfg.width, cfg.height);
    Rng rng(30 + static_cast<std::uint64_t>(rep));
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "rep=" << rep;
    EXPECT_TRUE(result.success()) << "rep=" << rep;
  }
}

TEST(BvTwoHop, BehaviorUnitDirectDetermination) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  const BvTwoHopPool& pool = two_hop_nodes(net, 1, self);
  NodeContext ctx(net, self);
  NodeBehavior* b = net.behavior(self);
  EXPECT_EQ(pool.determinations(), 0);
  b->on_receive(ctx, {{9, 9}, make_committed({9, 9}, 1)});
  EXPECT_EQ(pool.determinations(), 1);
  // Duplicate and contradiction are both no-ops.
  b->on_receive(ctx, {{9, 9}, make_committed({9, 9}, 1)});
  b->on_receive(ctx, {{9, 9}, make_committed({9, 9}, 0)});
  EXPECT_EQ(pool.determinations(), 1);
}

TEST(BvTwoHop, BehaviorUnitIndirectDeterminationNeedsTPlusOneReporters) {
  const Torus torus(20, 20);
  const std::int64_t t = 2;
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  const Coord origin{13, 10};  // 3 away: not a direct neighbor (r=2)
  const BvTwoHopPool& pool = two_hop_nodes(net, t, self);
  NodeContext ctx(net, self);
  NodeBehavior* b = net.behavior(self);
  // Reporters adjacent to both the origin and us, clustered so that one
  // neighborhood (e.g. centered (12,10)) contains origin and all reporters.
  const Coord reporters[] = {{11, 10}, {11, 11}, {12, 9}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.determinations(), 0) << "after " << i << " reporters";
    b->on_receive(ctx, {reporters[i],
                        make_heard({reporters[i]}, origin, 1)});
  }
  EXPECT_EQ(pool.determinations(), 1);  // t+1 = 3 disjoint chains in one nbd
}

TEST(BvTwoHop, BehaviorUnitRejectsMalformedHeard) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  const BvTwoHopPool& pool = two_hop_nodes(net, 0, self);
  NodeContext ctx(net, self);
  NodeBehavior* b = net.behavior(self);
  // Relayer field does not match the transmitter: spoofed, dropped.
  b->on_receive(ctx, {{9, 9}, make_heard({{8, 8}}, {13, 10}, 1)});
  EXPECT_EQ(pool.determinations(), 0);
  // Reporter claims to have heard a node 4 away (impossible with r=2).
  b->on_receive(ctx, {{9, 9}, make_heard({{9, 9}}, {13, 10}, 1)});
  EXPECT_EQ(pool.determinations(), 0);
  // Origin == reporter is nonsense.
  b->on_receive(ctx, {{9, 9}, make_heard({{9, 9}}, {9, 9}, 1)});
  EXPECT_EQ(pool.determinations(), 0);
  // Two-relayer chains are not part of the two-hop protocol.
  b->on_receive(ctx, {{9, 9}, make_heard({{11, 10}, {9, 9}}, {12, 10}, 1)});
  EXPECT_EQ(pool.determinations(), 0);
}

TEST(BvTwoHop, BehaviorUnitSourceNeighborCommitsDirectly) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{1, 1};
  (void)two_hop_nodes(net, 4, self);
  NodeContext ctx(net, self);
  NodeBehavior* b = net.behavior(self);
  b->on_receive(ctx, {{0, 0}, make_committed({0, 0}, 0)});
  EXPECT_EQ(b->committed_value(), std::optional<std::uint8_t>(0));
}

}  // namespace
}  // namespace rbcast
