#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

/// Fills an r=2 network with one-slot flood pools behind the behavior
/// adapter and returns the adapter driving `self`.
PoolNodeBehavior* flood_nodes(RadioNetwork& net, std::int64_t t, Coord self) {
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<PoolNodeBehavior>(
                            std::make_unique<BvIndirectPool>(
                                ProtocolParams{t, {0, 0}}, net.torus(), 2,
                                Metric::kLInf, RelayMode::kFlood, 1)));
  }
  return dynamic_cast<PoolNodeBehavior*>(net.behavior(self));
}

std::int64_t determinations(const PoolNodeBehavior& node) {
  return dynamic_cast<const BvIndirectPool&>(node.pool()).determinations();
}

SimConfig base_config(std::int32_t r, ProtocolKind kind) {
  SimConfig cfg;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.r = r;
  cfg.metric = Metric::kLInf;
  cfg.protocol = kind;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 33;
  return cfg;
}

TEST(BvIndirect, FloodFaultFreeFullCoverage) {
  SimConfig cfg = base_config(1, ProtocolKind::kBvIndirectFlood);
  cfg.t = byz_linf_achievable_max(1);
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
}

TEST(BvIndirect, EarmarkedFaultFreeFullCoverage) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r, ProtocolKind::kBvIndirectEarmarked);
    cfg.t = byz_linf_achievable_max(r);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvIndirect, EarmarkedUsesFarFewerMessagesThanFlood) {
  SimConfig flood = base_config(1, ProtocolKind::kBvIndirectFlood);
  SimConfig earmarked = base_config(1, ProtocolKind::kBvIndirectEarmarked);
  flood.t = earmarked.t = byz_linf_achievable_max(1);
  const auto rf = run_simulation(flood, FaultSet{});
  const auto re = run_simulation(earmarked, FaultSet{});
  EXPECT_TRUE(rf.success());
  EXPECT_TRUE(re.success());
  EXPECT_LT(re.transmissions, rf.transmissions);
}

TEST(BvIndirect, FloodAndEarmarkedAgreeOnOutcomes) {
  // Same faults, same seed: both relay modes must commit the same nodes.
  SimConfig flood = base_config(1, ProtocolKind::kBvIndirectFlood);
  SimConfig earmarked = base_config(1, ProtocolKind::kBvIndirectEarmarked);
  flood.t = earmarked.t = byz_linf_achievable_max(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  Torus torus(flood.width, flood.height);
  Rng rng(77);
  const FaultSet faults = make_faults(placement, torus, flood.r, flood.metric,
                                      flood.t, flood.source, rng);
  const auto rf = run_simulation(flood, faults);
  const auto re = run_simulation(earmarked, faults);
  EXPECT_EQ(rf.correct_commits, re.correct_commits);
  EXPECT_EQ(rf.wrong_commits, re.wrong_commits);
  EXPECT_EQ(rf.undecided, re.undecided);
}

TEST(BvIndirect, SurvivesTrimmedCheckerboardAtThreshold) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    const ProtocolKind kind = r == 1 ? ProtocolKind::kBvIndirectFlood
                                     : ProtocolKind::kBvIndirectEarmarked;
    SimConfig cfg = base_config(r, kind);
    cfg.t = byz_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = true;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvIndirect, StalledAtImpossibilityBudget) {
  SimConfig cfg = base_config(1, ProtocolKind::kBvIndirectFlood);
  cfg.t = byz_linf_impossible_min(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kCheckerboardStrip;
  placement.trim = false;
  Torus torus(cfg.width, cfg.height);
  Rng rng(1);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  ASSERT_EQ(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
  const auto result = run_simulation(cfg, faults);
  EXPECT_FALSE(result.success());
  EXPECT_GT(result.undecided, 0);
  EXPECT_EQ(result.wrong_commits, 0);
}

TEST(BvIndirect, LyingAdversaryNeverCausesWrongCommit) {
  for (const ProtocolKind kind :
       {ProtocolKind::kBvIndirectFlood, ProtocolKind::kBvIndirectEarmarked}) {
    SimConfig cfg = base_config(1, kind);
    cfg.t = byz_linf_achievable_max(1);
    cfg.adversary = AdversaryKind::kLying;
    PlacementConfig placement;
    placement.kind = PlacementKind::kRandomBounded;
    for (int rep = 0; rep < 3; ++rep) {
      Torus torus(cfg.width, cfg.height);
      Rng rng(90 + static_cast<std::uint64_t>(rep));
      const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                          cfg.t, cfg.source, rng);
      const auto result = run_simulation(cfg, faults);
      EXPECT_EQ(result.wrong_commits, 0)
          << to_string(kind) << " rep=" << rep;
      EXPECT_TRUE(result.success()) << to_string(kind) << " rep=" << rep;
    }
  }
}

TEST(BvIndirect, EarmarkedRequiresLinf) {
  SimConfig cfg = base_config(2, ProtocolKind::kBvIndirectEarmarked);
  cfg.metric = Metric::kL2;
  EXPECT_THROW(run_simulation(cfg, FaultSet{}), std::invalid_argument);
}

TEST(BvIndirect, BehaviorUnitRejectsImplausibleChains) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  NodeContext ctx(net, self);
  PoolNodeBehavior* b = flood_nodes(net, 1, self);

  // Chain with a hop longer than r: dropped.
  b->on_receive(ctx, {{9, 9}, make_heard({{4, 4}, {9, 9}}, {0, 0}, 1)});
  // Chain with a repeated node: dropped.
  b->on_receive(ctx, {{9, 9}, make_heard({{9, 9}, {8, 8}, {9, 9}}, {7, 7}, 1)});
  // Outermost relayer != transmitter: dropped.
  b->on_receive(ctx, {{9, 9}, make_heard({{8, 8}}, {7, 7}, 1)});
  // More than 3 relayers: dropped.
  b->on_receive(ctx,
                {{9, 9},
                 make_heard({{6, 6}, {7, 7}, {8, 8}, {9, 9}}, {5, 5}, 1)});
  b->on_round_end(ctx);
  EXPECT_EQ(determinations(*b), 0);
}

TEST(BvIndirect, BehaviorUnitDeterminationViaDisjointChains) {
  const Torus torus(20, 20);
  const std::int64_t t = 1;
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  const Coord origin{14, 10};  // 4 away: needs 2-intermediate chains
  NodeContext ctx(net, self);
  PoolNodeBehavior* b = flood_nodes(net, t, self);
  // Two node-disjoint chains origin -> a -> b -> self, all inside
  // nbd((12,10)).
  b->on_receive(ctx,
                {{11, 10}, make_heard({{13, 10}, {11, 10}}, origin, 1)});
  b->on_round_end(ctx);
  EXPECT_EQ(determinations(*b), 0);  // one chain < t+1 = 2
  b->on_receive(ctx,
                {{11, 11}, make_heard({{13, 11}, {11, 11}}, origin, 1)});
  b->on_round_end(ctx);
  EXPECT_EQ(determinations(*b), 1);
}

TEST(BvIndirect, BehaviorUnitConflictingChainsDoNotCount) {
  const Torus torus(20, 20);
  const std::int64_t t = 1;
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  const Coord self{10, 10};
  const Coord origin{14, 10};
  NodeContext ctx(net, self);
  PoolNodeBehavior* b = flood_nodes(net, t, self);
  // Two chains sharing the intermediate (13,10): conflict, still < t+1.
  b->on_receive(ctx,
                {{11, 10}, make_heard({{13, 10}, {11, 10}}, origin, 1)});
  b->on_receive(ctx,
                {{11, 11}, make_heard({{13, 10}, {11, 11}}, origin, 1)});
  b->on_round_end(ctx);
  EXPECT_EQ(determinations(*b), 0);
}

TEST(BvIndirect, RadiusGuardRejectsKeyCollidingRadii) {
  // The CenterTable engine is the only evidence path, so the constructor
  // admits exactly the radii whose |nbd| fits the 256-bit CenterSet:
  // r <= 7 under L-inf (224 centers) and r <= 9 under L2 (252). That is
  // well inside the r <= 42 on which pack_report_key is injective.
  const ProtocolParams params{1, {0, 0}};
  const auto make = [&](std::int32_t r, Metric m) {
    const Torus torus(4 * r + 2, 4 * r + 2);
    return BvIndirectPool(params, torus, r, m, RelayMode::kFlood, 1);
  };
  EXPECT_NO_THROW(make(7, Metric::kLInf));
  EXPECT_THROW(make(8, Metric::kLInf), std::invalid_argument);
  EXPECT_NO_THROW(make(9, Metric::kL2));
  EXPECT_THROW(make(10, Metric::kL2), std::invalid_argument);
  EXPECT_THROW(make(0, Metric::kLInf), std::invalid_argument);
  EXPECT_THROW(make(42, Metric::kLInf), std::invalid_argument);
  try {
    make(8, Metric::kLInf);
    ADD_FAILURE() << "r=8 under Linf was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("r=8"), std::string::npos) << what;
    EXPECT_NE(what.find("Linf"), std::string::npos) << what;
    EXPECT_NE(what.find("r <= 7"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rbcast
