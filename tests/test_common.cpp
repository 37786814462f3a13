#include "radiobcast/protocols/common.h"

#include <gtest/gtest.h>

#include <map>

#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

TEST(OriginValueKey, DistinguishesOriginsAndValues) {
  EXPECT_NE(origin_value_key({1, 2}, 0), origin_value_key({1, 2}, 1));
  EXPECT_NE(origin_value_key({1, 2}, 0), origin_value_key({2, 1}, 0));
  EXPECT_EQ(origin_value_key({3, 4}, 1), origin_value_key({3, 4}, 1));
}

// NeighborhoodCommitRule, driven through slot 0 unless a test says otherwise.

TEST(CommitCounter, FiresAtExactlyTPlusOneInOneNeighborhood) {
  const Torus torus(20, 20);
  const std::int64_t t = 2;
  NeighborhoodCommitRule rule(torus, 2, Metric::kLInf, t);
  // Three committers clustered so one center (e.g. (10,10)) covers them all.
  EXPECT_FALSE(rule.record(0, {9, 9}, 1));
  EXPECT_FALSE(rule.record(0, {11, 11}, 1));
  EXPECT_TRUE(rule.record(0, {9, 11}, 1));
}

TEST(CommitCounter, SpreadOutCommittersDoNotFire) {
  const Torus torus(40, 40);
  NeighborhoodCommitRule rule(torus, 2, Metric::kLInf, 2);
  // Pairwise distances > 2r: no single neighborhood holds even two of them.
  EXPECT_FALSE(rule.record(0, {5, 5}, 1));
  EXPECT_FALSE(rule.record(0, {15, 15}, 1));
  EXPECT_FALSE(rule.record(0, {25, 25}, 1));
  EXPECT_FALSE(rule.record(0, {35, 5}, 1));
}

TEST(CommitCounter, ValuesCountedSeparately) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 2, Metric::kLInf, 1);
  EXPECT_FALSE(rule.record(0, {9, 9}, 1));
  // A nearby '0' determination does not combine with the '1' above, and a
  // far-away '0' shares no neighborhood with it.
  EXPECT_FALSE(rule.record(0, {10, 9}, 0));
  EXPECT_FALSE(rule.record(0, {2, 2}, 0));
  // Second '1' committer in the same neighborhood fires for value 1.
  EXPECT_TRUE(rule.record(0, {10, 10}, 1));
}

TEST(CommitCounter, SlotsCountedSeparately) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 2, Metric::kLInf, 1);
  // Two nodes' determinations never combine toward one node's commit.
  EXPECT_FALSE(rule.record(0, {9, 9}, 1));
  EXPECT_FALSE(rule.record(1, {10, 10}, 1));
  EXPECT_TRUE(rule.is_determined(1, torus.index({10, 10}), 1));
  EXPECT_FALSE(rule.is_determined(0, torus.index({10, 10}), 1));
  EXPECT_TRUE(rule.record(0, {10, 10}, 1));
  EXPECT_EQ(rule.determinations(), 3);
}

TEST(CommitCounter, RecordIsIdempotent) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 1, Metric::kLInf, 1);
  EXPECT_FALSE(rule.record(0, {5, 5}, 1));
  // Recording the same determination again adds nothing.
  EXPECT_FALSE(rule.record(0, {5, 5}, 1));
  EXPECT_FALSE(rule.record(0, {5, 5}, 1));
  EXPECT_EQ(rule.determinations(), 1);
  EXPECT_TRUE(rule.record(0, {5, 6}, 1));
}

TEST(CommitCounter, IsDeterminedTracksPairs) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 1, Metric::kLInf, 3);
  EXPECT_FALSE(rule.is_determined(0, torus.index({4, 4}), 1));
  rule.record(0, {4, 4}, 1);
  EXPECT_TRUE(rule.is_determined(0, torus.index({4, 4}), 1));
  EXPECT_FALSE(rule.is_determined(0, torus.index({4, 4}), 0));
  // Canonicalization: the same node addressed through a wrap, on lookup and
  // on record.
  EXPECT_TRUE(rule.is_determined(0, torus.index({24, 24}), 1));
  EXPECT_FALSE(rule.record(0, {24, 24}, 1));
  EXPECT_EQ(rule.determinations(), 1);
}

TEST(CommitCounter, TZeroFiresOnFirstDetermination) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 2, Metric::kLInf, 0);
  EXPECT_TRUE(rule.record(0, {5, 5}, 0));
}

TEST(CommitCounter, WrapsAcrossSeam) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 1, Metric::kLInf, 1);
  EXPECT_FALSE(rule.record(0, {0, 0}, 1));
  // (19,19) is diagonal-adjacent to (0,0) across the seam; both lie in
  // nbd((0,19)) (and nbd((19,0))).
  EXPECT_TRUE(rule.record(0, {19, 19}, 1));
}

TEST(CommitCounter, L2MetricGeometry) {
  const Torus torus(20, 20);
  NeighborhoodCommitRule rule(torus, 1, Metric::kL2, 1);
  EXPECT_FALSE(rule.record(0, {10, 10}, 1));
  // (10,10) and (11,11) are not L2-neighbors at r=1, but the centers (10,11)
  // and (11,10) are within distance 1 of both, so a shared neighborhood
  // exists and the rule fires.
  EXPECT_TRUE(rule.record(0, {11, 11}, 1));
  // But two nodes 3 apart never share one.
  NeighborhoodCommitRule far_rule(torus, 1, Metric::kL2, 1);
  EXPECT_FALSE(far_rule.record(0, {5, 5}, 1));
  EXPECT_FALSE(far_rule.record(0, {8, 5}, 1));
}

TEST(PackedU32Map, EraseKeepsProbeRunsIntact) {
  // Interleaved inserts and erases over a small key range (long probe runs,
  // wrap-around, growth) must agree with std::map at every step.
  PackedU32Map table;
  std::map<std::uint64_t, std::uint32_t> model;
  std::uint64_t state = 1;
  for (std::uint32_t step = 0; step < 20000; ++step) {
    state = det_mix64(state);
    const std::uint64_t key = state % 300;
    if ((state >> 32) % 3 == 0) {
      table.erase(key);
      model.erase(key);
    } else {
      table.slot(key) = step;
      model[key] = step;
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (std::uint64_t key = 0; key < 300; ++key) {
    const std::uint32_t* found = table.find(key);
    const auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second) << key;
    }
  }
}

}  // namespace
}  // namespace rbcast
