#include "radiobcast/protocols/determination.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/util/rng.h"

namespace rbcast {
namespace {

TEST(CenterSet, SetTestAndForEachAscending) {
  CenterSet s;
  EXPECT_FALSE(s.any());
  for (const int b : {0, 63, 64, 200, 255}) s.set(b);
  EXPECT_TRUE(s.any());
  std::vector<int> seen;
  s.for_each([&](int b) { seen.push_back(b); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 200, 255}));
  CenterSet mask;
  mask.set(63);
  mask.set(200);
  s &= mask;
  seen.clear();
  s.for_each([&](int b) { seen.push_back(b); });
  EXPECT_EQ(seen, (std::vector<int>{63, 200}));
  s.clear();
  EXPECT_FALSE(s.any());
}

TEST(CenterTable, SupportedExactlyWhenNeighborhoodFits) {
  EXPECT_TRUE(CenterTable::supported(1, Metric::kLInf));
  EXPECT_TRUE(CenterTable::supported(7, Metric::kLInf));   // 224 centers
  EXPECT_FALSE(CenterTable::supported(8, Metric::kLInf));  // 288 centers
  EXPECT_FALSE(CenterTable::supported(0, Metric::kLInf));
  EXPECT_TRUE(CenterTable::supported(8, Metric::kL2));  // L2 nbd is smaller
}

TEST(CenterTable, RequireEnforcesTheTwoHopPoolGeometry) {
  // Both Byzantine protocols share the radius limit; the two-hop pool adds
  // sides > 2r and fewer than 2^21 nodes (21-bit packed node indices).
  EXPECT_EQ(&CenterTable::require(2, Metric::kLInf, 12, 12, true),
            &CenterTable::get(2, Metric::kLInf, 12, 12));
  EXPECT_NO_THROW(CenterTable::require(2, Metric::kLInf, 5, 5, true));
  EXPECT_THROW(CenterTable::require(2, Metric::kLInf, 4, 12, true),
               std::invalid_argument);
  EXPECT_THROW(CenterTable::require(2, Metric::kLInf, 12, 4, true),
               std::invalid_argument);
  EXPECT_NO_THROW(CenterTable::require(2, Metric::kLInf, 4, 4, false));
  EXPECT_NO_THROW(CenterTable::require(2, Metric::kLInf, 2048, 1023, true));
  EXPECT_THROW(CenterTable::require(2, Metric::kLInf, 2048, 1024, true),
               std::invalid_argument);
  EXPECT_NO_THROW(CenterTable::require(2, Metric::kLInf, 2048, 1024, false));
  EXPECT_THROW(CenterTable::require(8, Metric::kLInf, 40, 40, false),
               std::invalid_argument);
  EXPECT_NO_THROW(CenterTable::require(9, Metric::kL2, 40, 40, true));
  EXPECT_THROW(CenterTable::require(10, Metric::kL2, 42, 42, true),
               std::invalid_argument);
}

// Brute-force oracle: center bit k is set for delta d iff the node at
// origin+d lies in nbd(origin + off_k) on the actual torus.
void check_table_against_torus(std::int32_t r, Metric m, std::int32_t width,
                               std::int32_t height) {
  const Torus torus(width, height);
  const CenterTable& table = CenterTable::get(r, m, width, height);
  const NeighborhoodTable& nbd = NeighborhoodTable::get(r, m);
  const auto offs = nbd.offsets();
  ASSERT_EQ(table.num_centers(), static_cast<int>(offs.size()));
  const Coord origin = torus.wrap({0, 0});
  // Every node within three hops of the origin, by canonical delta.
  for (const Coord node : torus.all_coords()) {
    const Offset d = torus.delta(origin, node);
    if (d.dx < -3 * r || d.dx > 3 * r || d.dy < -3 * r || d.dy > 3 * r) {
      continue;  // outside the table's documented domain
    }
    if (node == origin) continue;
    const CenterSet& got = table.containing(d);
    for (std::size_t k = 0; k < offs.size(); ++k) {
      const Coord c = torus.wrap(origin + offs[k]);
      const bool expect = node != c && torus.within(c, node, r, m);
      EXPECT_EQ(got.test(static_cast<int>(k)), expect)
          << "r=" << r << " dims=" << width << "x" << height << " d=("
          << d.dx << "," << d.dy << ") k=" << k;
    }
  }
}

TEST(CenterTable, MatchesTorusContainmentLargeTorus) {
  check_table_against_torus(2, Metric::kLInf, 32, 32);  // fold-free
}

TEST(CenterTable, MatchesTorusContainmentFoldingTorus) {
  // 12 < 8r at r=2: deltas up to 4r wrap, the exact configuration
  // BM_HeardFlood/2 and the golden r=2 campaigns run.
  check_table_against_torus(2, Metric::kLInf, 12, 12);
}

TEST(CenterTable, MatchesTorusContainmentBoundaryFold) {
  check_table_against_torus(2, Metric::kLInf, 16, 16);  // width == 8r exactly
  check_table_against_torus(1, Metric::kLInf, 5, 7);    // odd, tiny
}

TEST(CenterTable, MatchesTorusContainmentL2) {
  check_table_against_torus(2, Metric::kL2, 12, 12);
}

TEST(CenterTable, OffsetIndexRoundTrips) {
  const CenterTable& table = CenterTable::get(2, Metric::kLInf, 32, 32);
  const auto offs = NeighborhoodTable::get(2, Metric::kLInf).offsets();
  for (std::size_t k = 0; k < offs.size(); ++k) {
    EXPECT_EQ(table.offset_index(offs[k]), static_cast<int>(k));
  }
  EXPECT_EQ(table.offset_index({0, 0}), -1);
  EXPECT_EQ(table.offset_index({3, 0}), -1);
  EXPECT_EQ(table.offset_index({-5, 2}), -1);
}

// Random plausible chains fed to IncrementalDetermination must certify
// exactly when the legacy recipe does: for some center, >= t+1 of the
// contained reports admit a node-disjoint packing.
TEST(IncrementalDetermination, AgreesWithDirectRecomputation) {
  const std::int32_t r = 2;
  const Metric m = Metric::kLInf;
  const CenterTable& table = CenterTable::get(r, m, 32, 32);
  const NeighborhoodTable& nbd = NeighborhoodTable::get(r, m);
  const auto offs = nbd.offsets();
  Rng rng(555);

  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t t = 1 + static_cast<std::int64_t>(rng.below(3));
    IncrementalDetermination det(table, t, /*first_cap=*/8,
                                 det_digest_seed(r, m, t));
    PackingMemo& memo = PackingMemo::thread_instance();
    struct Rep {
      std::vector<Offset> rel;
    };
    std::vector<Rep> accepted;
    bool fired = false;
    const int n_reports = 4 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n_reports && !fired; ++i) {
      // Random plausible chain: 1-3 hops of L-inf step <= r, distinct,
      // nonzero, first hop a direct neighbor by construction.
      std::vector<Offset> rel;
      Offset at{0, 0};
      const std::size_t len = 1 + rng.below(3);
      bool ok = true;
      for (std::size_t h = 0; h < len; ++h) {
        at.dx += static_cast<std::int32_t>(rng.below(2 * r + 1)) - r;
        at.dy += static_cast<std::int32_t>(rng.below(2 * r + 1)) - r;
        if (at == Offset{0, 0} ||
            std::find(rel.begin(), rel.end(), at) != rel.end()) {
          ok = false;
          break;
        }
        rel.push_back(at);
      }
      if (!ok) continue;
      // Packed key mirroring pack_report_key in bv_indirect.cpp.
      std::uint64_t key = rel.size();
      for (const Offset o : rel) {
        key = (key << 16) |
              (static_cast<std::uint64_t>(static_cast<std::uint8_t>(o.dx))
               << 8) |
              static_cast<std::uint64_t>(static_cast<std::uint8_t>(o.dy));
      }
      if (det.add_report(std::span<const Offset>(rel.data(), rel.size()),
                         key)) {
        accepted.push_back({rel});
      }
      if ((i & 7) == 7) fired = det.evaluate(memo);
    }
    if (!fired) fired = det.evaluate(memo);

    // Oracle: per candidate center, filter contained reports and pack.
    bool expect = false;
    for (std::size_t k = 0; k < offs.size() && !expect; ++k) {
      const Offset off = offs[k];
      std::vector<Interior> contained;
      for (const Rep& rep : accepted) {
        bool inside = true;
        for (const Offset o : rep.rel) {
          if (o == off || !within_radius(o - off, r, m)) {
            inside = false;
            break;
          }
        }
        if (!inside) continue;
        Interior in;
        for (const Offset o : rep.rel) in.add(pack_delta_id(o));
        contained.push_back(in);
      }
      if (static_cast<std::int64_t>(contained.size()) < t + 1) continue;
      const PackingResult packing = max_disjoint_packing(
          std::span<const Interior>(contained), static_cast<int>(t + 1));
      if (packing.count >= t + 1) expect = true;
    }
    EXPECT_EQ(fired, expect) << "trial " << trial << " t=" << t << " accepted="
                             << accepted.size();
  }
}

TEST(IncrementalDetermination, DedupAndFirstRelayerCap) {
  const std::int32_t r = 2;
  const CenterTable& table = CenterTable::get(r, Metric::kLInf, 32, 32);
  IncrementalDetermination det(table, /*t=*/4, /*first_cap=*/2,
                               det_digest_seed(r, Metric::kLInf, 4));
  const Offset first{1, 0};
  // Distinct chains sharing a first relayer: the cap admits only two.
  int accepted = 0;
  for (std::int32_t dy = -2; dy <= 2; ++dy) {
    const std::array<Offset, 2> rel = {first, Offset{2, dy}};
    if (rel[0] == rel[1]) continue;
    const std::uint64_t key = 0x1000 + static_cast<std::uint64_t>(dy + 2);
    if (det.add_report(std::span<const Offset>(rel.data(), rel.size()), key)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 2);
  // A duplicate key is rejected even under a fresh first relayer's cap.
  const std::array<Offset, 1> rel = {Offset{0, 1}};
  EXPECT_TRUE(det.add_report(std::span<const Offset>(rel.data(), 1), 77));
  EXPECT_FALSE(det.add_report(std::span<const Offset>(rel.data(), 1), 77));
  EXPECT_EQ(det.report_count(), 3u);
}

TEST(PackingMemo, StoresAndRecallsVerdictsPerSignature) {
  PackingMemo& memo = PackingMemo::thread_instance();
  // Signatures chosen not to collide in the direct-mapped table.
  const std::uint64_t d0 = det_mix64(0xABCDEF), d1 = det_mix64(0x123456);
  memo.store(d0, d1, true);
  const bool* hit = memo.lookup(d0, d1);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(*hit);
  // Same slot, different tag: must miss, then overwrite.
  EXPECT_EQ(memo.lookup(d0, d1 ^ 1), nullptr);
  memo.store(d0, d1 ^ 1, false);
  const bool* hit2 = memo.lookup(d0, d1 ^ 1);
  ASSERT_NE(hit2, nullptr);
  EXPECT_FALSE(*hit2);
  EXPECT_EQ(memo.lookup(d0, d1), nullptr);  // evicted
}

}  // namespace
}  // namespace rbcast
