// Concurrent first-access hammer for the process-wide geometry caches
// (Adjacency::get, CenterTable::get) and the earmark relay-plan cache
// (EarmarkPlan::get), which campaign workers also build concurrently when
// running bv-4hop-earmarked cells. Before the per-key once_flag fix the
// whole construction ran under one global mutex — correct but fully
// serialized; the fix lets distinct keys construct concurrently while racers
// on the SAME key still get exactly one instance at a stable address. This
// binary runs under TSan in scripts/check_tsan.sh, which is what actually
// proves the data-race freedom; the assertions here pin the semantics.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/grid/adjacency.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/protocols/earmark.h"

namespace rbcast {
namespace {

constexpr int kThreads = 8;

TEST(CacheConcurrency, AdjacencySameKeyYieldsOneInstance) {
  // All threads race the first access of one fresh key (an odd geometry no
  // other test in this binary uses): every racer must see the same address.
  const Torus torus(23, 17);
  const NeighborhoodTable& table = NeighborhoodTable::get(2, Metric::kLInf);
  std::vector<const Adjacency*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { seen[static_cast<std::size_t>(i)] = &Adjacency::get(torus,
                                                                     table); });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(i)]);
  }
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(static_cast<std::size_t>(seen[0]->degree()), table.size());
}

TEST(CacheConcurrency, AdjacencyDistinctKeysConstructConcurrently) {
  // Each thread owns a distinct fresh key; afterwards every key must resolve
  // to the address its thread created (map-node stability) and re-resolution
  // must be a pure cache hit.
  const NeighborhoodTable& table = NeighborhoodTable::get(1, Metric::kLInf);
  std::vector<const Adjacency*> built(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const Torus torus(29 + 2 * i, 19);
      built[static_cast<std::size_t>(i)] = &Adjacency::get(torus, table);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const Torus torus(29 + 2 * i, 19);
    EXPECT_EQ(built[static_cast<std::size_t>(i)],
              &Adjacency::get(torus, table));
  }
}

TEST(CacheConcurrency, CenterTableSameKeyYieldsOneInstance) {
  std::vector<const CenterTable*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      seen[static_cast<std::size_t>(i)] =
          &CenterTable::get(3, Metric::kLInf, 15, 15);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(i)]);
  }
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0]->radius(), 3);
}

TEST(CacheConcurrency, CenterTableDistinctKeysConstructConcurrently) {
  std::vector<const CenterTable*> built(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Distinct folds: small tori fold per exact size, so each side is a
      // fresh key. r = 2 keeps construction cheap but non-trivial.
      built[static_cast<std::size_t>(i)] =
          &CenterTable::get(2, Metric::kLInf, 11 + i, 11 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(built[static_cast<std::size_t>(i)],
              &CenterTable::get(2, Metric::kLInf, 11 + i, 11 + i));
  }
}

TEST(CacheConcurrency, EarmarkPlanSameRadiusYieldsOnePlan) {
  // Every racer asks for the same fresh radius (no other test in this binary
  // builds r = 3 first) and must get the one plan at one address.
  std::vector<const EarmarkPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { seen[static_cast<std::size_t>(i)] = &EarmarkPlan::get(3); });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(seen[0]->prefix_count(), 0u);
}

TEST(CacheConcurrency, EarmarkPlanDistinctRadiiResolveStably) {
  // Threads build radii 1, 2, 4 and 5 at once, two racers per radius; every
  // thread's plan must be the one later lookups return, and plans of
  // different radii must be different objects that answer queries.
  const auto radius_of = [](int i) {
    constexpr std::int32_t kRadii[] = {1, 2, 4, 5};
    return kRadii[i % 4];
  };
  std::vector<const EarmarkPlan*> built(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const EarmarkPlan& plan = EarmarkPlan::get(radius_of(i));
      // Read the plan while other threads may still be inserting theirs.
      EXPECT_GT(plan.prefix_count(), 0u);
      built[static_cast<std::size_t>(i)] = &plan;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(built[static_cast<std::size_t>(i)],
              &EarmarkPlan::get(radius_of(i)));
    for (int j = 0; j < kThreads; ++j) {
      EXPECT_EQ(radius_of(i) == radius_of(j),
                built[static_cast<std::size_t>(i)] ==
                    built[static_cast<std::size_t>(j)]);
    }
  }
}

TEST(CacheConcurrency, MixedHammer) {
  // Everything at once: same-key racers and distinct-key builders on both
  // caches simultaneously — the pattern an 8-worker campaign's first round
  // of trials actually produces.
  std::vector<std::thread> threads;
  threads.reserve(kThreads * 2);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      const Torus torus(31, 37 + (i % 2));
      const NeighborhoodTable& table = NeighborhoodTable::get(2,
                                                              Metric::kL2);
      (void)Adjacency::get(torus, table);
    });
    threads.emplace_back([i] {
      (void)CenterTable::get(1 + (i % 3), Metric::kL2, 200, 200);
    });
  }
  for (std::thread& t : threads) t.join();
  SUCCEED();
}

}  // namespace
}  // namespace rbcast
