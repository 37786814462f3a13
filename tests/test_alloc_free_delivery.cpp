// Zero-allocation contract of the optimized round engine (docs/PERF.md):
// once a RadioNetwork is started, the steady-state delivery path — CSR
// fan-out, small-buffer message copies, retransmission repeats, behavior
// dispatch — performs no heap allocation at all. Pinned with the same
// global-operator-new counter technique as the RoundTrace tests
// (tests/test_obs.cpp); the counter lives in this binary, so any allocation
// anywhere in the measured window trips the assertion.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rbcast {
namespace {

TEST(AllocFreeDelivery, MessageCopyDoesNotAllocate) {
  // Layer-2 contract: the relayer chain is inline, so copying a full HEARD
  // (the per-queued/copied/retransmitted-message cost) touches no heap.
  const Message heard = make_heard({{1, 1}, {2, 2}, {3, 3}}, {0, 0}, 1);
  const std::uint64_t before = g_allocations.load();
  Message copy = heard;
  Message moved = std::move(copy);
  Message assigned;
  assigned = moved;
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(assigned, heard);
}

TEST(AllocFreeDelivery, CrashFloodWholeRunIsAllocationFree) {
  // The acceptance criterion verbatim: zero heap allocations per delivered
  // envelope on the steady-state CrashFlood path — asserted in the strongest
  // form, zero allocations across the ENTIRE post-start() run (12x12 torus,
  // ~6.9k envelope deliveries), not just amortized-zero.
  RadioNetwork net(Torus(12, 12), 1, Metric::kLInf, 7);
  for (const Coord c : net.torus().all_coords()) {
    if (c == Coord{0, 0}) {
      net.set_behavior(c, std::make_unique<SourceBehavior>(1));
    } else {
      net.set_behavior(c, std::make_unique<PoolNodeBehavior>(
                              std::make_unique<CrashFloodPool>(1)));
    }
  }
  net.start();
  const std::uint64_t before = g_allocations.load();
  net.run_until_quiescent(1000);
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(net.counters().commits, 12u * 12u);  // source commits at start too
  EXPECT_GT(net.counters().envelopes_delivered, 0u);
}

TEST(AllocFreeDelivery, HeardRetransmissionSteadyStateIsAllocationFree) {
  // The retransmission path copies each Pending (envelope included) into the
  // repeats scratch every round. With a full 3-relayer HEARD payload this
  // used to heap-allocate per copy; both the copy and the scratch buffer are
  // now allocation-free once primed.
  class HeardChatter final : public NodeBehavior {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.broadcast(make_heard({{1, 0}, {2, 0}, {3, 0}}, {0, 0}, 1));
    }
    void on_receive(NodeContext&, const Envelope&) override {}
    void on_round_end(NodeContext& ctx) override {
      ctx.broadcast(make_heard({{1, 0}, {2, 0}, {3, 0}}, {0, 0}, 1));
    }
  };
  class Sink final : public NodeBehavior {
   public:
    void on_receive(NodeContext&, const Envelope&) override {}
  };
  RadioNetwork net(Torus(12, 12), 2, Metric::kLInf, 7);
  net.set_retransmissions(3);
  for (const Coord c : net.torus().all_coords()) {
    if (c == Coord{5, 5}) {
      net.set_behavior(c, std::make_unique<HeardChatter>());
    } else {
      net.set_behavior(c, std::make_unique<Sink>());
    }
  }
  net.start();
  net.run_round();  // prime the repeats scratch to steady-state capacity
  net.run_round();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) net.run_round();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(net.counters().envelopes_delivered, 0u);
}

TEST(AllocFreeDelivery, RepeatedLieIsAllocationFree) {
  // In a flood a liar hears the same chains from many relayers; every
  // receipt after the first only probes its table of sent lies.
  RadioNetwork net(Torus(12, 12), 1, Metric::kLInf, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord liar{5, 5};
  net.set_behavior(liar, std::make_unique<LyingBehavior>(0));
  net.start();
  NodeContext ctx(net, liar);
  NodeBehavior* b = net.behavior(liar);
  const Envelope inputs[] = {
      {{5, 6}, make_committed({5, 6}, 1)},
      {{5, 4}, make_heard({{5, 4}}, {5, 3}, 1)},
      {{6, 4}, make_heard({{5, 4}, {6, 4}}, {5, 3}, 1)},
  };
  for (const Envelope& env : inputs) b->on_receive(ctx, env);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    for (const Envelope& env : inputs) b->on_receive(ctx, env);
  }
  EXPECT_EQ(g_allocations.load(), before);
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.transmissions_of(liar), 4u);  // COMMITTED + three lies
}

// Packed report key, in the encoding of BvIndirectPool: chain length, then
// 8-bit two's-complement components of each origin-relative delta.
std::uint64_t report_key(const std::vector<Offset>& rel) {
  std::uint64_t key = rel.size();
  for (const Offset o : rel) {
    key = (key << 16) |
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(o.dx)) << 8) |
          static_cast<std::uint64_t>(static_cast<std::uint8_t>(o.dy));
  }
  return key;
}

IncrementalDetermination make_determination(int first_cap) {
  return IncrementalDetermination(CenterTable::get(2, Metric::kLInf, 12, 12),
                                  4, first_cap,
                                  det_digest_seed(2, Metric::kLInf, 4));
}

TEST(AllocFreeDelivery, DuplicateReportIsAllocationFree) {
  IncrementalDetermination det = make_determination(2);
  const std::vector<Offset> a{{1, 0}}, b{{1, 0}, {2, 1}}, c{{0, 1}},
      capped{{1, 0}, {2, 0}};
  ASSERT_TRUE(det.add_report(a, report_key(a)));
  ASSERT_TRUE(det.add_report(b, report_key(b)));  // first relayer (1, 0) full
  ASSERT_TRUE(det.add_report(c, report_key(c)));
  const std::uint64_t before = g_allocations.load();
  EXPECT_FALSE(det.add_report(c, report_key(c)));  // seen key
  EXPECT_FALSE(det.add_report(capped, report_key(capped)));  // cap rejects
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(det.report_count(), 3u);
}

TEST(AllocFreeDelivery, AcceptedReportsAllocateOnlyOnGrowth) {
  // Every two-hop chain (f, f + s) at r = 2: a few hundred distinct reports.
  // The evidence containers grow geometrically, so accepting them costs a
  // few dozen allocations in all, not one or more per report.
  const auto offsets = NeighborhoodTable::get(2, Metric::kLInf).offsets();
  std::vector<std::vector<Offset>> chains;
  for (const Offset f : offsets) {
    for (const Offset s : offsets) {
      const Offset second{f.dx + s.dx, f.dy + s.dy};
      if (second != Offset{0, 0}) chains.push_back({f, second});
    }
  }
  IncrementalDetermination det = make_determination(255);
  const std::uint64_t before = g_allocations.load();
  std::uint64_t accepted = 0;
  for (const auto& chain : chains) {
    accepted += det.add_report(chain, report_key(chain)) ? 1 : 0;
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(accepted, chains.size());
  EXPECT_GT(accepted, 500u);
  EXPECT_LT(allocations, 64u) << "accepted " << accepted << " reports";
}

}  // namespace
}  // namespace rbcast
