#include "radiobcast/protocols/determination.h"

#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

namespace {

/// Torus-style per-component fold into (-dim/2, dim/2]; dim == 0 disables
/// folding (the torus is too large for any compared difference to wrap).
/// Mirrors Torus::delta exactly.
std::int32_t fold(std::int32_t v, std::int32_t dim) {
  if (dim == 0) return v;
  v %= dim;
  if (2 * v > dim) v -= dim;
  if (2 * v <= -dim) v += dim;
  return v;
}

/// Second, independent mixing stream for the 128-bit digest.
constexpr std::uint64_t det_mix64_alt(std::uint64_t z) {
  return det_mix64(z ^ 0xC3A5C85C97CB3127ULL);
}

}  // namespace

const CenterSet CenterTable::kEmptySet{};

CenterTable::CenterTable(std::int32_t r, Metric m, std::int32_t fold_w,
                         std::int32_t fold_h)
    : r_(r), m_(m) {
  const NeighborhoodTable& nbd = NeighborhoodTable::get(r, m);
  num_centers_ = static_cast<int>(nbd.size());
  assert(num_centers_ <= CenterSet::kBits);

  // Canonical deltas of nodes within three hops of the origin span
  // [-min(3r, dim/2), min(3r, dim/2)] per component.
  bx_ = fold_w == 0 ? 3 * r : std::min(3 * r, fold_w / 2);
  by_ = fold_h == 0 ? 3 * r : std::min(3 * r, fold_h / 2);

  table_.assign(static_cast<std::size_t>(2 * bx_ + 1) *
                    static_cast<std::size_t>(2 * by_ + 1),
                CenterSet{});
  const std::span<const Offset> offs = nbd.offsets();
  for (std::int32_t dx = -bx_; dx <= bx_; ++dx) {
    for (std::int32_t dy = -by_; dy <= by_; ++dy) {
      const Offset d{dx, dy};
      CenterSet& set = table_[delta_index(d)];
      for (std::size_t k = 0; k < offs.size(); ++k) {
        const Offset e{fold(d.dx - offs[k].dx, fold_w),
                       fold(d.dy - offs[k].dy, fold_h)};
        // The node must lie in nbd(center): within radius and not the
        // center itself.
        if (e == Offset{0, 0}) continue;
        if (!within_radius(e, r, m)) continue;
        set.set(static_cast<int>(k));
      }
    }
  }

  offset_index_.assign(static_cast<std::size_t>(2 * r + 1) *
                           static_cast<std::size_t>(2 * r + 1),
                       -1);
  for (std::size_t k = 0; k < offs.size(); ++k) {
    const Offset o = offs[k];
    offset_index_[static_cast<std::size_t>((o.dx + r) * (2 * r + 1) +
                                           (o.dy + r))] =
        static_cast<std::int16_t>(k);
  }
}

const CenterTable& CenterTable::get(std::int32_t r, Metric m,
                                    std::int32_t width, std::int32_t height) {
  // A torus strictly larger than 8r per side never folds any compared
  // difference (|d - off| <= 4r < dim/2), so all such tori share one table.
  const std::int32_t fold_w = width > 8 * r ? 0 : width;
  const std::int32_t fold_h = height > 8 * r ? 0 : height;
  // Per-key once_flag slots, same scheme as Adjacency::get: the mutex covers
  // only the map access, table construction runs in call_once outside it, so
  // concurrent first accesses on different (r, metric, fold) keys no longer
  // serialize (tests/test_cache_concurrency.cpp, scripts/check_tsan.sh).
  struct Slot {
    std::once_flag once;
    std::unique_ptr<CenterTable> value;
  };
  static std::mutex mutex;
  static std::map<std::tuple<std::int32_t, int, std::int32_t, std::int32_t>,
                  Slot>
      cache;
  const auto key = std::make_tuple(r, static_cast<int>(m), fold_w, fold_h);
  Slot* slot;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    slot = &cache[key];
  }
  std::call_once(slot->once, [&] {
    slot->value.reset(new CenterTable(r, m, fold_w, fold_h));
  });
  return *slot->value;
}

bool CenterTable::supported(std::int32_t r, Metric m) {
  if (r < 1) return false;
  // L-inf has the larger neighborhood: (2r+1)^2 - 1 <= 256 iff r <= 7; the
  // L2 count is smaller still, so one exact check covers both.
  return neighborhood_size(r, m) <= CenterSet::kBits;
}

const CenterTable& CenterTable::require(std::int32_t r, Metric m,
                                        std::int32_t width,
                                        std::int32_t height,
                                        bool two_hop_pool) {
  if (!supported(r, m)) {
    std::int32_t limit = 1;
    while (supported(limit + 1, m)) ++limit;
    throw std::invalid_argument(
        "radius r=" + std::to_string(r) + " under " + to_string(m) +
        " is outside the Byzantine protocols' domain 1 <= r <= " +
        std::to_string(limit) + " (|nbd| must fit the " +
        std::to_string(CenterSet::kBits) + "-bit CenterSet)");
  }
  if (two_hop_pool) {
    if (width <= 2 * r || height <= 2 * r) {
      throw std::invalid_argument(
          "bv-2hop needs both torus sides > 2r = " + std::to_string(2 * r) +
          " (got " + std::to_string(width) + "x" + std::to_string(height) +
          ")");
    }
    if (static_cast<std::int64_t>(width) * height >= (1 << 21)) {
      throw std::invalid_argument(
          "bv-2hop needs fewer than 2^21 nodes (got " + std::to_string(width) +
          "x" + std::to_string(height) + ")");
    }
  }
  return get(r, m, width, height);
}

PackingMemo& PackingMemo::thread_instance() {
  thread_local PackingMemo memo;
  return memo;
}

IncrementalDetermination::IncrementalDetermination(const CenterTable& table,
                                                   std::int64_t t,
                                                   int first_cap,
                                                   std::uint64_t digest_seed)
    : table_(table),
      target_(t + 1),
      first_cap_(first_cap),
      seed_(digest_seed),
      per_first_(static_cast<std::size_t>(table.num_centers()), 0),
      centers_(static_cast<std::size_t>(table.num_centers())),
      first_bits_((static_cast<std::size_t>(table.num_centers()) *
                       static_cast<std::size_t>(table.num_centers()) +
                   63) /
                  64) {}

void IncrementalDetermination::contained_push(CenterState& cs,
                                              std::uint32_t idx) {
  if (cs.len == cs.cap) {
    const std::uint32_t new_cap = cs.cap == 0 ? 4 : cs.cap * 2;
    const auto new_off = static_cast<std::uint32_t>(contained_arena_.size());
    contained_arena_.resize(contained_arena_.size() + new_cap);
    for (std::uint32_t i = 0; i < cs.len; ++i) {
      contained_arena_[new_off + i] = contained_arena_[cs.off + i];
    }
    cs.off = new_off;
    cs.cap = new_cap;
  }
  contained_arena_[cs.off + cs.len] = idx;
  ++cs.len;
}

bool IncrementalDetermination::add_report(std::span<const Offset> rel,
                                          std::uint64_t key) {
  const int first = table_.offset_index(rel[0]);
  assert(first >= 0);  // the first relayer is a direct neighbor of the origin
  assert(key != FlatKeyTraits<std::uint64_t>::kEmpty);
  // Cap before dedup: the dedup set only learns chains considered while the
  // first-relayer cap still had room.
  std::uint8_t& per_first = per_first_[static_cast<std::size_t>(first)];
  if (per_first >= first_cap_) return false;
  if (!dedup_.insert(key)) return false;
  ++per_first;

  // The report's admissible centers: the AND of its relayers' center sets.
  CenterSet centers = table_.containing(rel[0]);
  Interior interior;
  interior.add(pack_delta_id(rel[0]));
  for (std::size_t i = 1; i < rel.size(); ++i) {
    centers &= table_.containing(rel[i]);
    interior.add(pack_delta_id(rel[i]));
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(interiors_.size());
  interiors_.push_back(interior);

  const std::uint64_t m0 = det_mix64(key);
  const std::uint64_t m1 = det_mix64_alt(key);
  const std::size_t num_centers = static_cast<std::size_t>(table_.num_centers());
  centers.for_each([&](int k) {
    CenterState& cs = centers_[static_cast<std::size_t>(k)];
    contained_push(cs, idx);
    cs.acc0 += m0;
    cs.acc1 += m1;
    const std::size_t bit =
        static_cast<std::size_t>(k) * num_centers + static_cast<std::size_t>(first);
    std::uint64_t& word = first_bits_[bit >> 6];
    const std::uint64_t mask = 1ULL << (bit & 63);
    if ((word & mask) == 0) {
      word |= mask;
      ++cs.distinct_first;
    }
    dirty_.set(k);
  });
  return true;
}

bool IncrementalDetermination::evaluate(PackingMemo& memo) {
  bool certified = false;
  dirty_.for_each([&](int k) {
    if (certified) return;
    CenterState& cs = centers_[static_cast<std::size_t>(k)];
    const std::int64_t contained = static_cast<std::int64_t>(cs.len);
    // Cheap bounds first: not enough reports, or not enough distinct first
    // relayers (disjoint reports need distinct first hops), or nothing new
    // since the last exact check of this center.
    if (contained < target_) return;
    if (static_cast<std::int64_t>(cs.distinct_first) < target_) return;
    if (cs.len == cs.evaluated) return;
    cs.evaluated = cs.len;

    const std::uint64_t d0 =
        det_mix64(seed_ ^ cs.acc0 ^ (static_cast<std::uint64_t>(contained)
                                     << 32));
    const std::uint64_t d1 =
        det_mix64_alt(seed_ + cs.acc1 + static_cast<std::uint64_t>(contained));
    if (const bool* cached = memo.lookup(d0, d1)) {
      memo.note_hit();
      certified = *cached;
      return;
    }
    memo.note_miss();
    scratch_.clear();
    for (std::uint32_t i = 0; i < cs.len; ++i) {
      scratch_.push_back(interiors_[contained_arena_[cs.off + i]]);
    }
    const PackingResult packing = max_disjoint_packing(
        std::span<const Interior>(scratch_), static_cast<int>(target_));
    const bool verdict = packing.count >= target_;
    memo.store(d0, d1, verdict);
    certified = verdict;
  });
  dirty_.clear();
  return certified;
}

}  // namespace rbcast
