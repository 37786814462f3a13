#include "radiobcast/protocols/pool.h"

#include <algorithm>
#include <array>
#include <span>

#include "radiobcast/protocols/earmark.h"

namespace rbcast {

// ---------------------------------------------------------------------------
// CommitPool

void CommitPool::commit(NodeContext& ctx, std::int32_t node,
                        std::uint8_t value) {
  if (committed(node)) return;
  committed_.set(node);
  value_[static_cast<std::size_t>(node)] = value;
  round_[static_cast<std::size_t>(node)] =
      static_cast<std::int32_t>(ctx.round());
  ctx.note_commit(value);
  ctx.broadcast(make_committed(ctx.self(), value));
}

// ---------------------------------------------------------------------------
// CrashFloodPool

void CrashFloodPool::on_receive(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  if (committed(node)) return;  // terminated
  if (env.msg.type != MsgType::kCommitted) return;
  commit(ctx, node, env.msg.value);
}

// ---------------------------------------------------------------------------
// CpaPool

void CpaPool::on_receive(NodeContext& ctx, std::int32_t node,
                         const Envelope& env) {
  if (committed(node)) return;  // terminated
  if (env.msg.type != MsgType::kCommitted) return;
  // A COMMITTED's origin must be its transmitter; anything else is a faulty
  // fabrication and is discarded (no spoofing, Section II).
  if (ctx.torus().wrap(env.msg.origin) != env.sender) return;

  if (env.sender == source_) {
    commit(ctx, node, env.msg.value);  // direct neighbors trust the source
    return;
  }
  // First claim per neighbor only.
  if (!first_claim_.insert(nov_key(node, ctx.torus().index(env.sender)))) {
    return;
  }
  std::int32_t& tally =
      claims_[static_cast<std::size_t>(node) * 2 + (env.msg.value & 1)];
  tally += 1;
  if (tally >= t_ + 1) commit(ctx, node, env.msg.value);
}

// ---------------------------------------------------------------------------
// BvTwoHopPool

BvTwoHopPool::BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
                           std::int32_t r, Metric m, std::int64_t slots)
    : CommitPool(slots),
      t_(params.t),
      track_after_commit_(params.track_after_commit),
      source_(torus.wrap(params.source)),
      r_(r),
      m_(m),
      center_table_(CenterTable::require(r, m, torus.width(), torus.height(),
                                         /*two_hop_pool=*/true)),
      rule_(torus, r, m, params.t) {}

void BvTwoHopPool::determine(NodeContext& ctx, std::int32_t node, Coord origin,
                             const std::uint8_t value) {
  if (rule_.record(node, origin, value)) commit(ctx, node, value);
}

void BvTwoHopPool::on_receive(NodeContext& ctx, std::int32_t node,
                              const Envelope& env) {
  switch (env.msg.type) {
    case MsgType::kCommitted:
      handle_committed(ctx, node, env);
      break;
    case MsgType::kHeard:
      handle_heard(ctx, node, env);
      break;
  }
}

void BvTwoHopPool::handle_committed(NodeContext& ctx, std::int32_t node,
                                    const Envelope& env) {
  const Torus& torus = ctx.torus();
  // A COMMITTED's origin must be the transmitter itself.
  if (torus.wrap(env.msg.origin) != env.sender) return;
  // No-duplicity: first COMMITTED per sender only.
  if (!first_committed_.insert(nov_key(node, torus.index(env.sender)))) return;
  const std::uint8_t v = env.msg.value;

  // Relay duty: immediate neighbors of a committer report the commit once.
  ctx.broadcast(make_heard({ctx.self()}, env.sender, v));

  // Direct reliable determination; neighbors of the source commit instantly.
  if (env.sender == source_) commit(ctx, node, v);
  // Post-commit, further determinations are dead state (unless tracked).
  if (!committed(node) || track_after_commit_) {
    determine(ctx, node, env.sender, v);
  }
}

void BvTwoHopPool::handle_heard(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  if (committed(node) && !track_after_commit_) return;
  const Torus& torus = ctx.torus();
  const Message& msg = env.msg;
  // Two-hop protocol: exactly one relayer, and it must be the transmitter.
  if (msg.relayers.size() != 1) return;
  const Coord reporter = env.sender;
  if (torus.wrap(msg.relayers[0]) != reporter) return;
  const Coord origin = torus.wrap(msg.origin);
  // The reporter must plausibly have heard the committer directly.
  if (origin == reporter || !torus.within(origin, reporter, r_, m_)) return;
  if (origin == ctx.self()) return;  // reports about myself carry no news
  const std::int32_t reporter_idx = torus.index(reporter);
  const std::int32_t origin_idx = torus.index(origin);
  // First HEARD per (reporter, origin) only.
  const std::uint64_t consumed_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 42) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(reporter_idx))
       << 21) |
      static_cast<std::uint32_t>(origin_idx);
  if (!heard_consumed_.insert(consumed_key)) return;
  const std::uint8_t v = msg.value & 1;
  if (rule_.is_determined(node, origin_idx, v)) return;

  // Count this reporter toward every candidate center c whose neighborhood
  // contains both the committer and the reporter (c itself excluded from
  // nbd(c)): t+1 distinct reporters under one center are t+1 node-disjoint
  // evidence chains confined to that neighborhood. The CenterTable bitset
  // (fold baked in) names those centers; the counts block is arena-allocated.
  std::uint32_t& block = reporter_blocks_.slot(nov_key(node, origin_idx, v));
  if (block == 0) {
    block = static_cast<std::uint32_t>(++arena_blocks_);
    reporter_arena_.resize(arena_blocks_ * static_cast<std::size_t>(
                                               center_table_.num_centers()),
                           0);
  }
  std::int32_t* counts =
      reporter_arena_.data() +
      (static_cast<std::size_t>(block) - 1) *
          static_cast<std::size_t>(center_table_.num_centers());
  const Offset d = torus.delta(origin, reporter);
  const std::int64_t threshold = t_ + 1;
  bool determined = false;
  center_table_.containing(d).for_each([&](int k) {
    std::int32_t& count = counts[k];
    count += 1;
    if (count >= threshold) determined = true;
  });
  if (determined) determine(ctx, node, origin, v);
}

std::uint64_t BvTwoHopPool::state_bytes() const {
  return commit_bytes() + rule_.bytes() + first_committed_.bytes() +
         heard_consumed_.bytes() + reporter_blocks_.bytes() +
         reporter_arena_.size() * sizeof(std::int32_t);
}

// ---------------------------------------------------------------------------
// BvIndirectPool

namespace {

constexpr std::size_t kMaxRelayers = 3;  // "up to three intermediate nodes"

/// Packed dedup key of a report: chain length plus 8-bit two's-complement
/// components of each origin-relative delta. Plausible chains keep every
/// component within 3r (each hop moves at most r), so the encoding is
/// injective for r <= 42 — far beyond the r <= 9 CenterTable::require admits.
std::uint64_t pack_report_key(
    const std::array<Offset, RelayerChain::kCapacity>& rel, std::size_t n) {
  std::uint64_t key = n;
  for (std::size_t i = 0; i < n; ++i) {
    key = (key << 16) |
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(rel[i].dx))
           << 8) |
          static_cast<std::uint64_t>(static_cast<std::uint8_t>(rel[i].dy));
  }
  return key;
}

/// Receiver-independent validation of one HEARD transmission, cached
/// per-thread across the ~|nbd| consecutive deliveries of the same
/// broadcast. The chain's plausibility (no spoofing, hops within radius,
/// nodes distinct), its wrapped coords, origin-relative deltas, packed
/// dedup key, and admissible-center set depend only on (torus, r, metric,
/// sender, message) — not on the receiver — so the CSR fan-out pays for
/// them once instead of |nbd| times. Receiver-specific checks (origin ==
/// self, self on the chain) stay in handle_heard. All cached fields are
/// pure functions of the key, so reuse cannot change any output.
struct HeardValidation {
  // Key (raw, unwrapped fields — wrapping is deterministic).
  std::int32_t width = -1, height = -1, r = -1;
  Metric m{};
  Coord sender{};
  Coord raw_origin{};
  RelayerChain raw_relayers;
  // Cached results (valid iff the key matches).
  bool plausible = false;
  Coord origin{};
  RelayerChain chain;                                // wrapped
  std::array<Offset, RelayerChain::kCapacity> rel{};  // origin-relative
  std::uint64_t report_key = 0;
  CenterSet chain_centers;  // AND of containing(rel[i]) over the chain

  bool matches(const Torus& torus, std::int32_t r_in, Metric m_in,
               Coord sender_in, const Message& msg) const {
    return width == torus.width() && height == torus.height() && r == r_in &&
           m == m_in && sender == sender_in && raw_origin == msg.origin &&
           raw_relayers == msg.relayers;
  }

  void fill(const Torus& torus, std::int32_t r_in, Metric m_in,
            const CenterTable& table, Coord sender_in, const Message& msg) {
    width = torus.width();
    height = torus.height();
    r = r_in;
    m = m_in;
    sender = sender_in;
    raw_origin = msg.origin;
    raw_relayers = msg.relayers;
    plausible = false;
    // The outermost relayer must be the actual transmitter (no spoofing).
    if (torus.wrap(msg.relayers.back()) != sender_in) return;
    origin = torus.wrap(msg.origin);
    chain = RelayerChain{};
    Coord prev = origin;
    for (const Coord raw : msg.relayers) {
      const Coord c = torus.wrap(raw);
      if (c == origin) return;
      if (std::find(chain.begin(), chain.end(), c) != chain.end()) return;
      if (!torus.within(prev, c, r_in, m_in)) return;
      rel[chain.size()] = torus.delta(origin, c);
      chain.push_back(c);
      prev = c;
    }
    report_key = pack_report_key(rel, chain.size());
    CenterSet centers = table.containing(rel[0]);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      centers &= table.containing(rel[i]);
    }
    chain_centers = centers;
    plausible = true;
  }
};

thread_local HeardValidation g_heard_validation;

}  // namespace

BvIndirectPool::BvIndirectPool(const ProtocolParams& params,
                               const Torus& torus, std::int32_t r, Metric m,
                               RelayMode mode, std::int64_t slots)
    : CommitPool(slots),
      t_(params.t),
      track_after_commit_(params.track_after_commit),
      source_(torus.wrap(params.source)),
      r_(r),
      m_(m),
      mode_(mode),
      center_table_(CenterTable::require(r, m, torus.width(), torus.height(),
                                         /*two_hop_pool=*/false)),
      earmarks_(mode == RelayMode::kEarmarked ? &EarmarkPlan::get(r)
                                              : nullptr),
      digest_seed_(det_digest_seed(r, m, params.t)),
      rule_(torus, r, m, params.t),
      slot_records_(static_cast<std::size_t>(slots), 0) {}

std::uint32_t BvIndirectPool::open(std::int32_t node, Coord origin,
                                   std::uint8_t value, std::uint64_t key) {
  std::uint32_t idx;
  if (free_records_.empty()) {
    idx = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    idx = free_records_.back();
    free_records_.pop_back();
  }
  PairEvidence& rec = records_[idx];
  rec.origin = origin;
  rec.value = value;
  rec.det = std::make_unique<IncrementalDetermination>(
      center_table_, t_, kReportsPerFirstRelayer, digest_seed_);
  rec.next = slot_records_[static_cast<std::size_t>(node)];
  slot_records_[static_cast<std::size_t>(node)] = idx + 1;
  evidence_index_.slot(key) = idx;
  return idx;
}

void BvIndirectPool::release(std::uint64_t key) {
  const std::uint32_t* idx = evidence_index_.find(key);
  if (idx == nullptr) return;
  // The record stays linked (as a husk) until its slot's next round end.
  records_[*idx].det.reset();
  evidence_index_.erase(key);
}

void BvIndirectPool::determine(NodeContext& ctx, std::int32_t node,
                               Coord origin, std::uint8_t value) {
  if (rule_.record(node, origin, value)) commit(ctx, node, value);
  // Evidence for a determined pair is no longer needed.
  release(nov_key(node, ctx.torus().index(origin), value));
}

void BvIndirectPool::on_receive(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  switch (env.msg.type) {
    case MsgType::kCommitted:
      handle_committed(ctx, node, env);
      break;
    case MsgType::kHeard:
      handle_heard(ctx, node, env);
      break;
  }
}

void BvIndirectPool::handle_committed(NodeContext& ctx, std::int32_t node,
                                      const Envelope& env) {
  const Torus& torus = ctx.torus();
  // A COMMITTED's origin must be the transmitter itself.
  if (torus.wrap(env.msg.origin) != env.sender) return;
  // First value per sender only.
  if (!first_committed_.insert(nov_key(node, torus.index(env.sender)))) return;
  const std::uint8_t v = env.msg.value;

  // First-hop relay duty: report the commit to our own neighborhood.
  ctx.broadcast(make_heard({ctx.self()}, env.sender, v));

  if (env.sender == source_) commit(ctx, node, v);
  determine(ctx, node, env.sender, v);
}

void BvIndirectPool::handle_heard(NodeContext& ctx, std::int32_t node,
                                  const Envelope& env) {
  const Torus& torus = ctx.torus();
  const Message& msg = env.msg;
  if (msg.relayers.empty() || msg.relayers.size() > kMaxRelayers) return;
  // Evidence only feeds our own commit decision; relay duty is what others
  // rely on, so post-commit we stop recording but keep relaying (unless
  // full tracking is requested).
  const bool recording = !committed(node) || track_after_commit_;
  // A full-length chain cannot be extended, so once this node stops
  // recording evidence such a delivery is a complete no-op — skip even the
  // cached validation. Committed nodes receiving depth-3 floods are the
  // dominant late-trial delivery, so this branch carries most of them.
  if (!recording && msg.relayers.size() >= kMaxRelayers) return;

  // Receiver-independent validation, computed once per transmission and
  // reused across its ~|nbd| deliveries (see HeardValidation above).
  HeardValidation& val = g_heard_validation;
  if (!val.matches(torus, r_, m_, env.sender, msg)) {
    val.fill(torus, r_, m_, center_table_, env.sender, msg);
  }
  if (!val.plausible) return;

  const Coord self = ctx.self();
  if (val.origin == self) return;
  // The chain must not pass through us.
  for (const Coord c : val.chain) {
    if (c == self) return;
  }

  const std::uint8_t v = msg.value & 1;
  const std::int32_t origin_idx = torus.index(val.origin);
  if (recording && !rule_.is_determined(node, origin_idx, v)) {
    const std::uint64_t key = nov_key(node, origin_idx, v);
    const std::uint32_t* found = evidence_index_.find(key);
    PairEvidence& rec =
        records_[found != nullptr ? *found : open(node, val.origin, v, key)];
    if (rec.det->add_report(
            std::span<const Offset>(val.rel.data(), val.chain.size()),
            val.report_key)) {
      rec.dirty = true;
    }
  }

  // Relay with ourselves appended, if depth allows and the extended chain is
  // still potentially useful.
  if (val.chain.size() >= kMaxRelayers) return;
  RelayerChain extended = val.chain;
  extended.push_back(self);
  const Offset self_rel = torus.delta(val.origin, self);
  if (mode_ == RelayMode::kEarmarked) {
    std::array<Offset, RelayerChain::kCapacity> rel = val.rel;
    rel[val.chain.size()] = self_rel;
    if (!earmarks_->allows(
            std::span<const Offset>(rel.data(), extended.size()))) {
      return;
    }
  } else {
    // Usefulness filter: a decider only ever accepts a chain whose nodes
    // plus the committer fit in one neighborhood, so drop extensions that
    // already cannot. A spoofed sender can place us arbitrarily far from
    // the claimed origin, so the self delta may fall outside the table
    // span — containing_or_empty maps that (correctly) to "no center".
    CenterSet admissible = val.chain_centers;
    admissible &= center_table_.containing_or_empty(self_rel);
    if (!admissible.any()) return;
  }
  ctx.broadcast(make_heard(extended, val.origin, v));
}

void BvIndirectPool::on_round_end(NodeContext& ctx, std::int32_t node) {
  // Dead state after committing: release all of this slot's evidence.
  const bool release_all = committed(node) && !track_after_commit_;
  // Walk the slot's records: recycle released ones, collect dirty ones.
  scratch_dirty_.clear();
  std::uint32_t* link = &slot_records_[static_cast<std::size_t>(node)];
  while (*link != 0) {
    const std::uint32_t idx = *link - 1;
    PairEvidence& rec = records_[idx];
    if (release_all && rec.det != nullptr) {
      release(nov_key(node, ctx.torus().index(rec.origin), rec.value));
    }
    if (rec.det == nullptr) {
      *link = rec.next;
      rec.next = 0;
      rec.dirty = false;
      free_records_.push_back(idx);
      continue;
    }
    if (rec.dirty) {
      rec.dirty = false;
      scratch_dirty_.emplace_back(origin_value_key(rec.origin, rec.value),
                                  idx);
    }
    link = &rec.next;
  }
  if (scratch_dirty_.empty()) return;
  std::sort(scratch_dirty_.begin(), scratch_dirty_.end());  // deterministic
  PackingMemo& memo = PackingMemo::thread_instance();
  for (const auto& [key, idx] : scratch_dirty_) {
    PairEvidence& rec = records_[idx];
    if (rec.det == nullptr) continue;  // determined earlier in this loop
    if (rec.det->evaluate(memo)) determine(ctx, node, rec.origin, rec.value);
  }
}

std::uint64_t BvIndirectPool::state_bytes() const {
  std::uint64_t bytes =
      commit_bytes() + rule_.bytes() + first_committed_.bytes() +
      evidence_index_.bytes() + records_.size() * sizeof(PairEvidence) +
      (free_records_.size() + slot_records_.size()) * sizeof(std::uint32_t);
  for (const PairEvidence& rec : records_) {
    if (rec.det != nullptr) bytes += rec.det->state_bytes();
  }
  return bytes;
}

}  // namespace rbcast
