#include "radiobcast/protocols/byzantine.h"

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

namespace {

std::uint64_t pack_coord(Coord c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
         static_cast<std::uint32_t>(c.y);
}

}  // namespace

std::uint64_t LyingBehavior::LieTraits::hash(const Lie& lie) {
  std::uint64_t h = det_mix64(pack_coord(lie.origin) ^
                              static_cast<std::uint64_t>(lie.depth));
  h = det_mix64(h ^ pack_coord(lie.chain[0]));
  return det_mix64(h ^ pack_coord(lie.chain[1]));
}

void LyingBehavior::on_start(NodeContext& ctx) {
  ctx.broadcast(make_committed(ctx.self(), wrong_value_));
}

void LyingBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  Lie lie;
  if (env.msg.type == MsgType::kCommitted) {
    // Claim the committer committed the wrong value.
    lie.origin = env.sender;
  } else {
    if (env.msg.relayers.size() >= 3) return;  // depth cap keeps volume finite
    lie.origin = env.msg.origin;
    for (const Coord c : env.msg.relayers) lie.chain[lie.depth++] = c;
  }
  if (!sent_.insert(lie)) return;
  RelayerChain chain;
  for (std::int32_t i = 0; i < lie.depth; ++i) chain.push_back(lie.chain[i]);
  chain.push_back(ctx.self());
  ctx.broadcast(make_heard(chain, lie.origin, wrong_value_));
}

void SpoofingBehavior::on_start(NodeContext& ctx) {
  ctx.broadcast(make_committed(ctx.self(), wrong_value_));
  // Immediately impersonate every neighbor, claiming each committed to the
  // wrong value. The forged claims land before the honest wave arrives and,
  // absent authentication, are indistinguishable from genuine COMMITTED
  // broadcasts — the first-value rule then locks the lies in.
  const auto& table = NeighborhoodTable::get(r_, m_);
  for (const Offset o : table.offsets()) {
    const Coord victim = ctx.torus().wrap(ctx.self() + o);
    ctx.broadcast_as(victim, make_committed(victim, wrong_value_));
  }
}

void SpoofingBehavior::on_receive(NodeContext&, const Envelope&) {}

bool CrashAtRoundBehavior::alive(const NodeContext& ctx) const {
  return ctx.round() < crash_round_;
}

void CrashAtRoundBehavior::on_start(NodeContext& ctx) {
  if (crash_round_ > 0) inner_->on_start(ctx);
}

void CrashAtRoundBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  if (alive(ctx)) inner_->on_receive(ctx, env);
}

void CrashAtRoundBehavior::on_round_end(NodeContext& ctx) {
  if (alive(ctx)) inner_->on_round_end(ctx);
}

}  // namespace rbcast
