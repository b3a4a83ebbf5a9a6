#include "ws/recovery.hpp"

#include <cstring>

namespace upcws::ws {

RecoveryBoard::RecoveryBoard(int nranks, std::size_t node_bytes)
    : n_(nranks),
      nb_(node_bytes),
      recs_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks)),
      salvage_(static_cast<std::size_t>(nranks)),
      in_barrier_(static_cast<std::size_t>(nranks)) {
  for (auto& s : salvage_) s.store(0, std::memory_order_relaxed);
  for (auto& b : in_barrier_) b.store(0, std::memory_order_relaxed);
}

void RecoveryBoard::publish(int writer, int peer, int victim, int thief,
                            const std::byte* data, std::uint32_t count) {
  TransferRec& r = rec(writer, peer);
  r.victim.store(victim, std::memory_order_relaxed);
  r.thief.store(thief, std::memory_order_relaxed);
  r.nnodes = count;
  const std::size_t bytes = static_cast<std::size_t>(count) * nb_;
  r.payload.resize(bytes);
  std::memcpy(r.payload.data(), data, bytes);
  r.state.store(TransferRec::kPending, std::memory_order_release);
}

bool RecoveryBoard::retire(pgas::Ctx& ctx, TransferRec& r) {
  if (!bug_weak_claim) {
    int expect = TransferRec::kPending;
    return r.state.compare_exchange_strong(expect, TransferRec::kDone,
                                           std::memory_order_acq_rel);
  }
  // Deliberately broken arbitration for checker validation: check, then an
  // interaction point (a "remote verify" round trip), then an unconditional
  // store. Another rank scheduled into the window can claim the record for
  // replay and still lose the arbitration it already won.
  if (r.state.load(std::memory_order_acquire) != TransferRec::kPending)
    return false;
  ctx.charge(ctx.net().remote_ref_ns);
  ctx.yield();
  r.state.store(TransferRec::kDone, std::memory_order_release);
  return true;
}

bool RecoveryBoard::claim_rec(pgas::Ctx& ctx, TransferRec& r) {
  if (!bug_weak_claim) return claim(r);
  if (r.state.load(std::memory_order_acquire) != TransferRec::kPending)
    return false;
  ctx.charge(ctx.net().remote_ref_ns);
  ctx.yield();
  r.state.store(TransferRec::kClaimed, std::memory_order_release);
  return true;
}

bool RecoveryBoard::orphan_pending(pgas::Ctx& viewer) const {
  // A pending record with a dead endpoint is recoverable work termination
  // must wait for: a dead thief can never absorb its chunk, and a dead
  // victim may have died before a live thief ever saw the grant.
  for (const TransferRec& r : recs_) {
    if (r.state.load(std::memory_order_acquire) != TransferRec::kPending)
      continue;
    const int thief = r.thief.load(std::memory_order_relaxed);
    const int victim = r.victim.load(std::memory_order_relaxed);
    if (thief >= 0 && viewer.rank_dead(thief)) return true;
    if (victim >= 0 && viewer.rank_dead(victim)) return true;
  }
  return false;
}

}  // namespace upcws::ws
