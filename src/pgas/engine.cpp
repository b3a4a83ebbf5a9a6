#include "pgas/engine.hpp"

#include <algorithm>
#include <cstring>

#include "sim/fiber.hpp"

namespace upcws::pgas {

Ctx::Ctx(int rank, const RunConfig& cfg, const RunFaults& faults)
    : Ctx(rank, cfg.nranks, cfg.net, cfg.seed) {
  faults_ = faults.injector(rank);
  obs_ = cfg.obs;
  live_ = faults.liveness();
  lease_ns_ = faults.lease_ns();
}

std::uint64_t lookahead_ns(const NetModel& net, int nranks, int blocks) {
  const int W = std::min(blocks, nranks);
  if (W < 2) return 0;
  // Blocks and SMP nodes are both contiguous rank blocks, so the cheapest
  // cross-block reference is on_node_ref_ns exactly when some block
  // boundary splits a node, remote_ref_ns otherwise.
  std::uint64_t m = net.remote_ref_ns;
  const int base = nranks / W, rem = nranks % W;
  int lo = 0;
  for (int i = 0; i + 1 < W; ++i) {
    lo += base + (i < rem ? 1 : 0);
    if (lo < nranks && net.same_node(lo - 1, lo))
      m = std::min(m, net.on_node_ref_ns);
  }
  return m > kChargeQuantumNs ? m - kChargeQuantumNs : 0;
}

void Ctx::unlock(Lock& l) {
  if (dead_) return;  // a crashed holder never releases; see revocation
  // Both guards for the same reason: unlock is reached from noexcept
  // destructors (~LockGuard), where neither an injected crash nor a
  // pending cancel() may throw. The shield keeps Fiber::yield_current
  // from delivering a cancellation out of the charge below (off-fiber,
  // on ThreadEngine, it is a no-op).
  const sim::Fiber::CancelShield shield;
  in_unlock_ = true;
  ref_op(l.owner, [&] { lock_word_release(l); });
  in_unlock_ = false;
}

void Ctx::bulk_get(void* dst, const void* src, std::size_t bytes, int owner,
                   OpRef then) {
  std::uint64_t c = jittered(net().bulk_ns(rank(), owner, bytes));
  if (faults_ != nullptr) c += faults_->partition_extra_ns(owner, now_ns());
  mediated_op(owner, c, [&] {
    // Synchronize-with the release of whatever handshake published `src`.
    std::atomic_thread_fence(std::memory_order_acquire);
    std::memcpy(dst, src, bytes);
    then();
  });
  note_remote_op(owner, ObsSink::OpKind::kBulkGet);
}

void Ctx::bulk_put(void* dst, const void* src, std::size_t bytes, int owner) {
  if (dead_) return;  // a crashed rank's in-flight put never lands
  std::uint64_t c = jittered(net().bulk_ns(rank(), owner, bytes));
  if (faults_ != nullptr) c += faults_->partition_extra_ns(owner, now_ns());
  mediated_op(owner, c, [&] {
    std::memcpy(dst, src, bytes);
    // Publish before any subsequent release-store handshake.
    std::atomic_thread_fence(std::memory_order_release);
  });
  note_remote_op(owner, ObsSink::OpKind::kBulkPut);
}

RunFaults::RunFaults(const RunConfig& cfg)
    : injectors_(static_cast<std::size_t>(cfg.nranks)),
      lease_ns_(cfg.lock_lease_ns != 0 ? cfg.lock_lease_ns : 1'000'000ull) {
  if (cfg.faults.any())
    for (int r = 0; r < cfg.nranks; ++r)
      injectors_[r] = std::make_unique<FaultInjector>(cfg.faults, cfg.seed, r);
  // Crash injection and membership changes (drains/joins) need a liveness
  // board; use the caller's (so it can be read after the run / in hang
  // reports) or make one for the run.
  if (!cfg.faults.crashes_enabled() && !cfg.faults.membership_enabled())
    return;
  live_ = cfg.liveness;
  if (live_ == nullptr) {
    own_live_ =
        std::make_unique<Liveness>(cfg.nranks, cfg.faults.crash_detect_ns);
    live_ = own_live_.get();
  }
  if (cfg.faults.joins_enabled()) live_->apply_join_plan(cfg.faults);
}

}  // namespace upcws::pgas
