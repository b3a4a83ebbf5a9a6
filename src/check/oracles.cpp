#include "check/oracles.hpp"

#include <sstream>

#include "pgas/engine.hpp"
#include "trace/trace.hpp"
#include "ws/driver.hpp"
#include "ws/recovery.hpp"
#include "ws/shared_state.hpp"

namespace upcws::check {

namespace {

constexpr int kFreeHolder = -1;

std::uint32_t word_epoch(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32);
}

int word_holder(std::uint64_t w) {
  const std::uint32_t low = static_cast<std::uint32_t>(w);
  return low == 0 ? kFreeHolder : static_cast<int>(low) - 1;
}

bool rank_crashed(const pgas::Liveness* lv, int r) {
  return lv != nullptr && lv->death_ns(r) != pgas::Liveness::kAlive;
}

}  // namespace

void NodeConservationOracle::on_end(const EndProbe& p) {
  const std::uint64_t got = p.result->agg.total_nodes;
  if (got == p.expected_nodes) return;
  std::ostringstream os;
  os << "parallel traversal visited " << got << " nodes, sequential "
     << "reference is " << p.expected_nodes << " ("
     << (got > p.expected_nodes ? "double-count of " : "loss of ")
     << (got > p.expected_nodes ? got - p.expected_nodes
                                : p.expected_nodes - got)
     << " nodes)";
  fail(os.str());
}

void LockEpochOracle::on_step(const StepProbe& p) {
  if (locks_.empty()) {
    if (p.shared != nullptr) {
      for (auto& s : p.shared->stacks) locks_.push_back(&s.lock());
      locks_.push_back(&p.shared->cb_lock);
    }
    if (locks_.empty()) return;
    last_.reserve(locks_.size());
    for (pgas::Lock* l : locks_)
      last_.push_back(l->word.load(std::memory_order_relaxed));
    return;
  }
  for (std::size_t i = 0; i < locks_.size(); ++i) {
    const std::uint64_t now = locks_[i]->word.load(std::memory_order_relaxed);
    const std::uint64_t was = last_[i];
    last_[i] = now;
    if (now == was) continue;
    const std::uint32_t e0 = word_epoch(was), e1 = word_epoch(now);
    const int h0 = word_holder(was), h1 = word_holder(now);
    std::ostringstream os;
    os << "lock " << i << " word " << was << " -> " << now << " (epoch " << e0
       << " -> " << e1 << ", holder " << h0 << " -> " << h1 << "): ";
    if (e1 < e0) {
      os << "epoch moved backwards";
      fail(os.str());
    }
    if (e1 > e0 + 1) {
      // Probes bracket exactly one fiber slice, and a slice can revoke a
      // given lock at most once (after the revoke the revoker holds it, and
      // a live holder's lock cannot be revoked again).
      os << "more than one revocation in a single slice";
      fail(os.str());
    }
    if (e1 == e0 && h0 != kFreeHolder && h1 != kFreeHolder && h0 != h1) {
      os << "lock changed hands within an epoch without passing through "
            "free (second holder in the same epoch)";
      fail(os.str());
    }
  }
}

void BarrierWorkOracle::on_step(const StepProbe& p) {
  if (declared_ || p.shared == nullptr) return;
  const bool term =
      p.shared->term_root.load(std::memory_order_relaxed) != -1 ||
      p.shared->cb_done.load(std::memory_order_relaxed) != 0;
  if (!term) return;
  declared_ = true;
  for (int r = 0; r < p.nranks; ++r) {
    const std::size_t d = p.shared->stacks[static_cast<std::size_t>(r)].depth();
    if (d == 0) continue;
    std::ostringstream os;
    os << "termination declared while rank " << r
       << (rank_crashed(p.liveness, r) ? " (crashed)" : " (alive)")
       << " still holds " << d
       << " stack nodes — barrier completed with releasable/recoverable "
          "work outstanding";
    fail(os.str());
  }
  if (p.board == nullptr) return;
  for (int w = 0; w < p.nranks; ++w) {
    for (int t = 0; t < p.nranks; ++t) {
      if (w == t) continue;
      const ws::TransferRec& rec = p.board->rec(w, t);
      if (rec.state.load(std::memory_order_relaxed) !=
          ws::TransferRec::kPending)
        continue;
      std::ostringstream os;
      os << "termination declared while transfer record (" << w << " -> " << t
         << ", " << rec.nnodes << " nodes) is still pending — its chunk is "
         << "in no stack";
      fail(os.str());
    }
  }
}

void StealConservationOracle::on_detach(const StepProbe& p) {
  if (p.board == nullptr) return;
  for (int w = 0; w < p.nranks; ++w) {
    for (int t = 0; t < p.nranks; ++t) {
      if (w == t) continue;
      const ws::TransferRec& rec = p.board->rec(w, t);
      if (rec.state.load(std::memory_order_relaxed) !=
          ws::TransferRec::kPending)
        continue;
      std::ostringstream os;
      os << "run ended with transfer record (" << w << " -> " << t << ", "
         << rec.nnodes << " nodes) still pending: the chunk was neither "
         << "retired by its thief nor replayed by a recoverer";
      fail(os.str());
    }
  }
}

void StealConservationOracle::on_end(const EndProbe& p) {
  if (p.trace == nullptr) return;
  std::uint64_t stolen = 0, granted = 0, recovered = 0;
  for (const trace::Event& e : p.trace->merged()) {
    if (e.kind == trace::Kind::kStealOk) {
      if (e.arg1 <= 0 || e.arg1 % p.chunk != 0) {
        std::ostringstream os;
        os << "steal of " << e.arg1 << " nodes by rank " << e.rank << " at t="
           << e.t_ns << " is not a positive multiple of the chunk size "
           << p.chunk;
        fail(os.str());
      }
      stolen += static_cast<std::uint64_t>(e.arg1);
    } else if (e.kind == trace::Kind::kServiceGrant) {
      granted += static_cast<std::uint64_t>(e.arg1);
    } else if (e.kind == trace::Kind::kWorkRecovered) {
      recovered += static_cast<std::uint64_t>(e.arg1);
    }
  }
  // Drains exercise the same salvage/replay accounting as crashes, so they
  // relax the strict stolen==granted bookkeeping too.
  const bool crash_mode =
      p.faults.crashes_enabled() || p.faults.drains_enabled();
  if (!crash_mode && p.request_response && stolen != granted) {
    std::ostringstream os;
    os << "crash-free run granted " << granted << " nodes but thieves "
       << "absorbed " << stolen;
    fail(os.str());
  }
  if (crash_mode && granted > stolen + recovered) {
    std::ostringstream os;
    os << "granted nodes (" << granted << ") exceed absorbed (" << stolen
       << ") + recovered (" << recovered
       << ") — a committed grant vanished";
    fail(os.str());
  }
}

void MembershipSafetyOracle::on_step(const StepProbe& p) {
  if (p.board == nullptr) return;
  for (int r = 0; r < p.nranks; ++r) {
    const int s = p.board->salvage_state(r);
    if (s != 0 && !rank_crashed(p.liveness, r)) {
      std::ostringstream os;
      os << "salvage word of rank " << r << " is " << s
         << " but the rank never left the membership — salvaging a live "
            "rank's stack double-executes its work";
      fail(os.str());
    }
  }
  if (declared_ || p.shared == nullptr) return;
  const bool term =
      p.shared->term_root.load(std::memory_order_relaxed) != -1 ||
      p.shared->cb_done.load(std::memory_order_relaxed) != 0;
  if (!term) return;
  declared_ = true;
  for (int r = 0; r < p.nranks; ++r) {
    if (p.board->salvage_state(r) != 1) continue;
    std::ostringstream os;
    os << "termination declared while the salvage of rank " << r
       << " is claimed but unfinished — its recovered nodes are in no "
          "stack, so the barrier completed over invisible work";
    fail(os.str());
  }
}

void MembershipSafetyOracle::on_end(const EndProbe& p) {
  const auto& agg = p.result->agg;
  if (agg.faults.drains > p.faults.drains.size()) {
    std::ostringstream os;
    os << agg.faults.drains << " drains fired but only "
       << p.faults.drains.size() << " were planned (a DrainSpec fired twice)";
    fail(os.str());
  }
  if (agg.faults.joins > p.faults.joins.size()) {
    std::ostringstream os;
    os << agg.faults.joins << " joins fired but only "
       << p.faults.joins.size() << " were planned (a JoinSpec fired twice)";
    fail(os.str());
  }
  if (!p.faults.partitions_enabled() && agg.faults.partition_delays > 0) {
    std::ostringstream os;
    os << agg.faults.partition_delays
       << " cross-cut ops were partition-delayed with no partition planned";
    fail(os.str());
  }
}

std::vector<std::unique_ptr<Oracle>> default_oracles() {
  std::vector<std::unique_ptr<Oracle>> os;
  os.push_back(std::make_unique<NodeConservationOracle>());
  os.push_back(std::make_unique<LockEpochOracle>());
  os.push_back(std::make_unique<BarrierWorkOracle>());
  os.push_back(std::make_unique<StealConservationOracle>());
  os.push_back(std::make_unique<MembershipSafetyOracle>());
  return os;
}

void oracles_step(const std::vector<std::unique_ptr<Oracle>>& os,
                  const StepProbe& p) {
  for (const auto& o : os) o->on_step(p);
}
void oracles_detach(const std::vector<std::unique_ptr<Oracle>>& os,
                    const StepProbe& p) {
  for (const auto& o : os) o->on_detach(p);
}
void oracles_end(const std::vector<std::unique_ptr<Oracle>>& os,
                 const EndProbe& p) {
  for (const auto& o : os) o->on_end(p);
}
void oracles_reset(const std::vector<std::unique_ptr<Oracle>>& os) {
  for (const auto& o : os) o->reset();
}

}  // namespace upcws::check
