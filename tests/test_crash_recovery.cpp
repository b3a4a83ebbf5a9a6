// Crash-fault tolerance tests: permanent rank failures must not lose or
// duplicate work. With k ranks fail-stopping mid-search, the survivors must
//   * revoke the dead ranks' lock leases instead of deadlocking,
//   * salvage the dead ranks' stacks and replay orphaned in-flight
//     transfers (lineage records), visiting every node exactly once,
//   * exclude the dead ranks from barriers / token rounds and still reach
//     a correct termination decision — all without tripping the watchdog.
// A plan with no crashes must leave runs byte-identical to fault-free ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include "pgas/engine.hpp"
#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

pgas::RunConfig dist_cfg(int nranks, std::uint64_t seed) {
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = seed;
  // Fail fast with a structured report instead of spinning to the virtual
  // time limit. Must comfortably exceed lease (1 ms default) + detection.
  rcfg.watchdog_ns = 50'000'000'000ull;
  return rcfg;
}

/// Hardened config (steal timeout on): required for crash tolerance of the
/// message-passing protocol, and matches how the reqresp protocol is
/// deployed under faults.
ws::WsConfig hardened_cfg(ws::Algo a, int chunk) {
  ws::WsConfig cfg = ws::WsConfig::for_algo(a, chunk);
  cfg.steal_timeout_ns = 30'000;
  return cfg;
}

pgas::FaultPlan crash_plan(
    std::initializer_list<std::pair<int, std::uint64_t>> specs,
    pgas::CrashSpec::Where where = pgas::CrashSpec::Where::kAnywhere,
    std::uint64_t detect_ns = 0) {
  pgas::FaultPlan plan;
  for (const auto& [rank, at] : specs) {
    pgas::CrashSpec c;
    c.rank = rank;
    c.at_ns = at;
    c.where = where;
    plan.crashes.push_back(c);
  }
  plan.crash_detect_ns = detect_ns;
  return plan;
}

// The protocols under test: one lock-based, one request-response, one
// message-passing (each exercises a different recovery path mix).
const ws::Algo kCrashAlgos[] = {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm,
                                ws::Algo::kUpcDistMem, ws::Algo::kMpiWs};

// ---------------------------------------------------------------------------
// Tentpole acceptance: k in {1,2,4} crashes, every protocol, exact counts.

TEST(CrashRecovery, ExactCountsUnderKCrashes) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  const std::vector<std::vector<std::pair<int, std::uint64_t>>> plans = {
      {{3, 20'000}},
      {{3, 20'000}, {5, 40'000}},
      {{1, 15'000}, {3, 30'000}, {5, 45'000}, {7, 60'000}},
  };
  for (ws::Algo a : kCrashAlgos) {
    for (const auto& specs : plans) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        pgas::RunConfig rcfg = dist_cfg(8, seed);
        for (const auto& [rank, at] : specs) {
          pgas::CrashSpec c;
          c.rank = rank;
          c.at_ns = at;
          rcfg.faults.crashes.push_back(c);
        }
        const auto r =
            ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
        EXPECT_EQ(r.total_nodes(), want)
            << ws::algo_label(a) << " k=" << specs.size() << " seed " << seed;
        EXPECT_GT(r.agg.faults.crashes, 0u) << ws::algo_label(a);
        // Recovery must have fired (a rank that crashes *after* the
        // termination decision is legitimately never salvaged, so the
        // salvage count may trail the crash count — but never be zero
        // when ranks died mid-search).
        EXPECT_GT(r.agg.total_salvages, 0u)
            << ws::algo_label(a) << " k=" << specs.size() << " seed " << seed;
        // Recovery must never drop a node as a duplicate in correct runs:
        // chunks are disjoint reservations.
        EXPECT_EQ(r.agg.total_dedup_drops, 0u) << ws::algo_label(a);
      }
    }
  }
}

TEST(CrashRecovery, RankZeroCrashLeaderTakeover) {
  // Rank 0 roots the announcement tree (upc) and leads the token ring
  // (mpi-ws); its death must hand both roles to a survivor.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (ws::Algo a : kCrashAlgos) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = crash_plan({{0, 10'000}});
      const auto r = ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      EXPECT_EQ(r.per_thread[0].c.faults.crashes, 1u) << ws::algo_label(a);
    }
  }
}

TEST(CrashRecovery, CrashInsideCriticalSection) {
  // The crash lands while the victim holds its stack lock: survivors must
  // wait out the lease, revoke, and salvage under the bumped epoch.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  const ws::Algo locked[] = {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm};
  std::uint64_t revoked = 0;
  for (ws::Algo a : locked) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = crash_plan({{2, 15'000}, {5, 30'000}},
                               pgas::CrashSpec::Where::kInLock);
      rcfg.lock_lease_ns = 100'000;  // short lease: force revocations
      const auto r = ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      revoked += r.agg.total_locks_revoked;
    }
  }
  // In-lock deaths with contended stacks must force at least one lease
  // revocation across the sweep (any single seed may dodge contention).
  EXPECT_GT(revoked, 0u);
}

TEST(CrashRecovery, RevocationRowsMatchTheTally) {
  // uts_cli -t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A upc-sharedmem
  //   --crash 1@30000,3@60000 --crash-in-lock --crash-detect 2000
  // revokes both dead holders' locks. Each revocation is a fault event of
  // the revoker, so the trace holds one lock_revoked row per revocation,
  // naming the dead holder.
  uts::Params p;
  p.type = uts::TreeType::kBinomial;
  p.b0 = 64;
  p.q = 0.45;
  p.m = 2;
  p.root_seed = 1;
  const ws::UtsProblem prob(p);
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 1;
  rcfg.faults = crash_plan({{1, 30'000}, {3, 60'000}},
                           pgas::CrashSpec::Where::kInLock, 2'000);
  ws::WsConfig cfg = hardened_cfg(ws::Algo::kUpcSharedMem, 4);
  trace::Trace tr(rcfg.nranks);
  cfg.trace = &tr;
  pgas::SimEngine eng;
  const ws::SearchResult r = ws::run_search(eng, rcfg, prob, cfg);
  EXPECT_EQ(r.total_nodes(), uts::search_sequential(p)->nodes);
  EXPECT_EQ(r.agg.total_locks_revoked, 2u);
  std::uint64_t rows = 0;
  for (const trace::Event& e : tr.merged()) {
    if (e.kind != trace::Kind::kLockRevoked) continue;
    ++rows;
    EXPECT_TRUE(e.arg0 == 1 || e.arg0 == 3) << "holder " << e.arg0;
  }
  EXPECT_EQ(rows, r.agg.total_locks_revoked);
}

TEST(CrashRecovery, CrashMidStealReplaysLineageRecords) {
  // The crash lands inside a steal transfer: either endpoint of an
  // in-flight chunk dies and the lineage record must make the chunk
  // reachable again (victim-side salvage or thief-side replay).
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (ws::Algo a : kCrashAlgos) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = crash_plan({{2, 15'000}, {6, 30'000}},
                               pgas::CrashSpec::Where::kMidSteal);
      const auto r = ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      EXPECT_EQ(r.agg.total_dedup_drops, 0u) << ws::algo_label(a);
    }
  }
}

TEST(CrashRecovery, DetectionLatencyDelaysButDoesNotBreakRecovery) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (ws::Algo a : kCrashAlgos) {
    for (std::uint64_t detect : {std::uint64_t{50'000},
                                 std::uint64_t{500'000}}) {
      pgas::RunConfig rcfg = dist_cfg(8, 2);
      rcfg.faults = crash_plan({{3, 20'000}, {5, 40'000}},
                               pgas::CrashSpec::Where::kAnywhere, detect);
      const auto r = ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
      EXPECT_EQ(r.total_nodes(), want)
          << ws::algo_label(a) << " detect " << detect;
    }
  }
}

TEST(CrashRecovery, CrashFreePlanStaysByteIdentical) {
  // A plan whose crash list is empty (even with a detection latency
  // configured) must not perturb the run at all: same virtual makespan,
  // same scheduler switches, same steal counts.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  for (ws::Algo a : kCrashAlgos) {
    pgas::RunConfig base = dist_cfg(8, 11);
    pgas::RunConfig nocrash = base;
    nocrash.faults.crash_detect_ns = 250'000;  // set, but no crashes
    nocrash.lock_lease_ns = 77'000;
    const auto r0 = ws::run_search(eng, base, prob, hardened_cfg(a, 2));
    const auto r1 = ws::run_search(eng, nocrash, prob, hardened_cfg(a, 2));
    EXPECT_EQ(r0.run.elapsed_s, r1.run.elapsed_s) << ws::algo_label(a);
    EXPECT_EQ(r0.run.switches, r1.run.switches) << ws::algo_label(a);
    EXPECT_EQ(r0.agg.total_steals, r1.agg.total_steals) << ws::algo_label(a);
    EXPECT_EQ(r1.agg.faults.crashes, 0u);
    EXPECT_EQ(r1.agg.total_salvages, 0u);
    EXPECT_EQ(r1.agg.total_locks_revoked, 0u);
  }
}

// ---------------------------------------------------------------------------
// Lock lease / revocation unit tests (no search, just the lock word).

/// Minimal concrete Ctx so the protected lock_word_acquire/release helpers
/// (the lease protocol) can be driven directly with a hand-rolled clock
/// and liveness board.
class LeaseTestCtx : public pgas::Ctx {
 public:
  LeaseTestCtx(int rank, pgas::Liveness* lv, std::uint64_t lease_ns)
      : Ctx(rank, 2, kNet, 1) {
    live_ = lv;
    lease_ns_ = lease_ns;
  }

  std::uint64_t now = 0;

  bool acquire(pgas::Lock& l) { return lock_word_acquire(l); }
  void release(pgas::Lock& l) { lock_word_release(l); }

  std::uint64_t now_ns() override { return now; }
  void charge(std::uint64_t) override {}
  void yield() override {}
  void lock(pgas::Lock& l) override {
    while (!lock_word_acquire(l)) {
    }
  }

 private:
  static inline const pgas::NetModel kNet = pgas::NetModel::free();
};

TEST(LockLease, WordPacksEpochAndHolder) {
  using pgas::Lock;
  EXPECT_EQ(Lock::holder_of(Lock::pack(0, Lock::kFree)), Lock::kFree);
  EXPECT_EQ(Lock::holder_of(Lock::pack(7, 3)), 3);
  EXPECT_EQ(Lock::epoch_of(Lock::pack(7, 3)), 7u);
  EXPECT_EQ(Lock::pack(0, Lock::kFree), 0u);  // freshly-zeroed word is free
}

TEST(LockLease, DeadHolderRevokedOnlyAfterLeaseExpiry) {
  pgas::Liveness lv(2, /*detect_ns=*/0);
  LeaseTestCtx holder(0, &lv, /*lease_ns=*/100);
  LeaseTestCtx thief(1, &lv, /*lease_ns=*/100);
  pgas::Lock l;

  holder.now = 10;
  ASSERT_TRUE(holder.acquire(l));  // lease runs to t=110
  EXPECT_EQ(l.holder(), 0);

  thief.now = 50;
  EXPECT_FALSE(thief.acquire(l));  // holder alive: no steal
  lv.mark_dead(0, 60);
  EXPECT_FALSE(thief.acquire(l));  // dead but lease still running
  thief.now = 120;
  EXPECT_TRUE(thief.acquire(l));  // dead + expired: revoked
  EXPECT_EQ(l.holder(), 1);
  EXPECT_EQ(l.epoch(), 1u);  // revocation bumped the epoch
  EXPECT_EQ(thief.locks_revoked(), 1u);
}

TEST(LockLease, StaleUnlockFromRevokedEpochRejected) {
  pgas::Liveness lv(2, 0);
  LeaseTestCtx holder(0, &lv, 100);
  LeaseTestCtx thief(1, &lv, 100);
  pgas::Lock l;

  holder.now = 0;
  ASSERT_TRUE(holder.acquire(l));
  lv.mark_dead(0, 5);
  thief.now = 200;
  ASSERT_TRUE(thief.acquire(l));  // revoked

  // The (not-actually-dead-yet-in-this-unit-test) old holder tries to
  // release: the word now names the revoker, so the release must be
  // rejected and counted, leaving the revoker's ownership intact.
  holder.release(l);
  EXPECT_EQ(holder.stale_unlocks(), 1u);
  EXPECT_EQ(l.holder(), 1);
  EXPECT_EQ(l.epoch(), 1u);

  thief.release(l);  // legitimate release still works
  EXPECT_EQ(l.holder(), pgas::Lock::kFree);
  EXPECT_EQ(thief.stale_unlocks(), 0u);
}

TEST(LockLease, LiveHolderNeverRevoked) {
  pgas::Liveness lv(2, 0);
  LeaseTestCtx holder(0, &lv, 100);
  LeaseTestCtx thief(1, &lv, 100);
  pgas::Lock l;
  holder.now = 0;
  ASSERT_TRUE(holder.acquire(l));
  thief.now = 1'000'000;  // lease long expired, but the holder is alive
  EXPECT_FALSE(thief.acquire(l));
  EXPECT_EQ(thief.locks_revoked(), 0u);
  EXPECT_EQ(l.holder(), 0);
}

TEST(LockLease, DetectionLatencyGatesLiveness) {
  pgas::Liveness lv(4, /*detect_ns=*/1000);
  lv.mark_dead(2, 500);
  EXPECT_FALSE(lv.dead(2, 1499));  // death + detect not yet elapsed
  EXPECT_TRUE(lv.dead(2, 1500));
  EXPECT_FALSE(lv.dead(1, 10'000'000));
  EXPECT_EQ(lv.dead_count(2000), 1);
  EXPECT_EQ(lv.live_count(2000), 3);
}

// ---------------------------------------------------------------------------
// ThreadEngine: real threads, real preemption. These suites are the TSAN
// targets in CI (filtered by the ThreadEngine prefix) — keep fibers out.

TEST(ThreadEngineCrash, ExactCountsUnderCrashes) {
  const uts::Params p = uts::test_small(4);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine eng;
  for (ws::Algo a : kCrashAlgos) {
    pgas::RunConfig rcfg;
    rcfg.nranks = 4;
    rcfg.seed = 3;
    rcfg.net = pgas::NetModel::free();
    // Wall-clock times: crash almost immediately, tiny lease so the run
    // (typically < 100 ms) sees revocations if contention arises.
    rcfg.faults = crash_plan({{2, 50'000}});
    rcfg.lock_lease_ns = 200'000;
    const auto r = ws::run_search(eng, rcfg, prob, hardened_cfg(a, 2));
    EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a);
    EXPECT_EQ(r.per_thread[2].c.faults.crashes, 1u) << ws::algo_label(a);
  }
}

TEST(ThreadEngineCrash, LeaseRevocationUnderRealRaces) {
  // Many threads hammer one lock whose holder dies holding it; exactly one
  // contender may win each revocation and the lock must stay functional.
  pgas::Liveness lv(8, 0);
  pgas::Lock l;
  std::atomic<int> in_cs{0};
  std::atomic<std::uint64_t> total_acquires{0};
  pgas::ThreadEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::free();
  eng.run(rcfg, [&](pgas::Ctx& c) {
    LeaseTestCtx me(c.rank(), &lv, /*lease_ns=*/0);
    if (c.rank() == 0) {
      while (!me.acquire(l)) {
      }
      lv.mark_dead(0, 1);  // die holding the lock (lease already expired)
      return;
    }
    for (int i = 0; i < 200; ++i) {
      me.now = 100 + static_cast<std::uint64_t>(i);
      if (me.acquire(l)) {
        EXPECT_EQ(in_cs.fetch_add(1, std::memory_order_acq_rel), 0);
        total_acquires.fetch_add(1, std::memory_order_relaxed);
        in_cs.fetch_sub(1, std::memory_order_acq_rel);
        me.release(l);
      }
    }
  });
  EXPECT_GT(total_acquires.load(), 0u);
  // The dead holder's lock was revoked exactly once: one epoch bump.
  EXPECT_EQ(pgas::Lock::epoch_of(l.word.load()), 1u);
}

}  // namespace
