// Cooperative deadline cancellation (WsConfig::cancel_at_ns): every
// stealing variant + work-push must terminate cleanly when cancelled at an
// arbitrary instant — mid-steal, mid-recovery, or inside a termination
// barrier — with exact reclaimed-node accounting. The invariant under test
// is schedule-independent:
//
//   total_nodes + total_reclaimed == 1 + total_spawned
//
// (every materialized node is either visited or reclaimed, exactly once),
// and it must hold under crashes and recovery too, because steal transfers,
// salvage, and replay are exactly-once. A deadline set after the natural
// finish must leave the run untouched (no cancels, no reclaims, exact
// count).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pgas/engine.hpp"
#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/recovery.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

pgas::RunConfig dist_cfg(int nranks, std::uint64_t seed) {
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = seed;
  // A cancellation bug shows up as a hang; fail fast with a structured
  // report instead of spinning to the virtual-time limit.
  rcfg.watchdog_ns = 50'000'000'000ull;
  return rcfg;
}

std::uint64_t makespan_ns(const ws::SearchResult& r) {
  return static_cast<std::uint64_t>(r.run.elapsed_s * 1e9);
}

void check_invariant(const ws::SearchResult& r, const char* what) {
  EXPECT_EQ(r.agg.total_nodes + r.agg.total_reclaimed,
            1 + r.agg.total_spawned)
      << what << ": nodes " << r.agg.total_nodes << " + reclaimed "
      << r.agg.total_reclaimed << " != 1 + spawned " << r.agg.total_spawned;
}

// ---------------------------------------------------------------------------
// Sweep: all six algorithms x cancel instants across the run's lifetime.

TEST(Cancel, SweepAllAlgosSim) {
  const uts::Params p = uts::test_small(4);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  const double fracs[] = {0.10, 0.30, 0.60, 0.90};
  for (ws::Algo a : ws::kAllAlgosExtended) {
    const ws::WsConfig base = ws::WsConfig::for_algo(a, 2);
    const auto clean = ws::run_search(eng, dist_cfg(8, 1), prob, base);
    ASSERT_EQ(clean.total_nodes(), want) << ws::algo_label(a);
    EXPECT_EQ(clean.agg.total_cancels, 0u) << ws::algo_label(a);
    EXPECT_EQ(clean.agg.total_reclaimed, 0u) << ws::algo_label(a);
    check_invariant(clean, ws::algo_label(a));
    const std::uint64_t span = makespan_ns(clean);
    ASSERT_GT(span, 0u);

    std::uint64_t reclaimed_somewhere = 0;
    for (double f : fracs) {
      ws::WsConfig cfg = base;
      cfg.cancel_at_ns = static_cast<std::uint64_t>(span * f);
      if (cfg.cancel_at_ns == 0) cfg.cancel_at_ns = 1;
      const auto r = ws::run_search(eng, dist_cfg(8, 1), prob, cfg);
      check_invariant(r, ws::algo_label(a));
      EXPECT_LE(r.agg.total_nodes, want) << ws::algo_label(a) << " f=" << f;
      if (r.agg.total_reclaimed > 0) {
        // A run that reclaimed anything must have cancelled somewhere and
        // visited strictly less than the full tree.
        EXPECT_GT(r.agg.total_cancels, 0u) << ws::algo_label(a);
        EXPECT_LT(r.agg.total_nodes, want) << ws::algo_label(a);
      }
      reclaimed_somewhere += r.agg.total_reclaimed;
    }
    // At least one cancel instant in the sweep must land mid-search and
    // actually bleed nodes, or the sweep proves nothing.
    EXPECT_GT(reclaimed_somewhere, 0u) << ws::algo_label(a);

    // A deadline past the natural finish never fires: exact count,
    // no cancels, no reclaims.
    ws::WsConfig late = base;
    late.cancel_at_ns = span * 2;
    const auto r = ws::run_search(eng, dist_cfg(8, 1), prob, late);
    EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a);
    EXPECT_EQ(r.agg.total_cancels, 0u) << ws::algo_label(a);
    EXPECT_EQ(r.agg.total_reclaimed, 0u) << ws::algo_label(a);
    check_invariant(r, ws::algo_label(a));
  }
}

// An immediate deadline (1 ns): rank 0 visits the root at t=0 (the first
// safe point precedes any charge), every clock then passes 1 ns, and the
// root's children are reclaimed without a single further expansion.
TEST(Cancel, ImmediateDeadlineReclaimsRootChildren) {
  const uts::Params p = uts::test_small(2);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  for (ws::Algo a : ws::kAllAlgosExtended) {
    ws::WsConfig cfg = ws::WsConfig::for_algo(a, 2);
    cfg.cancel_at_ns = 1;
    const auto r = ws::run_search(eng, dist_cfg(4, 7), prob, cfg);
    EXPECT_EQ(r.agg.total_nodes, 1u) << ws::algo_label(a);
    EXPECT_EQ(r.agg.total_reclaimed, r.agg.total_spawned)
        << ws::algo_label(a);
    EXPECT_EQ(r.agg.total_cancels, 4u) << ws::algo_label(a);
    check_invariant(r, ws::algo_label(a));
  }
}

// ---------------------------------------------------------------------------
// Cancellation racing crash recovery: the deadline fires right around the
// crash-detection window, so ranks cancel while salvage/replay is still in
// flight. The accounting must stay exact and no lineage record may be left
// pending at the end (cancelled ranks still run the recovery sweep).

TEST(Cancel, MidRecoveryNoOrphanedLineage) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  const ws::Algo algos[] = {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm,
                            ws::Algo::kUpcTermRapdif, ws::Algo::kUpcDistMem,
                            ws::Algo::kMpiWs};
  for (ws::Algo a : algos) {
    for (std::uint64_t cancel_at : {25'000ull, 60'000ull, 120'000ull}) {
      pgas::RunConfig rcfg = dist_cfg(8, 2);
      pgas::CrashSpec c;
      c.rank = 3;
      c.at_ns = 20'000;  // dies just before / as the deadline fires
      rcfg.faults.crashes.push_back(c);
      ws::WsConfig cfg = ws::WsConfig::for_algo(a, 2);
      cfg.steal_timeout_ns = 30'000;  // hardened: required for mpi recovery
      cfg.cancel_at_ns = cancel_at;
      ws::RecoveryBoard* board = nullptr;
      int pending = -1;
      cfg.check_attach = [&](ws::SharedState*, ws::RecoveryBoard* b) {
        board = b;
      };
      cfg.check_detach = [&] {
        pending = 0;
        if (board == nullptr) return;
        for (int w = 0; w < board->nranks(); ++w)
          for (int pr = 0; pr < board->nranks(); ++pr)
            if (w != pr && board->rec(w, pr).state.load(
                               std::memory_order_acquire) ==
                               ws::TransferRec::kPending)
              ++pending;
      };
      const auto r = ws::run_search(eng, rcfg, prob, cfg);
      check_invariant(r, ws::algo_label(a));
      EXPECT_EQ(r.agg.faults.crashes, 1u) << ws::algo_label(a);
      EXPECT_GT(r.agg.total_cancels, 0u)
          << ws::algo_label(a) << " cancel_at=" << cancel_at;
      // check_detach ran and found no stranded transfer record.
      EXPECT_EQ(pending, 0) << ws::algo_label(a) << " cancel_at=" << cancel_at;
    }
  }
}

// ---------------------------------------------------------------------------
// Cancellation while ranks wait inside the termination protocol: a deadline
// landing in the endgame (most ranks already idle in the barrier / on the
// token ring) must neither hang nor disturb the exactness of what was
// already visited.

TEST(Cancel, LateDeadlineInsideTerminationWait) {
  const uts::Params p = uts::test_small(4);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (ws::Algo a : ws::kAllAlgosExtended) {
    const ws::WsConfig base = ws::WsConfig::for_algo(a, 2);
    const auto clean = ws::run_search(eng, dist_cfg(8, 3), prob, base);
    const std::uint64_t span = makespan_ns(clean);
    // 2% steps through the endgame: many of these land while some ranks
    // already sit in the barrier (upc family) or hold the token (mpi/push).
    for (int pct = 90; pct < 100; pct += 2) {
      ws::WsConfig cfg = base;
      cfg.cancel_at_ns = span * static_cast<std::uint64_t>(pct) / 100;
      const auto r = ws::run_search(eng, dist_cfg(8, 3), prob, cfg);
      check_invariant(r, ws::algo_label(a));
      EXPECT_LE(r.agg.total_nodes, want) << ws::algo_label(a);
    }
  }
}

// ---------------------------------------------------------------------------
// Real threads: timing is nondeterministic, but the accounting invariant is
// schedule-independent and must hold for any cancel instant.

TEST(Cancel, ThreadsEngineInvariantHolds) {
  const uts::Params p = uts::test_small(5);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine eng;
  for (ws::Algo a : ws::kAllAlgosExtended) {
    for (std::uint64_t cancel_at : {1ull, 50'000ull, 400'000ull}) {
      ws::WsConfig cfg = ws::WsConfig::for_algo(a, 2);
      cfg.cancel_at_ns = cancel_at;
      const auto r = ws::run_search(eng, dist_cfg(4, 9), prob, cfg);
      check_invariant(r, ws::algo_label(a));
      EXPECT_LE(r.agg.total_nodes, want) << ws::algo_label(a);
    }
  }
}

}  // namespace
