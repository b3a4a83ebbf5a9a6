// Fault-injection tests: every algorithm must keep the UTS exact-count
// invariant under every fault plan, an all-zero plan must leave runs
// byte-identical to runs with no plan at all, the hardened protocols'
// recovery paths must actually fire, and a forced hang must be caught by
// the progress watchdog with a structured report.
#include <gtest/gtest.h>

#include <string>

#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
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
  return rcfg;
}

ws::WsConfig hardened_cfg(ws::Algo a, int chunk,
                          std::uint64_t timeout_ns = 30'000) {
  ws::WsConfig cfg = ws::WsConfig::for_algo(a, chunk);
  cfg.steal_timeout_ns = timeout_ns;  // default: 10x the modeled 3 us RTT
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultInjector unit behavior.

TEST(FaultInjector, ZeroPlanInjectsNothing) {
  pgas::FaultInjector fi(pgas::FaultPlan{}, 42, 3);
  for (std::uint64_t t = 0; t < 10'000'000; t += 997) {
    EXPECT_EQ(fi.stall_due(t), 0u);
    EXPECT_EQ(fi.spiked(1234, t), 1234u);
    EXPECT_FALSE(fi.drop_message(t));
    EXPECT_EQ(fi.duplicate_delay(1000, t), 0u);
  }
  EXPECT_EQ(fi.counters().stalls, 0u);
  EXPECT_TRUE(fi.events().empty());
}

TEST(FaultInjector, DeterministicPerSeedAndRank) {
  pgas::FaultPlan plan;
  plan.stall_ns = 10'000;
  plan.stall_period_ns = 50'000;
  plan.spike_prob = 0.3;
  plan.drop_prob = 0.2;
  plan.dup_prob = 0.2;

  pgas::FaultInjector a(plan, 7, 2), b(plan, 7, 2), c(plan, 7, 3);
  bool differs = false;
  for (std::uint64_t t = 0; t < 2'000'000; t += 1013) {
    EXPECT_EQ(a.stall_due(t), b.stall_due(t));
    EXPECT_EQ(a.spiked(5000, t), b.spiked(5000, t));
    EXPECT_EQ(a.drop_message(t), b.drop_message(t));
    EXPECT_EQ(a.duplicate_delay(3000, t), b.duplicate_delay(3000, t));
    if (c.spiked(5000, t) != 0) {  // drive c's stream for the rank check
    }
  }
  EXPECT_GT(a.counters().stalls, 0u);
  EXPECT_GT(a.counters().spikes, 0u);
  EXPECT_GT(a.counters().dropped, 0u);
  EXPECT_EQ(a.counters().stalls, b.counters().stalls);
  // Different rank, same seed: decorrelated stream.
  differs = a.counters().spikes != c.counters().spikes ||
            a.counters().stall_ns != c.counters().stall_ns;
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, StallRankTargeting) {
  pgas::FaultPlan plan;
  plan.stall_ns = 1000;
  plan.stall_period_ns = 1000;
  plan.stall_rank = 2;
  pgas::FaultInjector hit(plan, 1, 2), miss(plan, 1, 1);
  EXPECT_GT(hit.stall_due(1'000'000), 0u);
  EXPECT_EQ(miss.stall_due(1'000'000), 0u);
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: an attached all-zero plan (plus an armed watchdog)
// must leave the run byte-identical — elapsed virtual time, scheduler
// switches, and steal counts all exactly equal.

TEST(ZeroFaultOverhead, ByteIdenticalRunsForAllAlgos) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  for (ws::Algo a : ws::kAllAlgos) {
    pgas::RunConfig base = dist_cfg(8, 11);
    base.net.jitter_frac = 0.5;  // exercise the rng path of jittered()
    pgas::RunConfig faulty = base;
    faulty.faults = pgas::FaultPlan{};      // explicit all-zero plan
    faulty.watchdog_ns = 1'000'000'000'000ull;  // armed but never tripping

    const auto r0 = ws::run_algo(eng, base, a, prob, 2);
    const auto r1 = ws::run_algo(eng, faulty, a, prob, 2);
    EXPECT_EQ(r0.run.elapsed_s, r1.run.elapsed_s) << ws::algo_label(a);
    EXPECT_EQ(r0.run.switches, r1.run.switches) << ws::algo_label(a);
    EXPECT_EQ(r0.agg.total_steals, r1.agg.total_steals) << ws::algo_label(a);
    EXPECT_EQ(r0.agg.total_probes, r1.agg.total_probes) << ws::algo_label(a);
    EXPECT_EQ(r1.agg.faults.stalls, 0u);
    EXPECT_EQ(r1.agg.total_steal_timeouts, 0u);
  }
}

// ---------------------------------------------------------------------------
// Exact counts under each fault class, every algorithm, >= 3 seeds.

TEST(FaultPlans, ExactCountsUnderTransientStalls) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  // The whole search takes ~150 us of virtual time on 8 ranks, so the
  // plan must operate on that scale: ~100 us freezes every ~20 us.
  pgas::FaultPlan plan;
  plan.stall_ns = 100'000;
  plan.stall_period_ns = 20'000;
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = plan;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      EXPECT_GT(r.agg.faults.stalls, 0u) << ws::algo_label(a);
    }
  }
}

TEST(FaultPlans, ExactCountsWhenLockHolderStalls) {
  // Frequent short stalls on one rank of the *locked* algorithms: stalls
  // land at charge/yield points inside LockGuard critical sections, so the
  // victim freezes while holding its stack lock (and the rank-0 barrier
  // lock) and every contender must ride it out.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.stall_ns = 300'000;
  plan.stall_period_ns = 20'000;  // stall at nearly every interaction window
  plan.stall_rank = 1;
  const ws::Algo locked[] = {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm,
                             ws::Algo::kUpcTermRapdif};
  for (ws::Algo a : locked) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = plan;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      EXPECT_GT(r.per_thread[1].c.faults.stalls, 0u) << ws::algo_label(a);
    }
  }
}

TEST(FaultPlans, ExactCountsUnderLatencySpikes) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.spike_prob = 0.05;
  plan.spike_mult = 20.0;  // heavy tail: occasional 20x+ remote ops
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = plan;
      const auto r = ws::run_algo(eng, rcfg, a, prob, 2);
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
      EXPECT_GT(r.agg.faults.spikes, 0u) << ws::algo_label(a);
    }
  }
}

TEST(FaultPlans, MpiWsExactCountsUnderDropAndDup) {
  // Message drop/duplication targets the two-sided layer; the hardened
  // mpi-ws (sequence numbers + retransmit + duplicate suppression +
  // token rounds) must still count every node exactly once.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.drop_prob = 0.10;
  plan.dup_prob = 0.10;
  std::uint64_t recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    pgas::RunConfig rcfg = dist_cfg(8, seed);
    rcfg.faults = plan;
    rcfg.watchdog_ns = 50'000'000'000ull;  // backstop: fail fast, not at 1e13
    const auto r = ws::run_search(eng, rcfg, prob,
                                  hardened_cfg(ws::Algo::kMpiWs, 2));
    EXPECT_EQ(r.total_nodes(), want) << "seed " << seed;
    EXPECT_GT(r.agg.faults.dropped + r.agg.faults.duplicated, 0u);
    recoveries += r.agg.total_retransmits + r.agg.total_dups_suppressed;
  }
  // Drops force retransmissions and dups force suppression somewhere
  // across these runs — the recovery machinery demonstrably engaged.
  EXPECT_GT(recoveries, 0u);
}

TEST(FaultPlans, MpiWsTokenRingEndsUnderLossAtScale) {
  // One copy per token hop lets a round cross 128 ranks under 5% loss
  // with probability 0.95^128 ~ 0.0014, so the leader regenerated rounds
  // for hundreds of virtual ms (185 ms at 64 ranks). Copied hops end this
  // run near 2 ms; 10 ms of virtual time is the limit.
  uts::Params p;  // uts_cli -t 1 -b 64 -q 0.45 -m 2 -r 1: 491 nodes
  p.type = uts::TreeType::kBinomial;
  p.b0 = 64;
  p.q = 0.45;
  p.m = 2;
  p.root_seed = 1;
  const ws::UtsProblem prob(p);
  pgas::RunConfig rcfg = dist_cfg(128, 1);
  rcfg.faults.drop_prob = 0.05;
  rcfg.faults.dup_prob = 0.05;
  rcfg.vt_limit_ns = 10'000'000;
  pgas::SimEngine eng;
  const auto r =
      ws::run_search(eng, rcfg, prob, hardened_cfg(ws::Algo::kMpiWs, 4));
  EXPECT_EQ(r.total_nodes(), uts::search_sequential(p)->nodes);
  EXPECT_GT(r.agg.faults.dropped, 0u);
}

TEST(FaultPlans, TokenCopiesCountApartFromWireDuplicates) {
  // Under drops each hardened token hop goes out in 16 copies; receivers
  // drop copies past the first by round into copies_dropped, and only the
  // rest into dups_suppressed. Without drops a hop is one copy.
  const uts::Params p = uts::test_small(1);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  for (const bool drops : {true, false}) {
    pgas::RunConfig rcfg = dist_cfg(16, 3);
    rcfg.faults.drop_prob = drops ? 0.05 : 0.0;
    rcfg.faults.dup_prob = drops ? 0.0 : 0.2;
    rcfg.vt_limit_ns = 10'000'000;
    const auto r =
        ws::run_search(eng, rcfg, prob, hardened_cfg(ws::Algo::kMpiWs, 4));
    EXPECT_EQ(r.total_nodes(), uts::search_sequential(p)->nodes);
    if (drops) {
      EXPECT_GT(r.agg.total_copies_dropped, 10 * r.agg.total_dups_suppressed)
          << r.agg.summary();
    } else {
      EXPECT_EQ(r.agg.total_copies_dropped, 0u);
      EXPECT_GT(r.agg.total_dups_suppressed, 0u);
    }
  }
}

TEST(FaultPlans, HardenedDistmemSurvivesStallsAndTimesOut) {
  // Stall-prone victims + hardened thieves: thieves must exercise the
  // timeout/withdraw/backoff path yet never lose or double-count a chunk.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.stall_ns = 500'000;  // 0.5 ms freezes: ~17x the 30 us thief timeout
  plan.stall_period_ns = 20'000;
  std::uint64_t timeouts = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    pgas::RunConfig rcfg = dist_cfg(8, seed);
    rcfg.faults = plan;
    const auto r = ws::run_search(eng, rcfg, prob,
                                  hardened_cfg(ws::Algo::kUpcDistMem, 2));
    EXPECT_EQ(r.total_nodes(), want) << "seed " << seed;
    timeouts += r.agg.total_steal_timeouts;
  }
  EXPECT_GT(timeouts, 0u) << "timeout path never exercised";
}

TEST(FaultPlans, HardenedProtocolsExactWithoutFaults) {
  // Hardening alone (no faults) must not break anything either.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (ws::Algo a : {ws::Algo::kUpcDistMem, ws::Algo::kMpiWs}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto r = ws::run_search(eng, dist_cfg(8, seed), prob,
                                    hardened_cfg(a, 2));
      EXPECT_EQ(r.total_nodes(), want) << ws::algo_label(a) << " seed "
                                       << seed;
    }
  }
}

TEST(FaultPlans, RunsAreDeterministicUnderFaults) {
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.stall_ns = 1'000'000;
  plan.stall_period_ns = 400'000;
  plan.spike_prob = 0.05;
  pgas::RunConfig rcfg = dist_cfg(8, 5);
  rcfg.faults = plan;
  const auto a = ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2);
  const auto b = ws::run_algo(eng, rcfg, ws::Algo::kUpcDistMem, prob, 2);
  EXPECT_EQ(a.run.elapsed_s, b.run.elapsed_s);
  EXPECT_EQ(a.run.switches, b.run.switches);
  EXPECT_EQ(a.agg.total_steals, b.agg.total_steals);
  EXPECT_EQ(a.agg.faults.stalls, b.agg.faults.stalls);

  pgas::FaultPlan mplan;
  mplan.drop_prob = 0.1;
  mplan.dup_prob = 0.1;
  pgas::RunConfig mcfg = dist_cfg(6, 5);
  mcfg.faults = mplan;
  const auto m1 = ws::run_search(eng, mcfg, prob,
                                 hardened_cfg(ws::Algo::kMpiWs, 2));
  const auto m2 = ws::run_search(eng, mcfg, prob,
                                 hardened_cfg(ws::Algo::kMpiWs, 2));
  EXPECT_EQ(m1.run.elapsed_s, m2.run.elapsed_s);
  EXPECT_EQ(m1.agg.total_retransmits, m2.agg.total_retransmits);
  EXPECT_EQ(m1.agg.faults.dropped, m2.agg.faults.dropped);
}

TEST(FaultPlans, TraceRecordsFaultAndRecoveryEvents) {
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.stall_ns = 1'000'000;
  plan.stall_period_ns = 400'000;
  plan.spike_prob = 0.05;
  pgas::RunConfig rcfg = dist_cfg(8, 2);
  rcfg.faults = plan;
  trace::Trace tr(rcfg.nranks);
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
  cfg.trace = &tr;
  ws::run_search(eng, rcfg, prob, cfg);
  std::size_t stalls = 0, spikes = 0;
  for (const trace::Event& e : tr.merged()) {
    if (e.kind == trace::Kind::kStall) ++stalls;
    if (e.kind == trace::Kind::kSpike) ++spikes;
  }
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(spikes, 0u);

  pgas::FaultPlan mplan;
  mplan.drop_prob = 0.15;
  mplan.dup_prob = 0.15;
  pgas::RunConfig mcfg = dist_cfg(6, 2);
  mcfg.faults = mplan;
  trace::Trace mtr(mcfg.nranks);
  ws::WsConfig mc = hardened_cfg(ws::Algo::kMpiWs, 2);
  mc.trace = &mtr;
  ws::run_search(eng, mcfg, prob, mc);
  std::size_t drops = 0, dups = 0;
  for (const trace::Event& e : mtr.merged()) {
    if (e.kind == trace::Kind::kMsgDrop) ++drops;
    if (e.kind == trace::Kind::kMsgDup) ++dups;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog and enriched abort diagnostics.

TEST(Watchdog, ForcedHangProducesStructuredReport) {
  // Rank 0 freezes almost immediately for 10 virtual seconds while holding
  // the root's work; with timeouts disabled nobody can recover, and with
  // the legacy 1e13 ns guard the test would grind for ages. The watchdog
  // must fire first with a usable report.
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::RunConfig rcfg = dist_cfg(4, 1);
  pgas::FaultPlan plan;
  plan.stall_ns = 10'000'000'000ull;  // 10 s freeze
  plan.stall_period_ns = 1'000;       // triggers at the first interaction
  plan.stall_rank = 0;
  rcfg.faults = plan;
  rcfg.watchdog_ns = 20'000'000;  // 20 ms without a node visit == hang

  bool caught = false;
  try {
    ws::run_search(eng, rcfg, prob,
                   ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2));
  } catch (const sim::HangDetected& e) {
    caught = true;
    EXPECT_EQ(e.window_ns, rcfg.watchdog_ns);
    EXPECT_GT(e.stuck_at_ns, e.last_progress_ns);
    EXPECT_GT(e.stuck_at_ns - e.last_progress_ns, rcfg.watchdog_ns);
    const std::string what = e.what();
    EXPECT_NE(what.find("progress watchdog"), std::string::npos);
    EXPECT_NE(what.find("per-task state"), std::string::npos);
    // The ws driver's default reporter: per-rank protocol snapshot.
    EXPECT_NE(what.find("shared-state snapshot"), std::string::npos);
    EXPECT_NE(what.find("steal_request"), std::string::npos);
  }
  EXPECT_TRUE(caught) << "expected sim::HangDetected";
}

TEST(Watchdog, HardenedRunWithSameStallsSurvives) {
  // The same stall profile as above — but transient (the rank comes back)
  // and with thief timeouts enabled, the search completes exactly.
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::RunConfig rcfg = dist_cfg(4, 1);
  pgas::FaultPlan plan;
  plan.stall_ns = 200'000;
  plan.stall_period_ns = 30'000;
  plan.stall_rank = 0;
  rcfg.faults = plan;
  rcfg.watchdog_ns = 50'000'000'000ull;
  const auto r = ws::run_search(eng, rcfg, prob,
                                hardened_cfg(ws::Algo::kUpcDistMem, 2));
  EXPECT_EQ(r.total_nodes(), want);
}

TEST(Watchdog, TimeLimitExceededCarriesContext) {
  const ws::UtsProblem prob(uts::test_small(6));
  pgas::SimEngine eng;
  pgas::RunConfig rcfg = dist_cfg(4, 1);
  rcfg.vt_limit_ns = 100'000;  // absurdly small: trips immediately
  bool caught = false;
  try {
    ws::run_algo(eng, rcfg, ws::Algo::kUpcTerm, prob, 2);
  } catch (const sim::TimeLimitExceeded& e) {
    caught = true;
    EXPECT_GE(e.task, 0);
    EXPECT_LT(e.task, rcfg.nranks);
    EXPECT_EQ(e.limit_ns, rcfg.vt_limit_ns);
    EXPECT_GT(e.clock_ns, e.limit_ns);
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
  EXPECT_TRUE(caught) << "expected sim::TimeLimitExceeded";
}

}  // namespace
