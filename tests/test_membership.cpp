// Elastic-membership tests: FaultPlan round-trips through the replay-file
// format with drains/joins/partitions intact, the injector fires each
// membership event exactly once, and runs under planned leaves, mid-run
// joins, and correlated partitions keep the UTS exact-count invariant with
// every fired event counted exactly once in run stats.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/replay.hpp"
#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
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

// ---------------------------------------------------------------------------
// Replay-file round-trip: the membership keys survive save -> load exactly.

TEST(MembershipReplay, DrainJoinPartitionRoundTrip) {
  check::ReplayFile rf;
  rf.spec.algo = ws::Algo::kUpcTermRapdif;
  rf.spec.nranks = 6;
  rf.spec.chunk = 3;
  rf.spec.net = "smp4";
  rf.spec.tree = uts::test_small(4);
  rf.spec.run_seed = 9;
  rf.spec.faults.crashes.push_back(
      {1, 118'000, pgas::CrashSpec::Where::kAnywhere});
  rf.spec.faults.crash_detect_ns = 5'000;
  rf.spec.faults.drains.push_back({3, 24'000});
  rf.spec.faults.joins.push_back({2, 68'000});
  rf.spec.faults.joins.push_back({5, 70'500});
  rf.spec.faults.partitions.push_back({0b010110u, 49'000, 116'000});
  rf.spec.faults.partitions.push_back({0b000011u, 120'000, 130'000});
  rf.oracle = "membership-safety";
  rf.trail = {0, 2, 0, 1};

  std::stringstream ss;
  check::write_replay(ss, rf);
  const check::ReplayFile rt = check::read_replay(ss);

  ASSERT_EQ(rt.spec.faults.drains.size(), 1u);
  EXPECT_EQ(rt.spec.faults.drains[0].rank, 3);
  EXPECT_EQ(rt.spec.faults.drains[0].at_ns, 24'000u);
  ASSERT_EQ(rt.spec.faults.joins.size(), 2u);
  EXPECT_EQ(rt.spec.faults.joins[0].rank, 2);
  EXPECT_EQ(rt.spec.faults.joins[0].at_ns, 68'000u);
  EXPECT_EQ(rt.spec.faults.joins[1].rank, 5);
  EXPECT_EQ(rt.spec.faults.joins[1].at_ns, 70'500u);
  ASSERT_EQ(rt.spec.faults.partitions.size(), 2u);
  EXPECT_EQ(rt.spec.faults.partitions[0].group_mask, 0b010110u);
  EXPECT_EQ(rt.spec.faults.partitions[0].start_ns, 49'000u);
  EXPECT_EQ(rt.spec.faults.partitions[0].heal_ns, 116'000u);
  EXPECT_EQ(rt.spec.faults.partitions[1].group_mask, 0b000011u);

  // The serialization is canonical: re-writing the parsed file reproduces
  // the original byte-for-byte (covers every remaining field at once).
  std::stringstream again;
  check::write_replay(again, rt);
  EXPECT_EQ(ss.str(), again.str());
}

// ---------------------------------------------------------------------------
// Injector unit behavior: each membership event fires exactly once, only on
// its target rank, and is tallied exactly once.

TEST(MembershipInjector, DrainFiresExactlyOnceOnTargetRank) {
  pgas::FaultPlan plan;
  plan.drains.push_back({2, 5'000});
  pgas::FaultInjector hit(plan, 1, 2), miss(plan, 1, 3);
  EXPECT_FALSE(hit.drain_due(4'999));
  EXPECT_TRUE(hit.drain_due(5'000));
  EXPECT_FALSE(hit.drain_due(6'000));  // armed once, fires once
  EXPECT_EQ(hit.counters().drains, 1u);
  ASSERT_EQ(hit.events().size(), 1u);
  EXPECT_EQ(hit.events()[0].kind, trace::Kind::kDrain);
  EXPECT_EQ(hit.events()[0].t_ns, 5'000u);
  EXPECT_FALSE(miss.drain_due(1'000'000));
  EXPECT_EQ(miss.counters().drains, 0u);
}

TEST(MembershipInjector, JoinTargetsAndCountsOnce) {
  pgas::FaultPlan plan;
  plan.joins.push_back({4, 40'000});
  pgas::FaultInjector joiner(plan, 1, 4), founder(plan, 1, 0);
  EXPECT_EQ(joiner.join_at_ns(), 40'000u);
  EXPECT_EQ(founder.join_at_ns(), 0u);  // founding member, present from t=0
  joiner.note_joined(40'200);
  EXPECT_EQ(joiner.counters().joins, 1u);
  ASSERT_EQ(joiner.events().size(), 1u);
  EXPECT_EQ(joiner.events()[0].kind, trace::Kind::kJoin);
  EXPECT_EQ(founder.counters().joins, 0u);
}

TEST(MembershipInjector, PartitionDelaysCrossCutOpsUntilHeal) {
  pgas::FaultPlan plan;
  plan.partitions.push_back({0b0110u, 10'000, 50'000});  // {1,2} | {0,3}
  pgas::FaultInjector fi(plan, 1, 1);
  EXPECT_EQ(fi.partition_extra_ns(2, 20'000), 0u);  // same side
  EXPECT_EQ(fi.partition_extra_ns(0, 9'999), 0u);   // before the cut
  EXPECT_EQ(fi.partition_extra_ns(0, 50'000), 0u);  // already healed
  EXPECT_EQ(fi.partition_extra_ns(0, 20'000), 30'000u);  // delayed to heal
  EXPECT_EQ(fi.counters().partition_delays, 1u);  // one event per delayed op
  EXPECT_EQ(fi.counters().partition_delay_ns, 30'000u);
}

// ---------------------------------------------------------------------------
// End-to-end: drain + join + partition in one plan, every algorithm, three
// seeds. Exact node counts, and every fired event lands in the run stats
// exactly once (aggregate == per-rank sum == the plan's targets).

TEST(Membership, ExactCountsUnderDrainJoinPartition) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  pgas::FaultPlan plan;
  plan.drains.push_back({3, 10'000});
  plan.joins.push_back({7, 40'000});
  plan.partitions.push_back({0x0Fu, 20'000, 60'000});  // {0-3} | {4-7}
  std::uint64_t delays = 0;
  for (ws::Algo a : ws::kAllAlgos) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      pgas::RunConfig rcfg = dist_cfg(8, seed);
      rcfg.faults = plan;
      rcfg.watchdog_ns = 50'000'000'000ull;  // hang backstop
      ws::WsConfig cfg = ws::WsConfig::for_algo(a, 2);
      // mpi-ws membership rides the hardened protocol's recovery machinery;
      // an unhardened run ignores its drain plan rather than losing work.
      if (a == ws::Algo::kMpiWs) cfg.steal_timeout_ns = 30'000;
      const auto r = ws::run_search(eng, rcfg, prob, cfg);
      EXPECT_EQ(r.total_nodes(), want)
          << ws::algo_label(a) << " seed " << seed;
      // The drain and the join each fire exactly once, on their own rank.
      EXPECT_EQ(r.agg.faults.drains, 1u) << ws::algo_label(a);
      EXPECT_EQ(r.per_thread[3].c.faults.drains, 1u) << ws::algo_label(a);
      EXPECT_EQ(r.agg.faults.joins, 1u) << ws::algo_label(a);
      EXPECT_EQ(r.per_thread[7].c.faults.joins, 1u) << ws::algo_label(a);
      // Aggregates are exactly the per-rank sums (no event lost or
      // double-merged on the way into RunStats).
      std::uint64_t drains = 0, joins = 0, pd = 0, pd_ns = 0;
      for (const auto& t : r.per_thread) {
        drains += t.c.faults.drains;
        joins += t.c.faults.joins;
        pd += t.c.faults.partition_delays;
        pd_ns += t.c.faults.partition_delay_ns;
      }
      EXPECT_EQ(drains, r.agg.faults.drains);
      EXPECT_EQ(joins, r.agg.faults.joins);
      EXPECT_EQ(pd, r.agg.faults.partition_delays);
      EXPECT_EQ(pd_ns, r.agg.faults.partition_delay_ns);
      // Every delayed op added positive delay, and vice versa.
      EXPECT_EQ(pd > 0, pd_ns > 0) << ws::algo_label(a);
      delays += pd;
    }
  }
  // A 40 us bipartition mid-search must have delayed *something* across
  // these 18 runs, or the injection hook is dead.
  EXPECT_GT(delays, 0u);
}

// ---------------------------------------------------------------------------
// Trace rows of the membership faults, which no golden covers: the plan of
// `uts_cli <tree_a> --drain 3@40000 --join 5@20000 --partition
// 15:30000:60000` writes one drain, join and partition_delay row per
// tallied event, and the partition rows carry the tallied delay.

TEST(Membership, TraceRowsMatchTallies) {
  uts::Params p;  // the golden suite's tree_a: -t 1 -b 64 -q 0.45 -m 2 -r 1
  p.type = uts::TreeType::kBinomial;
  p.b0 = 64;
  p.q = 0.45;
  p.m = 2;
  p.root_seed = 1;
  const ws::UtsProblem prob(p);
  pgas::RunConfig rcfg = dist_cfg(8, 1);
  rcfg.faults.drains.push_back({3, 40'000});
  rcfg.faults.joins.push_back({5, 20'000});
  rcfg.faults.partitions.push_back({15, 30'000, 60'000});
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 4);
  cfg.steal_timeout_ns = 30'000;  // uts_cli's default under a fault plan
  trace::Trace tr(8);
  cfg.trace = &tr;
  pgas::SimEngine eng;
  const auto r = ws::run_search(eng, rcfg, prob, cfg);
  EXPECT_EQ(r.total_nodes(), uts::search_sequential(p)->nodes);

  std::uint64_t drains = 0, joins = 0, delays = 0, delay_ns = 0;
  for (const trace::Event& e : tr.merged()) {
    if (e.kind == trace::Kind::kDrain) ++drains;
    if (e.kind == trace::Kind::kJoin) ++joins;
    if (e.kind != trace::Kind::kPartitionDelay) continue;
    ++delays;
    delay_ns += static_cast<std::uint64_t>(e.arg1);
  }
  EXPECT_EQ(drains, r.agg.faults.drains);
  EXPECT_EQ(joins, r.agg.faults.joins);
  EXPECT_EQ(delays, r.agg.faults.partition_delays);
  EXPECT_EQ(delay_ns, r.agg.faults.partition_delay_ns);
  // uts_cli prints the same run as membership[drains=1 joins=1
  // partition_delays=5 partition_delay_ns=143329].
  EXPECT_EQ(drains, 1u);
  EXPECT_EQ(joins, 1u);
  EXPECT_EQ(delays, 5u);
  EXPECT_EQ(delay_ns, 143'329u);
}

// ---------------------------------------------------------------------------
// A work-push plan may drain rank 0, the token ring's leader. The leaver
// keeps the leader rules in its drain loops, so the run still ends with
// the exact count instead of circling the token with nobody to declare.

TEST(Membership, WorkPushLeaderDrainEnds) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::SimEngine eng;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    pgas::RunConfig rcfg = dist_cfg(8, seed);
    rcfg.faults.drains.push_back({0, 20'000});
    rcfg.watchdog_ns = 20'000'000;  // hang backstop
    const auto r = ws::run_search(
        eng, rcfg, prob, ws::WsConfig::for_algo(ws::Algo::kWorkPush, 4));
    EXPECT_EQ(r.total_nodes(), want) << "seed " << seed;
    EXPECT_EQ(r.per_thread[0].c.faults.drains, 1u) << "seed " << seed;
  }
}

}  // namespace
