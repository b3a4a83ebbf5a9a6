// PsimEngine correctness: the parallel conservative-PDES engine must be
// *indistinguishable* from the sequential SimEngine — identical node
// counts, identical per-rank stats, identical simulated makespan, and
// identical scheduler switch counts — for every seed, worker count, and
// fault plan. Anything less means the window protocol leaked an event
// across a lookahead horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bnb/knapsack.hpp"
#include "bnb/maxclique.hpp"
#include "check/strategies.hpp"
#include "obs/observer.hpp"
#include "pgas/sim_engine.hpp"
#include "psim/engine.hpp"
#include "sim/scheduler.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

/// Field-for-field comparison of a psim run against the sequential
/// reference. elapsed_s is derived from the simulated makespan in ns, and
/// switches count fiber resumes — both are exact integers under the hood,
/// so EQ (not NEAR) is the right check.
void expect_same_run(const ws::SearchResult& sim, const ws::SearchResult& par,
                     const std::string& what) {
  EXPECT_EQ(sim.agg.total_nodes, par.agg.total_nodes) << what;
  EXPECT_EQ(sim.agg.total_leaves, par.agg.total_leaves) << what;
  EXPECT_EQ(sim.agg.total_steals, par.agg.total_steals) << what;
  EXPECT_EQ(sim.agg.total_probes, par.agg.total_probes) << what;
  EXPECT_EQ(sim.agg.total_releases, par.agg.total_releases) << what;
  EXPECT_EQ(sim.agg.total_failed_steals, par.agg.total_failed_steals) << what;
  EXPECT_EQ(sim.agg.faults.stalls, par.agg.faults.stalls) << what;
  EXPECT_EQ(sim.agg.faults.dropped, par.agg.faults.dropped)
      << what;
  EXPECT_EQ(sim.agg.faults.duplicated, par.agg.faults.duplicated)
      << what;
  EXPECT_EQ(sim.run.elapsed_s, par.run.elapsed_s) << what;
  EXPECT_EQ(sim.run.switches, par.run.switches) << what;
  ASSERT_EQ(sim.per_thread.size(), par.per_thread.size()) << what;
  for (std::size_t r = 0; r < sim.per_thread.size(); ++r) {
    EXPECT_EQ(sim.per_thread[r].c.nodes, par.per_thread[r].c.nodes)
        << what << " rank " << r;
    EXPECT_EQ(sim.per_thread[r].c.steals, par.per_thread[r].c.steals)
        << what << " rank " << r;
    EXPECT_EQ(sim.per_thread[r].c.probes, par.per_thread[r].c.probes)
        << what << " rank " << r;
  }
}

struct Shape {
  ws::Algo algo;
  int nranks;
  int chunk;
  std::uint64_t seed;
};

/// A shape on a hierarchical net of `tpn` ranks per SMP node.
struct HierShape {
  Shape shape;
  int tpn;
};

ws::SearchResult run_on(pgas::Engine& eng, const Shape& sh,
                        const pgas::NetModel& net, const uts::Params& tree,
                        const pgas::FaultPlan* faults = nullptr,
                        obs::Observer* ob = nullptr) {
  pgas::RunConfig rcfg;
  rcfg.nranks = sh.nranks;
  rcfg.net = net;
  rcfg.seed = sh.seed;
  if (faults != nullptr) rcfg.faults = *faults;
  const ws::UtsProblem prob(tree);
  ws::WsConfig cfg = ws::WsConfig::for_algo(sh.algo, sh.chunk);
  if (faults != nullptr) cfg.steal_timeout_ns = 30'000;
  cfg.obs = ob;
  return ws::run_search(eng, rcfg, prob, cfg);
}

/// Runs `sh` on SimEngine, checks it against the sequential traversal, and
/// expects psim at each worker count to match it.
void expect_identity(const Shape& sh, const pgas::NetModel& net,
                     const std::vector<int>& workers) {
  const uts::Params tree = uts::test_small(3);

  pgas::SimEngine seq;
  const ws::SearchResult ref = run_on(seq, sh, net, tree);
  const auto expect = uts::search_sequential(tree);
  ASSERT_TRUE(expect.has_value());
  ASSERT_EQ(ref.agg.total_nodes, expect->nodes);

  for (int w : workers) {
    psim::PsimEngine par(w);
    const ws::SearchResult got = run_on(par, sh, net, tree);
    expect_same_run(ref, got, "workers=" + std::to_string(w));
    if (w >= 2) {
      EXPECT_GT(par.last_stats().windows, 0u)
          << "workers=" << w << ": expected the parallel lane";
    }
  }
}

std::string shape_label(const Shape& sh) {
  std::string s = ws::algo_label(sh.algo);
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s + "_r" + std::to_string(sh.nranks) + "_k" +
         std::to_string(sh.chunk) + "_s" + std::to_string(sh.seed);
}

class PsimIdentity : public testing::TestWithParam<Shape> {};

std::string shape_name(const testing::TestParamInfo<Shape>& info) {
  return shape_label(info.param);
}

TEST_P(PsimIdentity, MatchesSimEngineAcrossWorkerCounts) {
  expect_identity(GetParam(), pgas::NetModel::distributed(), {1, 2, 3, 4});
}

INSTANTIATE_TEST_SUITE_P(
    MediatedAlgos, PsimIdentity,
    testing::Values(
        // Every protocol family at shapes where ranks don't divide evenly
        // into shards: token termination (mpi-ws, work-push), request/
        // response + probe barrier (upc-distmem), and the locked family,
        // whose lock words and victim-stack bookkeeping are mediated ops
        // (upc-sharedmem with the cancelable barrier, upc-term and
        // upc-term-rapdif with the probe barrier).
        Shape{ws::Algo::kMpiWs, 8, 4, 11}, Shape{ws::Algo::kMpiWs, 7, 2, 5},
        Shape{ws::Algo::kMpiWs, 12, 1, 23},
        Shape{ws::Algo::kWorkPush, 8, 4, 11},
        Shape{ws::Algo::kWorkPush, 6, 2, 7},
        // The token family at perfbench's scale, where most ranks wait
        // idle and their waits run ahead of other ranks' slices.
        Shape{ws::Algo::kMpiWs, 64, 4, 11},
        Shape{ws::Algo::kMpiWs, 128, 2, 5},
        Shape{ws::Algo::kWorkPush, 64, 2, 7},
        Shape{ws::Algo::kWorkPush, 128, 4, 11},
        Shape{ws::Algo::kUpcDistMem, 8, 4, 11},
        Shape{ws::Algo::kUpcDistMem, 9, 3, 2},
        Shape{ws::Algo::kUpcSharedMem, 7, 2, 5},
        Shape{ws::Algo::kUpcSharedMem, 10, 4, 11},
        Shape{ws::Algo::kUpcTerm, 9, 3, 2},
        Shape{ws::Algo::kUpcTerm, 11, 2, 23},
        Shape{ws::Algo::kUpcTermRapdif, 7, 4, 11},
        Shape{ws::Algo::kUpcTermRapdif, 10, 2, 3}),
    shape_name);

class PsimHierIdentity : public testing::TestWithParam<HierShape> {};

std::string hier_shape_name(const testing::TestParamInfo<HierShape>& info) {
  return shape_label(info.param.shape) + "_hier" +
         std::to_string(info.param.tpn);
}

TEST_P(PsimHierIdentity, MatchesSimEngineAcrossWorkerCounts) {
  // On a hierarchical net only splits that keep SMP nodes whole run
  // sharded; each such shard holds node-mates.
  const HierShape& hs = GetParam();
  expect_identity(hs.shape, pgas::NetModel::hierarchical(hs.tpn), {2, 4});
}

INSTANTIATE_TEST_SUITE_P(
    MediatedAlgos, PsimHierIdentity,
    testing::Values(
        // SMP nodes of 2 and 4 ranks: a parked rank must keep its node-mates,
        // whose on-node references run inside a slice, behind its key.
        HierShape{{ws::Algo::kUpcDistMem, 16, 4, 11}, 2},
        HierShape{{ws::Algo::kUpcDistMem, 16, 4, 11}, 4},
        HierShape{{ws::Algo::kUpcTerm, 16, 2, 23}, 2},
        HierShape{{ws::Algo::kUpcTerm, 16, 2, 23}, 4},
        HierShape{{ws::Algo::kMpiWs, 16, 4, 5}, 2},
        HierShape{{ws::Algo::kMpiWs, 16, 4, 5}, 4}),
    hier_shape_name);

TEST(Psim, OversubscribedWorkersMatchSimEngine) {
  // More shard workers than cores: waiters yield their core before they
  // block, and the run must still be the sequential engine's, bit for bit.
  const int hc = static_cast<int>(std::thread::hardware_concurrency());
  const int w = std::max(8, 2 * hc);
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  for (const ws::Algo algo : {ws::Algo::kUpcDistMem, ws::Algo::kMpiWs}) {
    const Shape sh{algo, w, 4, 11};
    pgas::SimEngine seq;
    psim::PsimEngine par(w);
    const ws::SearchResult ref = run_on(seq, sh, net, tree);
    const ws::SearchResult got = run_on(par, sh, net, tree);
    ASSERT_GT(par.last_stats().windows, 0u) << "expected the parallel path";
    expect_same_run(ref, got,
                    std::string(ws::algo_label(algo)) + " workers=" +
                        std::to_string(w));
  }
}

TEST(Psim, LadderAblationsMatchSimEngine) {
  // bench_paper's §4.2 ablation grid: the three mechanisms (termination,
  // steal amount, stack protocol) crossed, off-diagonal combinations
  // included. Each must run sharded and match SimEngine exactly.
  uts::Params tree = uts::test_small(3);
  tree.b0 = 200;
  tree.q = 0.48;  // ~5,000 nodes: hundreds of steals per config
  pgas::RunConfig rcfg;
  rcfg.nranks = 10;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 3;
  const ws::UtsProblem prob(tree);
  for (const std::string name :
       {"cb-one-locked", "cb-half-locked", "cb-half-lockless",
        "probe-one-locked", "probe-one-lockless", "probe-half-locked",
        "probe-half-lockless"}) {
    ws::WsConfig c;
    c.chunk_size = 5;
    c.termination = name[0] == 'c' ? ws::Termination::kCancelableBarrier
                                   : ws::Termination::kProbeBarrier;
    c.steal_amount = name.find("half") != std::string::npos
                         ? ws::StealAmount::kHalf
                         : ws::StealAmount::kOneChunk;
    c.protocol = name.find("lockless") != std::string::npos
                     ? ws::StackProtocol::kRequestResponse
                     : ws::StackProtocol::kLocked;
    pgas::SimEngine seq;
    const ws::SearchResult ref = ws::run_search(seq, rcfg, prob, c);
    for (const int workers : {2, 4}) {
      const std::string what = name + " workers=" + std::to_string(workers);
      psim::PsimEngine par(workers);
      const ws::SearchResult got = ws::run_search(par, rcfg, prob, c);
      EXPECT_GT(par.last_stats().windows, 0u)
          << what << ": expected the parallel lane";
      expect_same_run(ref, got, what);
    }
  }
}

TEST(Psim, BranchAndBoundMatchesSimEngine) {
  // Every rank's B&B expansion reads and improves the shared incumbent
  // outside Ctx, so psim cannot order those accesses across shards: the
  // problem says so (Problem::shares_state) and psim runs the serial lane.
  // Sharded, the incumbent raced and nodes, switches and makespan drifted
  // from SimEngine's run to run; the optimum never did.
  const bnb::MaxClique clique(bnb::make_random_graph(40, 0.85, 42));
  const bnb::Knapsack knapsack(bnb::make_knapsack_instance_strong(40, 77));
  pgas::RunConfig rcfg;
  rcfg.nranks = 16;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.work_ns_per_node = 200;
  rcfg.seed = 5;
  const std::pair<const char*, const bnb::BnbProblem*> problems[] = {
      {"max-clique", &clique}, {"knapsack", &knapsack}};
  for (const auto& [name, prob] : problems) {
    for (const ws::Algo algo : {ws::Algo::kUpcDistMem, ws::Algo::kMpiWs}) {
      const ws::WsConfig cfg = ws::WsConfig::for_algo(algo, 4);
      pgas::SimEngine seq;
      const bnb::BnbResult ref = bnb::solve(seq, rcfg, *prob, cfg);
      for (const int workers : {2, 4}) {
        const std::string what = std::string(name) + " " +
                                 ws::algo_label(algo) +
                                 " workers=" + std::to_string(workers);
        obs::Observer ob;
        ws::WsConfig observed = cfg;
        observed.obs = &ob;
        psim::PsimEngine par(workers);
        const bnb::BnbResult got = bnb::solve(par, rcfg, *prob, observed);
        EXPECT_EQ(ref.optimum, got.optimum) << what;
        EXPECT_EQ(ref.search.agg.total_nodes, got.search.agg.total_nodes)
            << what;
        EXPECT_EQ(ref.search.run.elapsed_s, got.search.run.elapsed_s) << what;
        EXPECT_EQ(ref.search.run.switches, got.search.run.switches) << what;
        EXPECT_EQ(ob.psim_fallbacks().count("unmediated"), 1u) << what;
      }
    }
  }
}

TEST(Psim, LockedFamilyAbortsTearDown) {
  // upc-sharedmem stopped mid-run on the parallel lane, with ranks parked
  // in shipped lock attempts and releases (the cancelable barrier's lock
  // lives at rank 0): the teardown must unwind every fiber, and the abort
  // must be SimEngine's.
  const ws::UtsProblem prob(uts::test_small(3));
  const ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcSharedMem, 2);
  pgas::RunConfig rcfg;
  rcfg.nranks = 16;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 7;
  {
    pgas::RunConfig rc = rcfg;
    rc.vt_limit_ns = 150'000;
    const auto limit_hit = [&](pgas::Engine& eng) {
      try {
        ws::run_search(eng, rc, prob, cfg);
      } catch (const sim::TimeLimitExceeded& t) {
        return std::make_pair(t.task, t.clock_ns);
      }
      ADD_FAILURE() << eng.name() << ": the run ended within the limit";
      return std::make_pair(-1, std::uint64_t{0});
    };
    pgas::SimEngine seq;
    psim::PsimEngine par(4);
    EXPECT_EQ(limit_hit(seq), limit_hit(par));
    EXPECT_GT(par.last_stats().windows, 0u);
  }
  {
    // Rank 3 freezes for good; the others spin on the locks it holds or
    // wait in the barrier for it until the watchdog fires.
    pgas::RunConfig rc = rcfg;
    rc.faults.stall_ns = 10'000'000'000;
    rc.faults.stall_period_ns = 100'000;
    rc.faults.stall_rank = 3;
    rc.watchdog_ns = 2'000'000;
    psim::PsimEngine par(4);
    EXPECT_THROW(ws::run_search(par, rc, prob, cfg), sim::HangDetected);
    EXPECT_GT(par.last_stats().windows, 0u);
  }
}

TEST(Psim, TimeLimitAbortNamesSimEnginesOffender) {
  // SimEngine throws at the first slice in (key, rank) order whose clock
  // passes the limit. psim must name the same rank and clock at every
  // worker count and in every repeat: the earliest crossing by slice key,
  // not by clock, and found even when a shard waits for a peer whose own
  // slice crossed, or runs past a parked rank whose continuation crosses.
  const ws::UtsProblem prob(uts::scaled_bench(5));
  struct Cell {
    ws::Algo algo;
    std::uint64_t limit_ns;
  };
  const Cell cells[] = {{ws::Algo::kMpiWs, 1'234'567},
                        {ws::Algo::kUpcDistMem, 777'777},
                        {ws::Algo::kUpcTerm, 1'234'567}};
  for (const Cell& c : cells) {
    pgas::RunConfig rc;
    rc.nranks = 128;
    rc.net = pgas::NetModel::distributed();
    rc.seed = 3;
    rc.vt_limit_ns = c.limit_ns;
    rc.fiber_stack_bytes = 96 * 1024;
    const ws::WsConfig cfg = ws::WsConfig::for_algo(c.algo, 10);
    const auto limit_hit = [&](pgas::Engine& eng) {
      try {
        ws::run_search(eng, rc, prob, cfg);
      } catch (const sim::TimeLimitExceeded& t) {
        return std::make_pair(t.task, t.clock_ns);
      }
      ADD_FAILURE() << eng.name() << ": the run ended within the limit";
      return std::make_pair(-1, std::uint64_t{0});
    };
    pgas::SimEngine seq;
    const auto want = limit_hit(seq);
    for (const int workers : {2, 4})
      for (int rep = 0; rep < 3; ++rep) {
        psim::PsimEngine par(workers);
        EXPECT_EQ(want, limit_hit(par))
            << ws::algo_label(c.algo) << " limit=" << c.limit_ns
            << " workers=" << workers << " repeat " << rep;
        EXPECT_GT(par.last_stats().windows, 0u);
      }
  }
}

TEST(Psim, FaultPlanIdentity) {
  // Transient faults (stalls, latency spikes, drops/dups on the two-sided
  // variant) only *add* virtual time, so the lookahead bound still holds
  // and the runs must stay byte-identical.
  const uts::Params tree = uts::test_small(5);
  const pgas::NetModel net = pgas::NetModel::distributed();

  pgas::FaultPlan fp;
  fp.stall_ns = 4'000;
  fp.stall_period_ns = 20'000;
  fp.stall_rank = -1;
  fp.drop_prob = 0.05;
  fp.dup_prob = 0.05;

  const Shape sh{ws::Algo::kMpiWs, 8, 4, 11};
  pgas::SimEngine seq;
  psim::PsimEngine par(4);
  const ws::SearchResult ref = run_on(seq, sh, net, tree, &fp);
  const ws::SearchResult got = run_on(par, sh, net, tree, &fp);
  expect_same_run(ref, got, "faulted mpi-ws");
  EXPECT_GT(ref.agg.faults.stalls, 0u);
}

TEST(Psim, LossyTokenRingAtScaleMatchesSimEngine) {
  // The 128-rank lossy mpi-ws run of
  // FaultPlans.MpiWsTokenRingEndsUnderLossAtScale, whose token hops go out
  // in copies, on four workers: same nodes, switches and virtual time.
  uts::Params tree;  // uts_cli -t 1 -b 64 -q 0.45 -m 2 -r 1: 491 nodes
  tree.type = uts::TreeType::kBinomial;
  tree.b0 = 64;
  tree.q = 0.45;
  tree.m = 2;
  tree.root_seed = 1;
  const ws::UtsProblem prob(tree);
  pgas::RunConfig rcfg;
  rcfg.nranks = 128;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 1;
  rcfg.faults.drop_prob = 0.05;
  rcfg.faults.dup_prob = 0.05;
  rcfg.vt_limit_ns = 10'000'000;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kMpiWs, 4);
  cfg.steal_timeout_ns = 30'000;

  pgas::SimEngine seq;
  psim::PsimEngine par(4);
  const ws::SearchResult ref = ws::run_search(seq, rcfg, prob, cfg);
  const ws::SearchResult got = ws::run_search(par, rcfg, prob, cfg);
  EXPECT_EQ(ref.agg.total_nodes, uts::search_sequential(tree)->nodes);
  expect_same_run(ref, got, "lossy mpi-ws r128");
  EXPECT_GT(par.last_stats().windows, 0u) << "expected the parallel lane";
}

TEST(Psim, PartitionPlanIdentity) {
  // A healed bipartition delays cross-group traffic; delay is additive so
  // the conservative window stays sound.
  const uts::Params tree = uts::test_small(2);
  const pgas::NetModel net = pgas::NetModel::distributed();

  pgas::FaultPlan fp;
  pgas::PartitionSpec ps;
  ps.group_mask = 0b00001111;
  ps.start_ns = 20'000;
  ps.heal_ns = 80'000;
  fp.partitions.push_back(ps);

  const Shape sh{ws::Algo::kUpcDistMem, 8, 2, 3};
  pgas::SimEngine seq;
  psim::PsimEngine par(4);
  const ws::SearchResult ref = run_on(seq, sh, net, tree, &fp);
  const ws::SearchResult got = run_on(par, sh, net, tree, &fp);
  expect_same_run(ref, got, "partitioned upc-distmem");
}

TEST(Psim, SerialLaneFallbackIdentity) {
  // Configs outside the parallel envelope (crash plans, 1 worker, 1 rank)
  // must silently take the sequential lane and still match SimEngine
  // exactly.
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();

  // Crash plan: recovery touches remote state raw.
  {
    pgas::FaultPlan fp;
    pgas::CrashSpec cs;
    cs.rank = 3;
    cs.at_ns = 50'000;
    fp.crashes.push_back(cs);
    const Shape sh{ws::Algo::kMpiWs, 8, 4, 11};
    pgas::SimEngine seq;
    psim::PsimEngine par(4);
    expect_same_run(run_on(seq, sh, net, tree, &fp),
                    run_on(par, sh, net, tree, &fp), "crash plan");
  }
  // Single worker / single rank.
  {
    const Shape sh{ws::Algo::kMpiWs, 8, 4, 11};
    pgas::SimEngine seq;
    psim::PsimEngine par(1);
    expect_same_run(run_on(seq, sh, net, tree), run_on(par, sh, net, tree),
                    "one worker");
  }
  {
    const Shape sh{ws::Algo::kMpiWs, 1, 4, 11};
    pgas::SimEngine seq;
    psim::PsimEngine par(4);
    expect_same_run(run_on(seq, sh, net, tree), run_on(par, sh, net, tree),
                    "one rank");
  }
}

TEST(Psim, ParallelEligibility) {
  const auto reason = [](const pgas::RunConfig& rc, int workers) {
    const char* r = psim::PsimEngine::fallback_reason(rc, workers);
    return r == nullptr ? std::string("eligible") : std::string(r);
  };
  pgas::RunConfig rc;
  rc.nranks = 8;
  rc.net = pgas::NetModel::distributed();
  rc.remote_ops_mediated = true;
  EXPECT_EQ(psim::PsimEngine::fallback_reason(rc, 4), nullptr);
  EXPECT_EQ(reason(rc, 1), "too-few-lanes");

  pgas::RunConfig one = rc;
  one.nranks = 1;
  EXPECT_EQ(reason(one, 4), "too-few-lanes");

  pgas::RunConfig raw = rc;
  raw.remote_ops_mediated = false;
  EXPECT_EQ(reason(raw, 4), "unmediated");

  // Any schedule policy needs the single global ready set.
  check::ReplayPolicy policy({});
  pgas::RunConfig explored = rc;
  explored.schedule_policy = &policy;
  EXPECT_EQ(reason(explored, 4), "schedule-policy");

  pgas::RunConfig crash = rc;
  pgas::CrashSpec cs;
  cs.rank = 1;
  cs.at_ns = 1000;
  crash.faults.crashes.push_back(cs);
  EXPECT_EQ(reason(crash, 4), "crash-plan");

  pgas::RunConfig member = rc;
  member.faults.drains.push_back(pgas::DrainSpec{1, 1000});
  EXPECT_EQ(reason(member, 4), "membership-plan");

  // Free net: every op costs 0, no safe window exists.
  pgas::RunConfig free_net = rc;
  free_net.net = pgas::NetModel::free();
  EXPECT_EQ(reason(free_net, 4), "zero-lookahead");

  // run_search promises mediation for every protocol: each of the eight
  // algorithms runs sharded on the distributed net, no fallback named.
  const ws::UtsProblem prob(uts::test_small(3));
  for (const ws::Algo algo : ws::kAllAlgosExtended) {
    obs::Observer ob;
    ws::WsConfig cfg = ws::WsConfig::for_algo(algo, 4);
    cfg.obs = &ob;
    psim::PsimEngine par(4);
    ws::run_search(par, rc, prob, cfg);
    EXPECT_GT(par.last_stats().windows, 0u) << ws::algo_label(algo);
    EXPECT_TRUE(ob.psim_fallbacks().empty()) << ws::algo_label(algo);
  }
}

TEST(Psim, BenchScaleRowsReportTheLaneTaken) {
  // bench_paper labels each fig5/fig6 row's lane from last_stats().windows
  // after the run: eligibility checked on the caller's RunConfig beforehand
  // reads "serial" for every row, because run_search is what marks the body's
  // remote ops mediated. Pin the row shapes: the Fig-5 rows run the parallel
  // lane, upc-sharedmem's included; the Fig-6 row runs the serial one, since
  // the shared-memory model leaves no lookahead.
  const ws::UtsProblem prob(uts::test_small(3));
  struct Row {
    ws::Algo algo;
    pgas::NetModel net;
    bool parallel;
  };
  const Row rows[] = {
      {ws::Algo::kUpcDistMem, pgas::NetModel::distributed(), true},
      {ws::Algo::kMpiWs, pgas::NetModel::distributed(), true},
      {ws::Algo::kUpcSharedMem, pgas::NetModel::distributed(), true},
      {ws::Algo::kUpcSharedMem, pgas::NetModel::shared_memory(), false},
  };
  psim::PsimEngine eng(2);
  for (const Row& row : rows) {
    pgas::RunConfig rcfg;
    rcfg.nranks = 16;
    rcfg.net = row.net;
    rcfg.seed = 7;
    ws::run_algo(eng, rcfg, row.algo, prob, 10);
    EXPECT_EQ(eng.last_stats().windows > 0, row.parallel)
        << ws::algo_label(row.algo);
  }
}

TEST(Psim, MemoryLeanFourThousandRanks) {
  // Full-scale acceptance: 4096 simulated ranks in one process. Slim fiber
  // stacks (the searches use explicit steal stacks, not call recursion)
  // plus StealStack's on-demand growth keep the footprint to roughly
  // stack + a few KB per rank — ~740 MB peak RSS measured, not tens of GB.
  // upc-distmem's probe-barrier termination keeps the idle-rank traffic
  // bounded (mpi-ws token polling at this starvation level is ~5x dearer),
  // and the run proves the window protocol at 1024 ranks per shard.
  const uts::Params tree = uts::test_small(3);
  pgas::RunConfig rcfg;
  rcfg.nranks = 4096;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 3;
  rcfg.fiber_stack_bytes = 64 * 1024;
  const ws::UtsProblem prob(tree);
  const ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
  psim::PsimEngine eng(4);
  const ws::SearchResult got = ws::run_search(eng, rcfg, prob, cfg);

  const auto expect = uts::search_sequential(tree);
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(got.agg.total_nodes, expect->nodes);
  EXPECT_EQ(got.per_thread.size(), 4096u);
  EXPECT_GT(got.run.elapsed_s, 0.0);
}

TEST(Psim, LookaheadDerivation) {
  // Distributed: one rank per node, so every cross-shard ref is remote.
  EXPECT_EQ(psim::PsimEngine::lookahead_ns(pgas::NetModel::distributed(), 8, 4),
            pgas::NetModel::distributed().remote_ref_ns -
                pgas::kChargeQuantumNs);
  // Shared memory: cross-shard refs are on-node (180 ns), which is below
  // the 1000 ns charge quantum — no safe window.
  EXPECT_EQ(
      psim::PsimEngine::lookahead_ns(pgas::NetModel::shared_memory(), 8, 4),
      0u);
  // Hierarchical with 2 ranks per SMP node: an odd shard split puts two
  // on-node ranks in different shards, so the on-node latency governs;
  // an even split keeps SMP pairs together and the remote latency governs.
  const pgas::NetModel h2 = pgas::NetModel::hierarchical(2);
  EXPECT_EQ(psim::PsimEngine::lookahead_ns(h2, 8, 4),
            h2.remote_ref_ns - pgas::kChargeQuantumNs);
  EXPECT_EQ(psim::PsimEngine::lookahead_ns(h2, 6, 4),
            h2.on_node_ref_ns > pgas::kChargeQuantumNs
                ? h2.on_node_ref_ns - pgas::kChargeQuantumNs
                : 0u);
  EXPECT_EQ(psim::PsimEngine::lookahead_ns(pgas::NetModel::free(), 8, 4), 0u);
}

// ---------------------------------------------------------------------------
// Window telemetry (ObsSink::on_psim_window / on_psim_fallback): pure
// observation — attaching an Observer must not perturb one bit of the run —
// and exact: the per-window event counts must sum to the engine's own total.

TEST(PsimTelemetry, ObserverPurityAcrossPlansAndWorkerCounts) {
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  const Shape sh{ws::Algo::kUpcDistMem, 8, 4, 11};

  pgas::FaultPlan stalls;  // parallel-eligible fault plan
  stalls.stall_ns = 40'000;
  stalls.stall_period_ns = 25'000;
  stalls.stall_rank = 1;
  pgas::FaultPlan crash;  // forces the serial lane (crash-plan fallback)
  pgas::CrashSpec c;
  c.rank = 2;
  c.at_ns = 15'000;
  crash.crashes.push_back(c);

  struct Plan {
    const char* name;
    const pgas::FaultPlan* faults;
  };
  const Plan plans[] = {{"plain", nullptr}, {"fault", &stalls},
                        {"crash", &crash}};
  for (int w : {1, 4}) {
    for (const Plan& p : plans) {
      psim::PsimEngine bare(w);
      const ws::SearchResult ref = run_on(bare, sh, net, tree, p.faults);
      psim::PsimEngine watched(w);
      obs::Observer ob;
      const ws::SearchResult got =
          run_on(watched, sh, net, tree, p.faults, &ob);
      expect_same_run(ref, got,
                      std::string(p.name) + " w=" + std::to_string(w));
    }
  }
}

TEST(PsimTelemetry, SinkHooksMatchSimEngine) {
  // psim's ranks reach the sink through SimEngine's own SimCtx code (ticks,
  // stalls, remote ops), its cross-shard path included, so an Observer on
  // the parallel lane must record SimEngine's per-rank telemetry exactly.
  // The goldens compare stdout and trace CSVs, not sink hooks.
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  pgas::FaultPlan stalls;
  stalls.stall_ns = 40'000;
  stalls.stall_period_ns = 25'000;
  stalls.stall_rank = 1;

  // Rank r's sampled points, without the engine series (psim_*) that only
  // psim writes, into rank 0's row.
  const auto samples = [](const obs::Observer& ob, int r) {
    std::vector<std::tuple<std::uint64_t, std::string, std::int64_t>> out;
    for (const obs::SamplePoint& p : ob.samples().points(r))
      if (p.metric.rfind("psim_", 0) != 0)
        out.emplace_back(p.t_ns, p.metric, p.value);
    return out;
  };
  const auto spans = [](const std::vector<obs::Interval>& v) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const obs::Interval& i : v) out.emplace_back(i.begin_ns, i.end_ns);
    return out;
  };
  const auto states = [](const std::vector<obs::StateEvent>& v) {
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const obs::StateEvent& e : v)
      out.emplace_back(e.t_ns, static_cast<int>(e.state));
    return out;
  };

  for (const ws::Algo algo : {ws::Algo::kUpcDistMem, ws::Algo::kMpiWs}) {
    const std::string what = ws::algo_label(algo);
    const Shape sh{algo, 8, 4, 11};
    pgas::SimEngine seq;
    obs::Observer want;
    run_on(seq, sh, net, tree, &stalls, &want);
    psim::PsimEngine par(4);
    obs::Observer got;
    run_on(par, sh, net, tree, &stalls, &got);
    ASSERT_GT(par.last_stats().windows, 0u) << what << ": expected parallel";

    ASSERT_EQ(want.nranks(), got.nranks()) << what;
    std::size_t stall_intervals = 0;
    for (int r = 0; r < want.nranks(); ++r) {
      const std::string at = what + " rank " + std::to_string(r);
      EXPECT_EQ(samples(want, r), samples(got, r)) << at;
      EXPECT_EQ(spans(want.stalls(r)), spans(got.stalls(r))) << at;
      EXPECT_EQ(states(want.state_log(r)), states(got.state_log(r))) << at;
      stall_intervals += want.stalls(r).size();
    }
    EXPECT_GT(stall_intervals, 0u) << what;
    const auto counters = want.merged_counters();
    EXPECT_EQ(counters, got.merged_counters()) << what;
    if (algo == ws::Algo::kUpcDistMem) {
      EXPECT_GT(counters.at("remote_ops"), 0u);
    }
  }
}

TEST(PsimTelemetry, MpiWsStealSpansMatchSimEngine) {
  // A legacy mpi-ws thief that sees termination abandons its request while
  // it is still in flight, and the victim reads the thief's published span
  // id when it answers. Assembled spans must follow virtual time, not the
  // host order in which psim's shards run those two steps.
  const auto spans = [](const obs::Observer& ob) {
    std::vector<std::tuple<int, int, int, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t,
                           std::int64_t, int>>
        out;
    for (const obs::Span& s : ob.spans().assemble())
      out.emplace_back(static_cast<int>(s.outcome), s.thief, s.victim,
                       s.t_request, s.t_service, s.t_transfer, s.t_absorb,
                       s.t_end, s.nodes, s.timeouts);
    return out;
  };
  const uts::Params tree = uts::test_small(1);
  const pgas::NetModel net = pgas::NetModel::distributed();
  for (const int n : {8, 16, 32}) {
    const Shape sh{ws::Algo::kMpiWs, n, 4, 0};
    pgas::SimEngine seq;
    obs::Observer want;
    run_on(seq, sh, net, tree, nullptr, &want);
    const auto ref = spans(want);
    ASSERT_FALSE(ref.empty());
    for (const int workers : {2, 4}) {
      psim::PsimEngine par(workers);
      obs::Observer got;
      run_on(par, sh, net, tree, nullptr, &got);
      ASSERT_GT(par.last_stats().windows, 0u);
      EXPECT_EQ(ref, spans(got))
          << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(PsimTelemetry, WindowCountsMatchEngineInternals) {
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  for (const Shape& sh :
       {Shape{ws::Algo::kMpiWs, 8, 4, 11}, Shape{ws::Algo::kUpcDistMem, 9, 3,
                                                 2}}) {
    psim::PsimEngine eng(4);
    obs::Observer ob;
    run_on(eng, sh, net, tree, nullptr, &ob);
    const psim::PsimEngine::Stats& st = eng.last_stats();
    ASSERT_GT(st.windows, 0u) << "expected the parallel path";

    // One hook call per closed window, indices in order, spans well-formed.
    const auto& wins = ob.psim_windows();
    ASSERT_EQ(wins.size(), st.windows);
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < wins.size(); ++i) {
      EXPECT_EQ(wins[i].index, i);
      EXPECT_GT(wins[i].end_ns, wins[i].begin_ns);
      EXPECT_LE(wins[i].min_shard_switches, wins[i].max_shard_switches);
      EXPECT_EQ(wins[i].shards, 4);
      events += wins[i].events;
    }
    // The acceptance bar: barrier-counted events == the engine's own total.
    EXPECT_EQ(events, st.events);

    // The engine registry mirrors the same totals as plain counters.
    const auto& counters = ob.engine_registry().counters();
    EXPECT_EQ(counters.at("psim_windows"), st.windows);
    EXPECT_EQ(counters.at("psim_events"), st.events);
    EXPECT_EQ(counters.count("psim_fallbacks"), 0u);
  }
}

TEST(PsimTelemetry, HostTimeLedgerFitsWorkerWall) {
  // The Stats host-time ledger: on the parallel lane every total is
  // positive and together they fit in workers x wall; a serial-lane run
  // on the same engine resets all four to 0.
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  const Shape sh{ws::Algo::kUpcDistMem, 16, 4, 11};
  constexpr int kWorkers = 4;
  psim::PsimEngine eng(kWorkers);

  const auto t0 = std::chrono::steady_clock::now();
  run_on(eng, sh, net, tree);
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  const psim::PsimEngine::Stats st = eng.last_stats();
  ASSERT_GT(st.windows, 0u) << "expected the parallel path";
  EXPECT_GT(st.busy_ns, 0u);
  EXPECT_GT(st.wake_wait_ns, 0u);
  EXPECT_GT(st.barrier_wait_ns, 0u);
  EXPECT_GT(st.completion_ns, 0u);
  EXPECT_LE(st.busy_ns + st.wake_wait_ns + st.barrier_wait_ns +
                st.completion_ns,
            static_cast<std::uint64_t>(kWorkers * wall_ns));

  pgas::FaultPlan crash;  // forces the serial lane
  pgas::CrashSpec c;
  c.rank = 2;
  c.at_ns = 15'000;
  crash.crashes.push_back(c);
  run_on(eng, sh, net, tree, &crash);
  const psim::PsimEngine::Stats& serial = eng.last_stats();
  EXPECT_EQ(serial.windows, 0u);
  EXPECT_EQ(serial.busy_ns, 0u);
  EXPECT_EQ(serial.wake_wait_ns, 0u);
  EXPECT_EQ(serial.barrier_wait_ns, 0u);
  EXPECT_EQ(serial.completion_ns, 0u);
}

TEST(PsimTelemetry, SerialLaneFallbackAttribution) {
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();
  const Shape sh{ws::Algo::kUpcDistMem, 8, 4, 11};
  obs::Observer ob;

  // workers=1: too few lanes, reported before delegating to SimEngine.
  psim::PsimEngine serial(1);
  run_on(serial, sh, net, tree, nullptr, &ob);
  EXPECT_TRUE(ob.psim_windows().empty());
  ASSERT_EQ(ob.psim_fallbacks().count("too-few-lanes"), 1u);
  EXPECT_EQ(ob.psim_fallbacks().at("too-few-lanes"), 1u);

  // A crash plan on 4 workers: a different reason, accumulated in the same
  // observer (the fallback tally deliberately survives start_run so a soak
  // sees the full attribution).
  pgas::FaultPlan crash;
  pgas::CrashSpec c;
  c.rank = 2;
  c.at_ns = 15'000;
  crash.crashes.push_back(c);
  psim::PsimEngine par(4);
  run_on(par, sh, net, tree, &crash, &ob);
  EXPECT_EQ(ob.psim_fallbacks().at("too-few-lanes"), 1u);
  ASSERT_EQ(ob.psim_fallbacks().count("crash-plan"), 1u);
  EXPECT_EQ(ob.engine_registry().counters().at("psim_fallbacks"), 1u);

  // A zero-lookahead net model is its own reason.
  psim::PsimEngine free_net(4);
  run_on(free_net, sh, pgas::NetModel::free(), tree, nullptr, &ob);
  EXPECT_EQ(ob.psim_fallbacks().count("zero-lookahead"), 1u);
}

}  // namespace
