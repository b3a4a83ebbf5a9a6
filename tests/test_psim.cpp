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

#include "obs/observer.hpp"
#include "pgas/sim_engine.hpp"
#include "psim/engine.hpp"
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
  EXPECT_EQ(sim.agg.total_faults_stalls, par.agg.total_faults_stalls) << what;
  EXPECT_EQ(sim.agg.total_faults_dropped, par.agg.total_faults_dropped)
      << what;
  EXPECT_EQ(sim.agg.total_faults_duplicated, par.agg.total_faults_duplicated)
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

class PsimIdentity : public testing::TestWithParam<Shape> {};

std::string shape_name(const testing::TestParamInfo<Shape>& info) {
  std::string s = ws::algo_label(info.param.algo);
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s + "_r" + std::to_string(info.param.nranks) + "_k" +
         std::to_string(info.param.chunk) + "_s" +
         std::to_string(info.param.seed);
}

TEST_P(PsimIdentity, MatchesSimEngineAcrossWorkerCounts) {
  const Shape sh = GetParam();
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();

  pgas::SimEngine seq;
  const ws::SearchResult ref = run_on(seq, sh, net, tree);
  const auto expect = uts::search_sequential(tree);
  ASSERT_TRUE(expect.has_value());
  ASSERT_EQ(ref.agg.total_nodes, expect->nodes);

  for (int w : {1, 2, 3, 4}) {
    psim::PsimEngine par(w);
    const ws::SearchResult got = run_on(par, sh, net, tree);
    expect_same_run(ref, got, "workers=" + std::to_string(w));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MediatedAlgos, PsimIdentity,
    testing::Values(
        // The three mediation-promising variants (token termination = mpi-ws
        // and work-push; request/response + probe barrier = upc-distmem) at
        // shapes where ranks don't divide evenly into shards.
        Shape{ws::Algo::kMpiWs, 8, 4, 11}, Shape{ws::Algo::kMpiWs, 7, 2, 5},
        Shape{ws::Algo::kMpiWs, 12, 1, 23},
        Shape{ws::Algo::kWorkPush, 8, 4, 11},
        Shape{ws::Algo::kWorkPush, 6, 2, 7},
        Shape{ws::Algo::kUpcDistMem, 8, 4, 11},
        Shape{ws::Algo::kUpcDistMem, 9, 3, 2}),
    shape_name);

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
  EXPECT_GT(ref.agg.total_faults_stalls, 0u);
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
  // Configs outside the parallel envelope (locked-family algorithms, crash
  // plans, 1 worker, 1 rank) must silently take the sequential lane and
  // still match SimEngine exactly.
  const uts::Params tree = uts::test_small(3);
  const pgas::NetModel net = pgas::NetModel::distributed();

  // Locked family: no mediation promise.
  {
    const Shape sh{ws::Algo::kUpcTerm, 8, 4, 11};
    pgas::SimEngine seq;
    psim::PsimEngine par(4);
    expect_same_run(run_on(seq, sh, net, tree), run_on(par, sh, net, tree),
                    "locked family");
  }
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
  pgas::RunConfig rc;
  rc.nranks = 8;
  rc.net = pgas::NetModel::distributed();
  rc.remote_ops_mediated = true;
  EXPECT_TRUE(psim::PsimEngine::parallel_eligible(rc, 4));
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(rc, 1));

  pgas::RunConfig one = rc;
  one.nranks = 1;
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(one, 4));

  pgas::RunConfig raw = rc;
  raw.remote_ops_mediated = false;
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(raw, 4));

  pgas::RunConfig crash = rc;
  pgas::CrashSpec cs;
  cs.rank = 1;
  cs.at_ns = 1000;
  crash.faults.crashes.push_back(cs);
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(crash, 4));

  pgas::RunConfig member = rc;
  member.faults.drains.push_back(pgas::DrainSpec{1, 1000});
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(member, 4));

  // Free net: every op costs 0, no safe window exists.
  pgas::RunConfig free_net = rc;
  free_net.net = pgas::NetModel::free();
  EXPECT_FALSE(psim::PsimEngine::parallel_eligible(free_net, 4));
}

TEST(Psim, BenchScaleRowsReportTheLaneTaken) {
  // bench_scale labels each row's lane from last_stats().windows after the
  // run: eligibility checked on the caller's RunConfig beforehand reads
  // "serial" for every row, because run_search is what marks the body's
  // remote ops mediated. Pin the three row shapes: the Fig-5 rows run the
  // parallel lane, the Fig-6 row (locked family on the shared-memory model)
  // the serial one.
  const ws::UtsProblem prob(uts::test_small(3));
  struct Row {
    ws::Algo algo;
    pgas::NetModel net;
    bool parallel;
  };
  const Row rows[] = {
      {ws::Algo::kUpcDistMem, pgas::NetModel::distributed(), true},
      {ws::Algo::kMpiWs, pgas::NetModel::distributed(), true},
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
