// Differential variant-equivalence battery for the extension variants
// (lifeline-graph and sampling-quantile victim selection, PR 10):
//
//   * every variant in the canonical kAllAlgosExtended list visits the
//     exact sequential-reference node count, for {bin, geo} workloads on
//     both the sequential simulator and the parallel-PDES engine (w=1/4);
//   * each new variant is deterministic against itself: byte-identical
//     aggregate and per-rank stats across back-to-back runs and across
//     psim worker counts;
//   * algo_label covers every enum member with a unique non-"?" label
//     (kAllAlgosExtended completeness is a static_assert in config.hpp —
//     here we pin the runtime label table to the same canon);
//   * the locked family's searches, plain and with a crash, are identical
//     with lock spins skipped and with every spin run one by one;
//   * the token-terminated searches (mpi-ws, work-push), UTS and B&B, are
//     identical with idle mailbox waits skipped and with every pass run;
//   * every protocol's searches are identical with ranks running ahead on
//     SimEngine and in the min-vt order.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bnb/bnb.hpp"
#include "bnb/maxclique.hpp"
#include "pgas/sim_engine.hpp"
#include "psim/engine.hpp"
#include "sim/schedule_policy.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

ws::SearchResult run_variant(pgas::Engine& eng, ws::Algo algo,
                             const uts::Params& tree, int nranks, int chunk,
                             std::uint64_t seed = 11) {
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = seed;
  const ws::UtsProblem prob(tree);
  const ws::WsConfig cfg = ws::WsConfig::for_algo(algo, chunk);
  return ws::run_search(eng, rcfg, prob, cfg);
}

/// Two runs of the same variant must agree field-for-field — the virtual
/// clock makes every metric an exact integer, so EQ is the right check.
void expect_identical(const ws::SearchResult& a, const ws::SearchResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.agg.total_nodes, b.agg.total_nodes) << what;
  EXPECT_EQ(a.agg.total_leaves, b.agg.total_leaves) << what;
  EXPECT_EQ(a.agg.total_steals, b.agg.total_steals) << what;
  EXPECT_EQ(a.agg.total_probes, b.agg.total_probes) << what;
  EXPECT_EQ(a.agg.total_releases, b.agg.total_releases) << what;
  EXPECT_EQ(a.agg.total_failed_steals, b.agg.total_failed_steals) << what;
  EXPECT_EQ(a.run.elapsed_s, b.run.elapsed_s) << what;
  EXPECT_EQ(a.run.switches, b.run.switches) << what;
  ASSERT_EQ(a.per_thread.size(), b.per_thread.size()) << what;
  for (std::size_t r = 0; r < a.per_thread.size(); ++r) {
    EXPECT_EQ(a.per_thread[r].c.nodes, b.per_thread[r].c.nodes)
        << what << " rank " << r;
    EXPECT_EQ(a.per_thread[r].c.steals, b.per_thread[r].c.steals)
        << what << " rank " << r;
    EXPECT_EQ(a.per_thread[r].c.probes, b.per_thread[r].c.probes)
        << what << " rank " << r;
  }
}

struct Workload {
  const char* name;
  uts::Params tree;
};

std::vector<Workload> workloads() {
  return {{"bin", uts::test_small(3)}, {"geo", uts::geo_test(2)}};
}

// ---- cross-variant node-count equality ------------------------------------

TEST(Variants, AllVariantsMatchSequentialReferenceOnSim) {
  for (const Workload& w : workloads()) {
    const auto expect = uts::search_sequential(w.tree);
    ASSERT_TRUE(expect.has_value()) << w.name;
    for (const ws::Algo a : ws::kAllAlgosExtended) {
      pgas::SimEngine eng;
      const ws::SearchResult res = run_variant(eng, a, w.tree, 8, 4);
      EXPECT_EQ(res.agg.total_nodes, expect->nodes)
          << w.name << "/" << ws::algo_label(a);
      EXPECT_EQ(res.agg.total_leaves, expect->leaves)
          << w.name << "/" << ws::algo_label(a);
    }
  }
}

TEST(Variants, AllVariantsMatchSequentialReferenceOnPsim) {
  for (const Workload& w : workloads()) {
    const auto expect = uts::search_sequential(w.tree);
    ASSERT_TRUE(expect.has_value()) << w.name;
    for (const ws::Algo a : ws::kAllAlgosExtended) {
      for (const int workers : {1, 4}) {
        psim::PsimEngine eng(workers);
        const ws::SearchResult res = run_variant(eng, a, w.tree, 8, 4);
        EXPECT_EQ(res.agg.total_nodes, expect->nodes)
            << w.name << "/" << ws::algo_label(a) << " w=" << workers;
      }
    }
  }
}

// ---- new-variant determinism ----------------------------------------------

TEST(Variants, LifelineByteIdenticalAcrossRunsAndWorkerCounts) {
  for (const Workload& w : workloads()) {
    pgas::SimEngine s1, s2;
    const ws::SearchResult a = run_variant(s1, ws::Algo::kLifeline, w.tree,
                                           8, 4);
    const ws::SearchResult b = run_variant(s2, ws::Algo::kLifeline, w.tree,
                                           8, 4);
    expect_identical(a, b, std::string(w.name) + "/lifeline back-to-back");
    for (const int workers : {1, 4}) {
      psim::PsimEngine par(workers);
      const ws::SearchResult p = run_variant(par, ws::Algo::kLifeline,
                                             w.tree, 8, 4);
      expect_identical(a, p, std::string(w.name) + "/lifeline psim w=" +
                                 std::to_string(workers));
    }
  }
}

TEST(Variants, SamplingByteIdenticalAcrossRunsAndWorkerCounts) {
  for (const Workload& w : workloads()) {
    pgas::SimEngine s1, s2;
    const ws::SearchResult a = run_variant(s1, ws::Algo::kSampling, w.tree,
                                           8, 4);
    const ws::SearchResult b = run_variant(s2, ws::Algo::kSampling, w.tree,
                                           8, 4);
    expect_identical(a, b, std::string(w.name) + "/sampling back-to-back");
    for (const int workers : {1, 4}) {
      psim::PsimEngine par(workers);
      const ws::SearchResult p = run_variant(par, ws::Algo::kSampling,
                                             w.tree, 8, 4);
      expect_identical(a, p, std::string(w.name) + "/sampling psim w=" +
                                 std::to_string(workers));
    }
  }
}

// ---- the new variants actually exercise their machinery --------------------

TEST(Variants, LifelineRanksParkInsteadOfSpinProbing) {
  // On the same workload, the lifeline policy must issue far fewer probes
  // than the random-sweep base — parked ranks read their own park word
  // instead of hammering remote work_avail words.
  const uts::Params tree = uts::test_small(3);
  pgas::SimEngine e1, e2;
  const ws::SearchResult base =
      run_variant(e1, ws::Algo::kUpcDistMem, tree, 8, 4);
  const ws::SearchResult life =
      run_variant(e2, ws::Algo::kLifeline, tree, 8, 4);
  EXPECT_EQ(base.agg.total_nodes, life.agg.total_nodes);
  EXPECT_LT(life.agg.total_probes, base.agg.total_probes);
}

TEST(Variants, SamplingKnobsChangeScheduleNotResults) {
  const uts::Params tree = uts::test_small(3);
  const auto expect = uts::search_sequential(tree);
  ASSERT_TRUE(expect.has_value());
  for (const double frac : {0.25, 1.0}) {
    pgas::RunConfig rcfg;
    rcfg.nranks = 8;
    rcfg.net = pgas::NetModel::distributed();
    rcfg.seed = 11;
    const ws::UtsProblem prob(tree);
    ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kSampling, 4);
    cfg.sample_frac = frac;
    cfg.quantile = 0.5;
    pgas::SimEngine eng;
    const ws::SearchResult res = ws::run_search(eng, rcfg, prob, cfg);
    EXPECT_EQ(res.agg.total_nodes, expect->nodes) << "sample_frac=" << frac;
  }
}

// ---- label canon -----------------------------------------------------------

TEST(Variants, AlgoLabelCoversEveryEnumMemberUniquely) {
  std::set<std::string> seen;
  for (const ws::Algo a : ws::kAllAlgosExtended) {
    const std::string label = ws::algo_label(a);
    EXPECT_NE(label, "?") << "unlabeled enum member "
                          << static_cast<int>(a);
    EXPECT_TRUE(seen.insert(label).second) << "duplicate label " << label;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(ws::kAlgoCount));
  EXPECT_EQ(seen.count("lifeline"), 1u);
  EXPECT_EQ(seen.count("sampling"), 1u);
}

// ---- locked family: skipped lock spins change nothing ---------------------
//
// SimCtx::lock accounts the spins no other rank can interrupt in one step;
// the pass-through policy (always the default min-(vt, id) choice) skips
// none. Whole searches of the locked protocols must agree exactly.

struct PassThrough : sim::SchedulePolicy {
  std::size_t pick(const std::vector<sim::Candidate>&) override { return 0; }
};

/// Counts contended lock() calls.
struct LockWaits : pgas::ObsSink {
  void on_tick(int, std::uint64_t) override {}
  void on_lock_wait(int, std::uint64_t, std::uint64_t) override { ++n; }
  void on_stall(int, std::uint64_t, std::uint64_t) override {}
  std::uint64_t n = 0;
};

TEST(LockSpinSkip, LockedSearchesMatchPassThrough) {
  const ws::UtsProblem prob(uts::test_small(3));
  pgas::SimEngine eng;
  for (const ws::Algo algo : {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm,
                              ws::Algo::kUpcTermRapdif}) {
    for (const int plan : {0, 1, 2}) {
      const std::string what = std::string(ws::algo_label(algo)) +
                               " plan " + std::to_string(plan);
      pgas::RunConfig rcfg;
      rcfg.nranks = 8;
      rcfg.net = pgas::NetModel::distributed();
      rcfg.seed = 5;
      ws::WsConfig cfg = ws::WsConfig::for_algo(algo, 4);
      if (plan > 0) {
        // Rank 1 dies anywhere at 30 us, or rank 2 under a lock from 60 us.
        pgas::CrashSpec c;
        c.rank = plan;
        c.at_ns = plan == 1 ? 30'000 : 60'000;
        c.where = plan == 1 ? pgas::CrashSpec::Where::kAnywhere
                            : pgas::CrashSpec::Where::kInLock;
        rcfg.faults.crashes.push_back(c);
        rcfg.faults.crash_detect_ns = 2'000;
        cfg.steal_timeout_ns = 30'000;
      }
      std::string csv[2];
      ws::SearchResult res[2];
      LockWaits waits;
      PassThrough pass;
      for (int k = 0; k < 2; ++k) {
        trace::Trace tr(rcfg.nranks);
        cfg.trace = &tr;
        rcfg.obs = &waits;
        rcfg.schedule_policy = k == 0 ? nullptr : &pass;
        res[k] = ws::run_search(eng, rcfg, prob, cfg);
        std::ostringstream os;
        tr.write_csv(os);
        csv[k] = os.str();
      }
      expect_identical(res[0], res[1], what);
      EXPECT_EQ(res[0].agg.faults.crashes, plan > 0 ? 1u : 0u) << what;
      EXPECT_EQ(res[0].agg.faults.crashes, res[1].agg.faults.crashes) << what;
      EXPECT_EQ(res[0].agg.total_locks_revoked, res[1].agg.total_locks_revoked)
          << what;
      EXPECT_EQ(csv[0], csv[1]) << what;
      EXPECT_GT(waits.n, 0u) << what;
    }
  }
}

// ---- token family: skipped idle mailbox waits change nothing ---------------
//
// mp::Comm::idle_wait has an idle rank's passes accounted in closed form;
// the pass-through policy skips none. Whole searches must agree exactly,
// each rank's ticks included (rank by rank: run-ahead reorders hook calls
// across ranks), and a time-limit abort must name the same offender.

/// Each rank's on_tick instants, in that rank's call order.
struct Ticks : pgas::ObsSink {
  explicit Ticks(int n) : t(static_cast<std::size_t>(n)) {}
  void on_tick(int r, std::uint64_t ns) override {
    t[static_cast<std::size_t>(r)].push_back(ns);
  }
  void on_lock_wait(int, std::uint64_t, std::uint64_t) override {}
  void on_stall(int, std::uint64_t, std::uint64_t) override {}
  std::vector<std::vector<std::uint64_t>> t;
};

/// One search on an engine under a run and a search configuration.
using Search = std::function<ws::SearchResult(
    pgas::Engine&, const pgas::RunConfig&, const ws::WsConfig&)>;

/// One search with and without the pass-through policy: stats, trace rows
/// and ticks must match, or both runs must abort alike. Returns whether
/// they aborted.
bool expect_searches_match(const Search& search, pgas::RunConfig rcfg,
                        ws::WsConfig cfg, const std::string& what) {
  pgas::SimEngine eng;
  PassThrough pass;
  std::string csv[2], error[2];
  ws::SearchResult res[2];
  std::vector<std::vector<std::uint64_t>> ticks[2];
  for (int k = 0; k < 2; ++k) {
    trace::Trace tr(rcfg.nranks);
    Ticks sink(rcfg.nranks);
    cfg.trace = &tr;
    rcfg.obs = &sink;
    rcfg.schedule_policy = k == 0 ? nullptr : &pass;
    try {
      res[k] = search(eng, rcfg, cfg);
    } catch (const sim::TimeLimitExceeded& e) {
      error[k] = e.what();
    }
    std::ostringstream os;
    tr.write_csv(os);
    csv[k] = os.str();
    ticks[k] = std::move(sink.t);
  }
  EXPECT_EQ(error[0], error[1]) << what;
  if (!error[1].empty()) return true;  // rows and ticks past it differ
  expect_identical(res[0], res[1], what);
  EXPECT_EQ(csv[0], csv[1]) << what;
  for (int r = 0; r < rcfg.nranks; ++r)
    EXPECT_TRUE(ticks[0][static_cast<std::size_t>(r)] ==
                ticks[1][static_cast<std::size_t>(r)])
        << what << ": rank " << r << " ticks differ";
  return false;
}

pgas::RunConfig wait_run_cfg(int nranks, std::uint64_t seed) {
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = seed;
  return rcfg;
}

TEST(MailboxWaitSkip, TokenSearchesMatchPassThrough) {
  // Plain, with a cooperative deadline mid-search (the wait's own bound),
  // and cut by the vt limit mid-search.
  const ws::UtsProblem prob(uts::test_small(3));
  const Search search = [&prob](pgas::Engine& eng,
                                const pgas::RunConfig& rcfg,
                                const ws::WsConfig& cfg) {
    return ws::run_search(eng, rcfg, prob, cfg);
  };
  for (const ws::Algo algo : {ws::Algo::kMpiWs, ws::Algo::kWorkPush}) {
    for (const int n : {8, 16, 32}) {
      for (const int variant : {0, 1, 2}) {
        const std::string what = std::string(ws::algo_label(algo)) + " n" +
                                 std::to_string(n) + " variant " +
                                 std::to_string(variant);
        pgas::RunConfig rcfg = wait_run_cfg(n, 5 + static_cast<unsigned>(n));
        ws::WsConfig cfg = ws::WsConfig::for_algo(algo, 4);
        if (variant == 1) cfg.cancel_at_ns = 150'000;
        if (variant == 2) rcfg.vt_limit_ns = 200'001;
        expect_searches_match(search, rcfg, cfg, what);
      }
    }
  }
}

TEST(MailboxWaitSkip, BranchAndBoundSearchesMatchPassThrough) {
  // B&B ranks read the shared incumbent in host order, so a wait that
  // ran past another rank's earlier slices and kept running would prune
  // differently.
  const bnb::MaxClique prob(bnb::make_random_graph(40, 0.5, 3));
  const Search search = [&prob](pgas::Engine& eng,
                                const pgas::RunConfig& rcfg,
                                const ws::WsConfig& cfg) {
    return bnb::solve(eng, rcfg, prob, cfg).search;
  };
  for (const ws::Algo algo : {ws::Algo::kMpiWs, ws::Algo::kWorkPush}) {
    for (const int n : {8, 16}) {
      pgas::RunConfig rcfg = wait_run_cfg(n, 7);
      rcfg.net.work_ns_per_node = 150;
      expect_searches_match(search, rcfg, ws::WsConfig::for_algo(algo, 4),
                         std::string(ws::algo_label(algo)) + " n" +
                             std::to_string(n));
    }
  }
}

// ---- run-ahead: SimEngine ranks running ahead change nothing ---------------
//
// ws::run_search mediates every cross-rank access, so SimEngine runs its
// ranks ahead by the lookahead (SimEngine::lead_ns); the pass-through
// policy turns that off. All eight protocols' searches must agree exactly:
// stats, trace rows and each rank's ticks, or the offender of a time-limit
// abort.

/// A UTS search of `tree` through ws::run_search.
Search uts_search(const ws::UtsProblem& prob) {
  return [&prob](pgas::Engine& eng, const pgas::RunConfig& rcfg,
                 const ws::WsConfig& cfg) {
    return ws::run_search(eng, rcfg, prob, cfg);
  };
}

/// Every protocol's search of `tree` on `n` ranks, run ahead and not.
void expect_all_protocols_match(const uts::Params& tree, int n) {
  const ws::UtsProblem prob(tree);
  for (const ws::Algo algo : ws::kAllAlgosExtended) {
    pgas::RunConfig rcfg = wait_run_cfg(n, 3 + static_cast<unsigned>(n));
    rcfg.remote_ops_mediated = true;
    ASSERT_GT(pgas::SimEngine::lead_ns(rcfg), 0u);
    EXPECT_FALSE(expect_searches_match(
        uts_search(prob), rcfg, ws::WsConfig::for_algo(algo, 4),
        std::string(ws::algo_label(algo)) + " n" + std::to_string(n)));
  }
}

TEST(RunAhead, WholeSearchesMatchPassThroughAt16Ranks) {
  uts::Params tree = uts::test_small(3);  // 23,611 nodes
  tree.b0 = 200;
  tree.q = 0.49;
  expect_all_protocols_match(tree, 16);
}

TEST(RunAhead, WholeSearchesMatchPassThroughAt128Ranks) {
  // 1,089 nodes: the pass-through reference sorts every runnable rank at
  // every step, and the token family's idle passes are steps there.
  expect_all_protocols_match(uts::test_small(3), 128);
}

TEST(RunAhead, WholeSearchVtLimitNamesTheSameOffender) {
  const ws::UtsProblem prob(uts::test_small(3));
  for (const ws::Algo algo : ws::kAllAlgosExtended) {
    for (const std::uint64_t limit : {8'001u, 15'001u}) {
      pgas::RunConfig rcfg = wait_run_cfg(16, 9);
      rcfg.vt_limit_ns = limit;
      EXPECT_TRUE(expect_searches_match(
          uts_search(prob), rcfg, ws::WsConfig::for_algo(algo, 4),
          std::string(ws::algo_label(algo)) + " limit " +
              std::to_string(limit)));
    }
  }
}

}  // namespace
