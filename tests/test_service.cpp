// Resident job service (src/svc): admission control, deadlines, retries,
// pool degradation, per-job isolation, and the job-state oracle.
//
// Also home of the run_search re-entrancy guarantee: the service's whole
// premise is many searches on ONE engine in ONE process, so back-to-back
// runs must be byte-identical to each other (no state bleeding across runs
// through the driver, the engine, or the stats pipeline).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/job_oracle.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "svc/service.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

svc::ServiceConfig small_pool(int ranks = 8) {
  svc::ServiceConfig c;
  c.pool_ranks = ranks;
  return c;
}

svc::JobSpec uts_job(int seed_variant, ws::Algo a = ws::Algo::kUpcDistMem) {
  svc::JobSpec s;
  s.workload = svc::Workload::kUts;
  s.tree = uts::test_small(seed_variant);
  s.algo = a;
  s.chunk = 2;
  return s;
}

// ---------------------------------------------------------------------------
// run_search re-entrancy: N back-to-back runs on one engine are pairwise
// byte-identical (every per-rank counter, the switch count, the makespan).

void expect_byte_identical(const ws::SearchResult& a, const ws::SearchResult& b,
                           const char* what) {
  ASSERT_EQ(a.per_thread.size(), b.per_thread.size()) << what;
  for (std::size_t i = 0; i < a.per_thread.size(); ++i)
    EXPECT_EQ(std::memcmp(&a.per_thread[i].c, &b.per_thread[i].c,
                          sizeof(stats::Counters)),
              0)
        << what << ": rank " << i << " counters diverge across runs";
  EXPECT_EQ(a.run.switches, b.run.switches) << what;
  EXPECT_EQ(a.run.elapsed_s, b.run.elapsed_s) << what;
  EXPECT_EQ(a.agg.total_nodes, b.agg.total_nodes) << what;
}

TEST(Reentrancy, BackToBackRunsByteIdenticalSim) {
  const uts::Params p = uts::test_small(3);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 5;
  for (ws::Algo a : ws::kAllAlgosExtended) {
    const ws::WsConfig cfg = ws::WsConfig::for_algo(a, 2);
    const auto r1 = ws::run_search(eng, rcfg, prob, cfg);
    const auto r2 = ws::run_search(eng, rcfg, prob, cfg);
    const auto r3 = ws::run_search(eng, rcfg, prob, cfg);
    expect_byte_identical(r1, r2, ws::algo_label(a));
    expect_byte_identical(r1, r3, ws::algo_label(a));
  }
}

TEST(Reentrancy, ByteIdenticalAfterCrashRun) {
  // A crashy run in between must not perturb the next clean run: recovery
  // boards, liveness, and fault state are per-run, not per-engine.
  const uts::Params p = uts::test_small(3);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  pgas::RunConfig clean;
  clean.nranks = 8;
  clean.net = pgas::NetModel::distributed();
  clean.seed = 5;
  pgas::RunConfig crashy = clean;
  pgas::CrashSpec c;
  c.rank = 2;
  c.at_ns = 15'000;
  crashy.faults.crashes.push_back(c);
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
  cfg.steal_timeout_ns = 30'000;
  const auto before = ws::run_search(eng, clean, prob, cfg);
  const auto crashed = ws::run_search(eng, crashy, prob, cfg);
  EXPECT_EQ(crashed.agg.total_crashes, 1u);
  const auto after = ws::run_search(eng, clean, prob, cfg);
  expect_byte_identical(before, after, "clean-crashy-clean");
}

TEST(Reentrancy, ThreadsEngineDeterministicCounts) {
  // Real threads cannot be byte-identical in timing, but the search result
  // (node totals) must be reproducible run over run on one engine.
  const uts::Params p = uts::test_small(3);
  const ws::UtsProblem prob(p);
  const auto want = uts::search_sequential(p)->nodes;
  pgas::ThreadEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 4;
  rcfg.net = pgas::NetModel::distributed();
  for (int i = 0; i < 3; ++i) {
    const auto r = ws::run_search(
        eng, rcfg, prob, ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2));
    EXPECT_EQ(r.total_nodes(), want) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// Admission control: typed rejections, never silent.

TEST(Admission, BoundedQueueShedsWithTypedReason) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg = small_pool(4);
  cfg.queue_cap = 2;
  svc::Service s(eng, cfg);
  // All at t=0: nothing dispatches until time advances, so the queue fills.
  const auto a = s.submit(uts_job(1), 0);
  const auto b = s.submit(uts_job(2), 0);
  const auto c = s.submit(uts_job(3), 0);
  const auto d = s.submit(uts_job(4), 0);
  EXPECT_EQ(s.job(a).state, svc::JobState::kQueued);
  EXPECT_EQ(s.job(b).state, svc::JobState::kQueued);
  EXPECT_EQ(s.job(c).state, svc::JobState::kRejected);
  EXPECT_EQ(s.job(c).reject, svc::RejectReason::kQueueFull);
  EXPECT_EQ(s.job(d).reject, svc::RejectReason::kQueueFull);
  s.drain();
  EXPECT_EQ(s.job(a).state, svc::JobState::kCompleted);
  EXPECT_EQ(s.job(b).state, svc::JobState::kCompleted);
  // Rejected jobs never ran and hold nothing.
  EXPECT_EQ(s.job(c).attempts, 0);
  EXPECT_EQ(s.job(c).ranks_held, 0);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Admission, InvalidAndImpossibleSpecsRejectedUpFront) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  svc::JobSpec bad = uts_job(1);
  bad.chunk = 0;
  EXPECT_EQ(s.job(s.submit(bad, 0)).reject, svc::RejectReason::kInvalidSpec);
  svc::JobSpec greedy = uts_job(1);
  greedy.min_ranks = 5;  // pool owns 4: can never run, shed immediately
  EXPECT_EQ(s.job(s.submit(greedy, 0)).reject,
            svc::RejectReason::kPoolExhausted);
  svc::JobSpec neg = uts_job(1);
  neg.max_retries = -1;
  EXPECT_EQ(s.job(s.submit(neg, 0)).reject, svc::RejectReason::kInvalidSpec);
  svc::JobSpec dense = uts_job(1);
  dense.workload = svc::Workload::kMaxClique;
  dense.bnb_size = 10;
  dense.clique_density = 1.5;
  EXPECT_EQ(s.job(s.submit(dense, 0)).reject,
            svc::RejectReason::kInvalidSpec);
  s.shutdown();
  EXPECT_EQ(s.job(s.submit(uts_job(1), 0)).reject,
            svc::RejectReason::kShutdown);
}

TEST(Admission, ArrivalsMustBeNondecreasing) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  s.submit(uts_job(1), 100);
  EXPECT_THROW(s.submit(uts_job(2), 99), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deadlines: in-queue cancellation and mid-run cooperative cancellation.

TEST(Deadline, ExpiredInQueueNeverTouchesThePool) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  const auto first = s.submit(uts_job(1), 0);  // occupies the pool
  svc::JobSpec doomed = uts_job(2);
  doomed.deadline_ns = 10;  // expires long before the pool frees up
  const auto late = s.submit(doomed, 0);
  s.drain();
  EXPECT_EQ(s.job(first).state, svc::JobState::kCompleted);
  const auto& j = s.job(late);
  EXPECT_EQ(j.state, svc::JobState::kCancelled);
  EXPECT_EQ(j.attempts, 0);         // never dispatched
  EXPECT_EQ(j.finish_ns, 10u);      // cancelled at the deadline instant
  EXPECT_FALSE(j.has_result);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Deadline, MidRunCancelReturnsPartialResultWithExactAccounting) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(8));
  // Calibrate: run the same tree once uncapped to learn its makespan.
  const auto probe = s.submit(uts_job(6), 0);
  s.drain();
  ASSERT_EQ(s.job(probe).state, svc::JobState::kCompleted);
  const std::uint64_t span =
      s.job(probe).finish_ns - s.job(probe).start_ns;
  ASSERT_GT(span, 0u);
  const std::uint64_t full = s.job(probe).nodes;

  svc::JobSpec capped = uts_job(6);
  capped.deadline_ns = span / 2;
  const auto id = s.submit(capped, s.now_ns());
  s.drain();
  const auto& j = s.job(id);
  EXPECT_EQ(j.state, svc::JobState::kCancelled);
  EXPECT_EQ(j.attempts, 1);
  EXPECT_TRUE(j.has_result);
  EXPECT_GT(j.cancels, 0u);
  EXPECT_LT(j.nodes, full);  // partial
  // The cancellation bleed accounting survives the service boundary.
  EXPECT_EQ(j.nodes + j.reclaimed, 1 + j.spawned);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---------------------------------------------------------------------------
// Retries: a hang-seeded attempt fails at the watchdog fence, backs off,
// and the hardened retry (transient chaos does not recur) completes.

svc::JobSpec hang_job(int variant) {
  svc::JobSpec s = uts_job(variant, ws::Algo::kUpcTerm);
  // A rank that stalls "forever": fail-stop proxy that starves termination
  // until the watchdog aborts the attempt.
  s.faults.stall_ns = 1'000'000'000'000ull;
  s.faults.stall_period_ns = 10'000;
  s.faults.stall_rank = 1;
  s.watchdog_ns = 5'000'000;  // tight fence so tests stay fast
  return s;
}

TEST(Retry, HangThenHardenedRetryCompletes) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  svc::JobSpec spec = hang_job(2);
  spec.max_retries = 2;
  const auto id = s.submit(spec, 0);
  s.drain();
  const auto& j = s.job(id);
  EXPECT_EQ(j.state, svc::JobState::kCompleted) << j.error;
  EXPECT_EQ(j.attempts, 2);  // one hang, one clean retry
  EXPECT_TRUE(j.error.empty());
  EXPECT_EQ(j.nodes, uts::search_sequential(j.spec.tree)->nodes);
  // The failed attempt occupied the pool for the watchdog fence, and the
  // retry waited out the backoff: latency reflects both.
  EXPECT_GE(j.finish_ns - j.arrival_ns, j.spec.watchdog_ns);
  // History shows the full arc: queued -> running -> queued -> running ->
  // completed, with exactly one terminal entry (the oracle re-checks this).
  ASSERT_EQ(j.history.size(), 5u);
  EXPECT_EQ(j.history[2].second, svc::JobState::kQueued);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Retry, BudgetExhaustedIsTerminal) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  svc::JobSpec spec = hang_job(2);
  spec.max_retries = 0;  // no second chance
  const auto id = s.submit(spec, 0);
  s.drain();
  const auto& j = s.job(id);
  EXPECT_EQ(j.state, svc::JobState::kRetriesExhausted);
  EXPECT_EQ(j.attempts, 1);
  EXPECT_FALSE(j.error.empty());  // the hang report is preserved
  EXPECT_FALSE(j.has_result);
  EXPECT_EQ(j.ranks_held, 0);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Retry, DeadlineCapsTheRetryLadder) {
  pgas::SimEngine eng;
  svc::Service s(eng, small_pool(4));
  svc::JobSpec spec = hang_job(2);
  spec.max_retries = 5;
  spec.deadline_ns = spec.watchdog_ns / 2;  // dies during attempt 1
  const auto id = s.submit(spec, 0);
  s.drain();
  const auto& j = s.job(id);
  // The first attempt hangs regardless of the deadline (the stalled rank
  // never reaches a cancellation point), the watchdog reclaims the pool,
  // and the queued retry is then cancelled at dispatch: deadline beats
  // the remaining retry budget.
  EXPECT_EQ(j.state, svc::JobState::kCancelled);
  EXPECT_EQ(j.attempts, 1);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---------------------------------------------------------------------------
// Pool degradation and repair.

TEST(Pool, CrashDegradesThenRepairs) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg = small_pool(6);
  cfg.repair_ns = 10'000'000;
  svc::Service s(eng, cfg);

  svc::JobSpec crashy = uts_job(3);
  crashy.steal_timeout_ns = 30'000;  // hardened: absorb the crash in-run
  pgas::CrashSpec c;
  c.rank = 2;
  c.at_ns = 10'000;
  crashy.faults.crashes.push_back(c);
  const auto first = s.submit(crashy, 0);
  const auto second = s.submit(uts_job(4), 0);  // runs while slot is down
  s.drain();
  ASSERT_EQ(s.job(first).state, svc::JobState::kCompleted);
  EXPECT_EQ(s.job(first).ranks_used, 6);
  EXPECT_EQ(s.job(first).crashes, 1u);
  ASSERT_EQ(s.job(second).state, svc::JobState::kCompleted);
  EXPECT_EQ(s.job(second).ranks_used, 5)
      << "job after a crash must degrade to the surviving slots";

  // After repair the pool is whole again.
  const auto third =
      s.submit(uts_job(5), s.job(first).finish_ns + cfg.repair_ns + 1);
  s.drain();
  ASSERT_EQ(s.job(third).state, svc::JobState::kCompleted);
  EXPECT_EQ(s.job(third).ranks_used, 6);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Pool, MinRanksWaitsForRepair) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg = small_pool(4);
  cfg.repair_ns = 20'000'000;
  svc::Service s(eng, cfg);
  svc::JobSpec crashy = uts_job(3);
  crashy.steal_timeout_ns = 30'000;
  pgas::CrashSpec c;
  c.rank = 1;
  c.at_ns = 10'000;
  crashy.faults.crashes.push_back(c);
  const auto first = s.submit(crashy, 0);
  svc::JobSpec picky = uts_job(4);
  picky.min_ranks = 4;  // needs the whole pool: must wait out the repair
  const auto second = s.submit(picky, 0);
  s.drain();
  ASSERT_EQ(s.job(first).state, svc::JobState::kCompleted);
  ASSERT_EQ(s.job(second).state, svc::JobState::kCompleted);
  EXPECT_EQ(s.job(second).ranks_used, 4);
  EXPECT_GE(s.job(second).start_ns,
            s.job(first).finish_ns + cfg.repair_ns);
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---------------------------------------------------------------------------
// Exactness through the service: every workload, both engines, verified
// against the sequential reference (the service does its own cross-check;
// a mismatch would surface in JobRecord::error).

TEST(Exactness, AllWorkloadsBothEngines) {
  pgas::SimEngine sim;
  pgas::ThreadEngine threads;
  pgas::Engine* engines[] = {&sim, &threads};
  for (pgas::Engine* e : engines) {
    svc::Service s(*e, small_pool(4));
    std::vector<svc::JobId> ids;
    ids.push_back(s.submit(uts_job(1, ws::Algo::kUpcSharedMem), 0));
    svc::JobSpec ks;
    ks.workload = svc::Workload::kKnapsack;
    ks.bnb_size = 18;
    ks.bnb_seed = 7;
    ks.algo = ws::Algo::kMpiWs;
    ids.push_back(s.submit(ks, 0));
    svc::JobSpec mc;
    mc.workload = svc::Workload::kMaxClique;
    mc.bnb_size = 14;
    mc.bnb_seed = 9;
    mc.algo = ws::Algo::kWorkPush;
    ids.push_back(s.submit(mc, 0));
    s.drain();
    for (svc::JobId id : ids) {
      const auto& j = s.job(id);
      EXPECT_EQ(j.state, svc::JobState::kCompleted)
          << svc::workload_name(j.spec.workload);
      EXPECT_TRUE(j.error.empty()) << j.error;  // sequential cross-check
    }
    const auto rep = check::check_jobs(s.views(), s.pool_ranks());
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

// Per-job observer isolation: after N jobs, the observer holds ONLY the
// last job's streams (start_run resets everything per attempt).
TEST(Isolation, ObserverCarriesOnlyTheLastJob) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg = small_pool(6);
  cfg.observe_jobs = true;
  svc::Service s(eng, cfg);
  s.submit(uts_job(1), 0);
  svc::JobSpec crashy = uts_job(2);
  crashy.steal_timeout_ns = 30'000;
  pgas::CrashSpec c;
  c.rank = 1;
  c.at_ns = 10'000;
  crashy.faults.crashes.push_back(c);
  const auto last = s.submit(crashy, 0);
  s.drain();
  EXPECT_EQ(s.job_observer().nranks(), s.job(last).ranks_used)
      << "observer must hold exactly the final attempt's streams";
}

// ---------------------------------------------------------------------------
// The oracle itself must reject corrupted histories (otherwise "oracle
// clean" is vacuous).

TEST(JobOracle, RejectsSeededViolations) {
  using check::JobPhase;
  using check::JobView;

  auto mk = [](std::uint64_t id) {
    JobView v;
    v.id = id;
    v.state = JobPhase::kCompleted;
    v.ranks_used = 2;
    v.history = {{0, JobPhase::kQueued},
                 {10, JobPhase::kRunning},
                 {20, JobPhase::kCompleted}};
    return v;
  };

  {  // clean baseline passes
    const auto rep = check::check_jobs({mk(0), mk(1)}, 4);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
  {  // a job in two terminal states
    auto v = mk(0);
    v.history.push_back({25, JobPhase::kCancelled});
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // leaked ranks on a finished job
    auto v = mk(0);
    v.ranks_held = 2;
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // illegal transition queued -> completed (never ran)
    auto v = mk(0);
    v.history = {{0, JobPhase::kQueued}, {20, JobPhase::kCompleted}};
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // reported state disagrees with history terminal
    auto v = mk(0);
    v.state = JobPhase::kCancelled;
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // timestamps running backwards
    auto v = mk(0);
    v.history[1].first = 30;
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // rejection without a typed reason
    JobView v;
    v.id = 0;
    v.state = JobPhase::kRejected;
    v.reject_reason_set = false;
    v.history = {{0, JobPhase::kRejected}};
    EXPECT_FALSE(check::check_jobs({v}, 4).ok());
  }
  {  // concurrently-running jobs overflow the pool
    auto a = mk(0);
    auto b = mk(1);
    a.ranks_used = b.ranks_used = 3;  // overlap [10,20) holds 6 > 4
    EXPECT_FALSE(check::check_jobs({a, b}, 4).ok());
  }
}

// ---------------------------------------------------------------------------
// Mini soak: mixed workloads, chaos, deadlines, and retries under open-loop
// arrivals — every job terminal, counts add up, oracle clean. (The full
// 200+-job soak with Poisson arrivals lives in examples/service_soak.)

TEST(ServiceSoak, MiniMixedLoadAllTerminal) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg = small_pool(6);
  cfg.queue_cap = 8;
  svc::Service s(eng, cfg);

  std::uint64_t t = 0;
  std::uint64_t rng = 42;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const ws::Algo algos[] = {ws::Algo::kUpcSharedMem, ws::Algo::kUpcTerm,
                            ws::Algo::kUpcTermRapdif, ws::Algo::kUpcDistMem,
                            ws::Algo::kMpiWs, ws::Algo::kWorkPush};
  for (int i = 0; i < 32; ++i) {
    t += next() % 400'000;  // open-loop: arrivals ignore the queue state
    svc::JobSpec spec;
    const auto pick = next() % 10;
    if (pick < 7) {
      spec = uts_job(1 + static_cast<int>(next() % 6));
    } else if (pick < 9) {
      spec.workload = svc::Workload::kKnapsack;
      spec.bnb_size = 14 + static_cast<int>(next() % 4);
      spec.bnb_seed = next();
    } else {
      spec.workload = svc::Workload::kMaxClique;
      spec.bnb_size = 10 + static_cast<int>(next() % 4);
      spec.bnb_seed = next();
    }
    spec.algo = algos[next() % 6];
    spec.chunk = 2 + static_cast<int>(next() % 3);
    spec.run_seed = next();
    if (next() % 4 == 0) {  // a quarter carry chaos
      pgas::CrashSpec c;
      c.rank = 1 + static_cast<int>(next() % 5);
      c.at_ns = 5'000 + next() % 40'000;
      spec.faults.crashes.push_back(c);
      spec.steal_timeout_ns = 30'000;
    }
    if (next() % 5 == 0) spec.deadline_ns = 200'000 + next() % 2'000'000;
    spec.max_retries = 1;
    s.submit(spec, t);
  }
  s.drain();

  const auto sum = s.summary();
  EXPECT_EQ(sum.submitted, 32u);
  EXPECT_EQ(sum.completed + sum.rejected + sum.cancelled +
                sum.retries_exhausted,
            sum.submitted)
      << "every job must land in exactly one terminal state";
  EXPECT_GT(sum.completed, 0u);
  for (const auto& j : s.jobs()) {
    EXPECT_TRUE(svc::state_terminal(j.state)) << "job " << j.id;
    if (j.state == svc::JobState::kCompleted) {
      EXPECT_TRUE(j.error.empty()) << "job " << j.id << ": " << j.error;
    }
  }
  const auto rep = check::check_jobs(s.views(), s.pool_ranks());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

}  // namespace
