// Schedule-checker tests: exploration strategies, invariant oracles, the
// seeded claim-CAS bug (find -> shrink -> replay round-trip), and the
// determinism guarantees of the policy hook.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "check/checker.hpp"
#include "check/cli.hpp"
#include "check/oracles.hpp"
#include "check/replay.hpp"
#include "check/strategies.hpp"
#include "pgas/sim_engine.hpp"
#include "sim/scheduler.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

// The tuned seeded-bug scenario (same as schedule_check --budget-smoke):
// rank 0 dies inside an early grant-service window, leaving a pending
// lineage record that a live thief and a recovering survivor race for.
check::CheckSpec bug_spec() {
  check::CheckSpec s;
  s.algo = ws::Algo::kUpcDistMem;
  s.nranks = 4;
  s.chunk = 2;
  s.tree = uts::test_small(0);
  s.faults.crashes.push_back({0, 10'000, pgas::CrashSpec::Where::kAnywhere});
  s.bug_weak_claim = true;
  return s;
}

check::CheckSpec clean_spec() {
  check::CheckSpec s = bug_spec();
  s.bug_weak_claim = false;
  return s;
}

// ---- strategy units ----

TEST(CheckStrategies, RandomWalkDeterministicPerSeed) {
  const std::vector<sim::Candidate> c3 = {{100, 0}, {100, 1}, {120, 2}};
  const std::vector<sim::Candidate> c1 = {{50, 1}};
  check::RandomWalkPolicy a(7), b(7), other(8);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.pick(c1), 0u);  // single candidate: forced move
    const std::size_t pa = a.pick(c3);
    EXPECT_LT(pa, c3.size());
    EXPECT_EQ(pa, b.pick(c3));  // same seed, same walk
    b.pick(c1);
    if (other.pick(c3) != pa) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seed explores differently
}

TEST(CheckStrategies, PctPicksValidAndDeterministic) {
  const std::vector<sim::Candidate> cand = {{10, 0}, {10, 1}, {10, 2}, {11, 3}};
  check::PctPolicy a(42, 4, 3, 200), b(42, 4, 3, 200);
  for (int i = 0; i < 300; ++i) {
    const std::size_t pa = a.pick(cand);
    ASSERT_LT(pa, cand.size());
    EXPECT_EQ(pa, b.pick(cand));
  }
}

TEST(CheckStrategies, ReplayFollowsTrailThenDefaults) {
  const std::vector<sim::Candidate> c4 = {{5, 0}, {5, 1}, {5, 2}, {5, 3}};
  const std::vector<sim::Candidate> c1 = {{5, 2}};
  check::ReplayPolicy rp({2, 0, 3});
  EXPECT_EQ(rp.pick(c1), 0u);  // forced moves don't consume the trail
  EXPECT_EQ(rp.pick(c4), 2u);
  EXPECT_EQ(rp.pick(c1), 0u);
  EXPECT_EQ(rp.pick(c4), 0u);
  EXPECT_EQ(rp.pick(c4), 3u);
  EXPECT_EQ(rp.pick(c4), 0u);  // beyond the trail: default order
  EXPECT_EQ(rp.steps(), 4u);
}

TEST(CheckStrategies, ReplayClampsOutOfRangeChoice) {
  // A choice index >= the number of candidates (e.g. a trail from a run
  // whose branching differed) must degrade to the default, not crash.
  check::ReplayPolicy rp({9});
  const std::vector<sim::Candidate> c2 = {{5, 0}, {5, 1}};
  EXPECT_EQ(rp.pick(c2), 0u);
}

// ---- oracle battery ----

TEST(CheckOracles, DefaultBatteryHasTheFiveInvariants) {
  const auto os = check::default_oracles();
  ASSERT_EQ(os.size(), 5u);
  std::set<std::string> names;
  for (const auto& o : os) names.insert(o->name());
  EXPECT_TRUE(names.count("node-conservation"));
  EXPECT_TRUE(names.count("lock-epoch"));
  EXPECT_TRUE(names.count("barrier-work"));
  EXPECT_TRUE(names.count("steal-conservation"));
  EXPECT_TRUE(names.count("membership-safety"));
}

TEST(CheckOracles, NodeConservationFlagsBothDirections) {
  check::NodeConservationOracle o;
  ws::SearchResult res;
  res.agg.total_nodes = 700;
  check::EndProbe p;
  p.result = &res;
  p.expected_nodes = 721;
  EXPECT_THROW(o.on_end(p), check::OracleViolation);  // loss
  res.agg.total_nodes = 730;
  try {
    o.on_end(p);
    FAIL() << "double-count not flagged";
  } catch (const check::OracleViolation& v) {
    EXPECT_EQ(v.oracle, std::string("node-conservation"));
    EXPECT_NE(v.message.find("double-count"), std::string::npos);
  }
  res.agg.total_nodes = 721;
  EXPECT_NO_THROW(o.on_end(p));
}

// A clean (correct-protocol) crash run passes the whole battery under the
// default schedule and under a perturbed one.
TEST(CheckOracles, CleanCrashRunPassesAllOracles) {
  const auto oracles = check::default_oracles();
  const check::CheckSpec spec = clean_spec();
  check::RunOutcome o =
      check::run_schedule(spec, nullptr, 100'000, &oracles);
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.violated) << o.oracle << ": " << o.message;
  EXPECT_GT(o.trail.size(), 0u);  // the run has real scheduling freedom

  check::RandomWalkPolicy rw(3);
  o = check::run_schedule(spec, &rw, 100'000, &oracles);
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.violated) << o.oracle << ": " << o.message;
}

// All four oracles also hold along every step of a crash-free locked-
// protocol run (exercising the lock-epoch probe against real lock words).
TEST(CheckOracles, LockedProtocolRunPassesAllOracles) {
  const auto oracles = check::default_oracles();
  check::CheckSpec spec;
  spec.algo = ws::Algo::kUpcSharedMem;
  spec.nranks = 4;
  spec.chunk = 2;
  spec.tree = uts::test_small(0);
  check::RandomWalkPolicy rw(11);
  const check::RunOutcome o =
      check::run_schedule(spec, &rw, 100'000, &oracles);
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.violated) << o.oracle << ": " << o.message;
}

// ---- decision trail semantics ----

TEST(CheckTrail, RecordsOnlyRealDecisionsInOrder) {
  const auto oracles = check::default_oracles();
  check::RandomWalkPolicy rw(1);
  const check::RunOutcome o =
      check::run_schedule(clean_spec(), &rw, 100'000, &oracles);
  ASSERT_GT(o.trail.size(), 0u);
  std::uint32_t prev_step = 0;
  for (std::size_t i = 0; i < o.trail.size(); ++i) {
    const sim::Decision& d = o.trail[i];
    EXPECT_GE(d.n_candidates, 2u);         // forced moves are not decisions
    EXPECT_LT(d.choice, d.n_candidates);   // choice indexes the candidates
    if (i > 0) {
      EXPECT_GT(d.step, prev_step);
    }
    prev_step = d.step;
  }
  EXPECT_EQ(o.choices.size(), o.trail.size());
}

// The default policy path keeps runs byte-identical: a policy that always
// answers "0" reproduces the no-policy run exactly (same virtual makespan,
// same switch count, same node total).
TEST(CheckTrail, DefaultChoicesReproduceTheUnpolicedRun) {
  const check::CheckSpec spec = clean_spec();
  const check::RunOutcome plain =
      check::run_schedule(spec, nullptr, 0, nullptr);
  ASSERT_TRUE(plain.completed);

  check::ReplayPolicy rp({});  // empty trail: default order everywhere
  const check::RunOutcome rep = check::run_schedule(spec, &rp, 0, nullptr);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.nodes, plain.nodes);
  EXPECT_EQ(rep.elapsed_s, plain.elapsed_s);
  EXPECT_EQ(rep.switches, plain.switches);
}

// Replaying a recorded trail reproduces the recorded schedule exactly.
TEST(CheckTrail, RecordedTrailReplaysToSameRun) {
  const check::CheckSpec spec = clean_spec();
  check::RandomWalkPolicy rw(5);
  const check::RunOutcome a = check::run_schedule(spec, &rw, 100'000, nullptr);
  ASSERT_TRUE(a.completed);
  ASSERT_GT(a.choices.size(), 0u);

  check::ReplayPolicy rp(a.choices);
  const check::RunOutcome b = check::run_schedule(spec, &rp, 100'000, nullptr);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(b.nodes, a.nodes);
  EXPECT_EQ(b.elapsed_s, a.elapsed_s);
  EXPECT_EQ(b.switches, a.switches);
  EXPECT_EQ(b.choices, a.choices);
}

// ---- satellite: hang reports carry the decision trail ----

TEST(CheckHangReport, IncludesRecentScheduleDecisions) {
  check::RandomWalkPolicy rw(1);
  sim::Scheduler::Config scfg;
  scfg.watchdog_ns = 10'000;
  scfg.policy = &rw;
  scfg.policy_window_ns = 100'000;
  sim::Scheduler sched(scfg);
  for (int t = 0; t < 3; ++t)
    sched.spawn([] {
      auto& s = sim::Scheduler::current();
      s.note_progress();
      for (int i = 0; i < 10'000; ++i) {  // spin without progress: livelock
        s.advance(100);
        s.yield();
      }
    });
  try {
    sched.run();
    FAIL() << "watchdog did not fire";
  } catch (const sim::HangDetected& h) {
    const std::string report = h.what();
    EXPECT_NE(report.find("schedule decisions"), std::string::npos) << report;
    EXPECT_NE(report.find("choice "), std::string::npos);
  }
  EXPECT_GT(sched.decisions().size(), 0u);
}

// ---- the three exploration strategies on a correct configuration ----

class CheckStrategiesClean : public testing::TestWithParam<check::Strategy> {};

TEST_P(CheckStrategiesClean, FindsNothingOnCorrectProtocol) {
  check::CheckConfig cc;
  cc.strategy = GetParam();
  cc.budget = 6;
  const check::CheckResult r = check::check(clean_spec(), cc);
  EXPECT_FALSE(r.found) << r.violation.oracle << ": " << r.violation.message;
  EXPECT_EQ(r.schedules_run, 6);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, CheckStrategiesClean,
                         testing::Values(check::Strategy::kRandom,
                                         check::Strategy::kPct,
                                         check::Strategy::kDfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case check::Strategy::kRandom: return "Random";
                             case check::Strategy::kPct: return "Pct";
                             case check::Strategy::kDfs: return "Dfs";
                           }
                           return "Unknown";
                         });

TEST(CheckDfs, EnumeratesDistinctSchedulesUnderPrefixDepth) {
  check::CheckConfig cc;
  cc.strategy = check::Strategy::kDfs;
  cc.budget = 12;
  cc.dfs_depth = 8;
  const check::CheckResult r = check::check(clean_spec(), cc);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.schedules_run, 12);
  // Distinct prefixes induce distinct schedules; pruning only collapses
  // duplicates, of which a fresh frontier has few.
  EXPECT_GE(r.distinct_states, 2u);
  EXPECT_LE(r.distinct_states, static_cast<std::uint64_t>(r.schedules_run));
}

// ---- the seeded bug: find -> shrink -> replay (acceptance criterion) ----

class SeededBug : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    check::CheckConfig cc;
    cc.strategy = check::Strategy::kRandom;
    cc.budget = 40;
    result_ = new check::CheckResult(check::check(bug_spec(), cc));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static check::CheckResult* result_;
};

check::CheckResult* SeededBug::result_ = nullptr;

TEST_F(SeededBug, FoundWithinSmokeBudget) {
  ASSERT_TRUE(result_->found);
  EXPECT_EQ(result_->violation.oracle, "node-conservation");
  EXPECT_NE(result_->violation.message.find("double-count"),
            std::string::npos);
  EXPECT_LE(result_->schedules_run, 40);
}

TEST_F(SeededBug, ShrinkReducesTheTrail) {
  ASSERT_TRUE(result_->found);
  const auto& v = result_->violation;
  EXPECT_LT(v.trail.size(), v.original.size());
  std::size_t nondefault = 0;
  for (std::uint16_t c : v.trail)
    if (c != 0) ++nondefault;
  EXPECT_GE(nondefault, 1u);
  EXPECT_GT(result_->shrink_runs, 0);
}

TEST_F(SeededBug, MinimalTrailIsOneMinimal) {
  ASSERT_TRUE(result_->found);
  const auto& minimal = result_->violation.trail;
  const auto oracles = check::default_oracles();
  // The minimal trail still reproduces...
  {
    check::ReplayPolicy rp(minimal);
    const check::RunOutcome o =
        check::run_schedule(bug_spec(), &rp, 100'000, &oracles);
    ASSERT_TRUE(o.violated);
    EXPECT_EQ(o.oracle, "node-conservation");
  }
  // ...and zeroing any single remaining non-default decision breaks it.
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    if (minimal[i] == 0) continue;
    std::vector<std::uint16_t> without = minimal;
    without[i] = 0;
    check::ReplayPolicy rp(without);
    const check::RunOutcome o =
        check::run_schedule(bug_spec(), &rp, 100'000, &oracles);
    EXPECT_FALSE(o.violated && o.oracle == "node-conservation")
        << "decision at position " << i << " is redundant";
  }
}

TEST_F(SeededBug, ReplayFileRoundTripReproducesSameViolation) {
  ASSERT_TRUE(result_->found);
  check::ReplayFile rf;
  rf.spec = bug_spec();
  rf.window_ns = 100'000;
  rf.oracle = result_->violation.oracle;
  rf.trail = result_->violation.trail;

  std::stringstream ss;
  check::write_replay(ss, rf);
  const check::ReplayFile loaded = check::read_replay(ss);

  EXPECT_EQ(loaded.spec.algo, rf.spec.algo);
  EXPECT_EQ(loaded.spec.nranks, rf.spec.nranks);
  EXPECT_EQ(loaded.spec.tree.q, rf.spec.tree.q);  // bit-exact double
  EXPECT_EQ(loaded.spec.bug_weak_claim, true);
  ASSERT_EQ(loaded.spec.faults.crashes.size(), 1u);
  EXPECT_EQ(loaded.spec.faults.crashes[0].rank, 0);
  EXPECT_EQ(loaded.oracle, "node-conservation");
  EXPECT_EQ(loaded.trail, rf.trail);

  // One run from the file alone reproduces the violation deterministically
  // — twice, to rule out hidden state.
  for (int i = 0; i < 2; ++i) {
    const check::RunOutcome o = check::run_replay(loaded);
    EXPECT_TRUE(o.violated);
    EXPECT_EQ(o.oracle, "node-conservation");
    EXPECT_TRUE(check::replay_matches(loaded, o));
  }
}

TEST(CheckReplayFile, RejectsMalformedInput) {
  {
    std::stringstream ss("not a replay file\n");
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("upcws-replay v1\nalgo upc-distmem\n");  // no trail
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("upcws-replay v1\nfrobnicate 3\ntrail 1\n");
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument);
  }
  // A key whose value is missing or cut short used to keep the default.
  for (const char* line : {"nranks", "run-seed", "stall 100"}) {
    std::stringstream ss(std::string("upcws-replay v1\n") + line +
                         "\ntrail\n");
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument) << line;
  }
  // A choice is a 16-bit index: a larger or negative one is refused, not
  // wrapped.
  for (const char* trail : {"trail 65536", "trail -1", "trail 3 65536 -1"}) {
    std::stringstream ss(std::string("upcws-replay v1\n") + trail + "\n");
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument) << trail;
  }
  std::stringstream ok("upcws-replay v1\ntrail 0 65535 7\n");
  EXPECT_EQ(check::read_replay(ok).trail,
            (std::vector<std::uint16_t>{0, 65535, 7}));
}

TEST(CheckReplayFile, RejectsPlansTheRunCannotHold) {
  // A crash of a rank the 4-rank run lacks would never fire, and a negative
  // crash time used to wrap to a huge one: both make a replay that checks
  // nothing, so the reader refuses them.
  for (const char* crash : {"crash 9@100 anywhere", "crash 1@-5 anywhere"}) {
    std::stringstream ss(std::string("upcws-replay v1\nnranks 4\n") + crash +
                         "\ntrail\n");
    EXPECT_THROW(check::read_replay(ss), std::invalid_argument) << crash;
  }
  std::stringstream ok("upcws-replay v1\nnranks 4\ncrash 3@100 anywhere\n"
                       "trail\n");
  EXPECT_EQ(check::read_replay(ok).spec.faults.crashes.at(0).rank, 3);
}

TEST(CheckParse, StrictValuesAndSpecs) {
  EXPECT_EQ(check::parse_uint<int>("42", "-n"), 42);
  EXPECT_EQ(check::parse_real("0.45", "-q"), 0.45);
  for (const char* bad : {"-5", "3x", "", " 7", "+7"})
    EXPECT_THROW(check::parse_uint<std::uint64_t>(bad, "-S"),
                 std::invalid_argument)
        << bad;
  EXPECT_THROW(check::parse_uint<int>("4294967296", "-n"),
               std::invalid_argument);
  for (const char* bad : {"-1", "1.5x", "", "nan", "inf"})
    EXPECT_THROW(check::parse_real(bad, "--watchdog-ms"),
                 std::invalid_argument)
        << bad;

  const auto list = check::parse_rank_at_list("1@100,3@200", "--crash");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[1], (std::pair<int, std::uint64_t>{3, 200}));
  for (const char* bad : {"1@-5", "1@", "@5", "1@5,", "1-5"})
    EXPECT_THROW(check::parse_rank_at_list(bad, "--crash"),
                 std::invalid_argument)
        << bad;
  try {
    check::parse_rank_at("1@-5", "--crash");
    ADD_FAILURE() << "1@-5 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("bad --crash spec", 0), 0u);
  }

  pgas::FaultPlan plan;
  check::parse_stall("100", "--stall", plan);
  EXPECT_EQ(plan.stall_period_ns, 1000u);  // PERIOD defaults to 10*DUR
  EXPECT_EQ(plan.stall_rank, -1);
  check::parse_stall("100:300:2", "--stall", plan);
  EXPECT_EQ(plan.stall_period_ns, 300u);
  EXPECT_EQ(plan.stall_rank, 2);
  for (const char* bad : {"0", "100:", "1:2:3:4", "100:-1"})
    EXPECT_THROW(check::parse_stall(bad, "--stall", plan),
                 std::invalid_argument)
        << bad;
  check::parse_partitions("3:10:20,1:30:40", "--partition", plan);
  ASSERT_EQ(plan.partitions.size(), 2u);
  EXPECT_EQ(plan.partitions[1].heal_ns, 40u);
  EXPECT_THROW(check::parse_partitions("3:10", "--partition", plan),
               std::invalid_argument);
}

TEST(CheckParse, FaultPlanRulesNameTheItem) {
  auto message = [](const pgas::FaultPlan& p, int n, ws::Algo a) {
    try {
      check::validate_faults(p, n, a);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("valid");
  };
  const ws::Algo dist = ws::Algo::kUpcDistMem;
  pgas::FaultPlan p;
  EXPECT_EQ(message(p, 4, dist), "valid");
  p.crashes.push_back({9, 100});
  EXPECT_EQ(message(p, 4, dist), "crash rank 9 out of range [0,4)");
  p = {};
  p.crashes.push_back({1, 100});
  EXPECT_EQ(message(p, 4, dist), "valid");
  EXPECT_EQ(message(p, 4, ws::Algo::kWorkPush).rfind("crash needs", 0), 0u);
  p = {};
  p.dup_prob = 0.1;
  EXPECT_EQ(message(p, 4, ws::Algo::kWorkPush).rfind("dup-prob needs", 0),
            0u);
  p.dup_prob = 1.5;
  EXPECT_EQ(message(p, 4, dist).rfind("dup-prob must", 0), 0u);
  p = {};
  p.stall_ns = p.stall_period_ns = 100;
  p.stall_rank = 4;
  EXPECT_EQ(message(p, 4, dist).rfind("stall rank 4", 0), 0u);
  p.stall_rank = -1;
  EXPECT_EQ(message(p, 4, dist), "valid");
  p = {};
  p.drains.push_back({-1, 100});
  EXPECT_EQ(message(p, 4, dist).rfind("drain rank -1", 0), 0u);
  p = {};
  p.joins.push_back({0, 100});
  EXPECT_EQ(message(p, 4, dist).rfind("join rank 0 is invalid", 0), 0u);
  for (const pgas::PartitionSpec& bad :
       {pgas::PartitionSpec{3, 9, 9}, pgas::PartitionSpec{16, 1, 9},
        pgas::PartitionSpec{15, 1, 9}, pgas::PartitionSpec{0, 1, 9}}) {
    p = {};
    p.partitions.push_back(bad);
    EXPECT_EQ(message(p, 4, dist).rfind("partition", 0), 0u);
  }
  p.partitions = {{5, 1, 9}};
  EXPECT_EQ(message(p, 4, dist), "valid");
}

TEST(CheckReplayFile, CleanExpectationMatchesOnlyCleanRuns) {
  check::ReplayFile rf;
  rf.spec = clean_spec();
  rf.oracle = "none";
  const check::RunOutcome o = check::run_replay(rf);
  EXPECT_TRUE(o.completed);
  EXPECT_TRUE(check::replay_matches(rf, o));
  rf.oracle = "node-conservation";
  EXPECT_FALSE(check::replay_matches(rf, o));
}

}  // namespace
