// Stats and table tests: state-timer accounting, aggregation arithmetic,
// and the table/CSV formatter.
#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hpp"
#include "stats/table.hpp"

namespace {

using namespace upcws::stats;

TEST(StateTimer, AccumulatesPerState) {
  StateTimer t;
  t.start(State::kWorking, 0);
  t.transition(State::kSearching, 100);
  t.transition(State::kStealing, 150);
  t.transition(State::kWorking, 160);
  t.stop(500);
  EXPECT_EQ(t.ns_in(State::kWorking), 100u + 340u);
  EXPECT_EQ(t.ns_in(State::kSearching), 50u);
  EXPECT_EQ(t.ns_in(State::kStealing), 10u);
  EXPECT_EQ(t.ns_in(State::kTermination), 0u);
  EXPECT_EQ(t.total_ns(), 500u);
}

TEST(StateTimer, SelfTransitionIsNoOp) {
  StateTimer t;
  t.start(State::kWorking, 0);
  t.transition(State::kWorking, 100);  // ignored: same state
  t.transition(State::kSearching, 200);
  t.stop(200);
  EXPECT_EQ(t.ns_in(State::kWorking), 200u);
}

TEST(StateTimer, StateNames) {
  EXPECT_STREQ(state_name(State::kWorking), "working");
  EXPECT_STREQ(state_name(State::kTermination), "termination");
}

TEST(Aggregate, SumsAndRates) {
  std::vector<ThreadStats> per(2);
  per[0].c.nodes = 600;
  per[1].c.nodes = 400;
  per[0].c.steals = 3;
  per[1].c.steals = 7;
  per[0].c.max_depth = 12;
  per[1].c.max_depth = 30;
  per[0].timer.start(State::kWorking, 0);
  per[0].timer.stop(1000);
  per[1].timer.start(State::kSearching, 0);
  per[1].timer.stop(1000);

  // elapsed 1 us; sequential rate 1000 nodes per second.
  const RunStats r = aggregate(per, 1e-6, 1000.0);
  EXPECT_EQ(r.nranks, 2);
  EXPECT_EQ(r.total_nodes, 1000u);
  EXPECT_EQ(r.total_steals, 10u);
  EXPECT_EQ(r.max_depth, 30);
  EXPECT_DOUBLE_EQ(r.nodes_per_sec, 1e9);
  EXPECT_DOUBLE_EQ(r.steals_per_sec, 1e7);
  // t_seq = 1000/1000 = 1s; speedup = 1 / 1e-6 = 1e6; eff = 5e5.
  EXPECT_DOUBLE_EQ(r.speedup, 1e6);
  EXPECT_DOUBLE_EQ(r.efficiency, 5e5);
  // Half the thread-time was working.
  EXPECT_DOUBLE_EQ(r.state_frac[static_cast<int>(State::kWorking)], 0.5);
  EXPECT_DOUBLE_EQ(r.working_frac, 0.5);
}

TEST(Aggregate, EmptyAndZeroSafe) {
  const RunStats r = aggregate({}, 0.0, 0.0);
  EXPECT_EQ(r.total_nodes, 0u);
  EXPECT_EQ(r.speedup, 0.0);
  EXPECT_EQ(r.nodes_per_sec, 0.0);
}

TEST(TableTest, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumericFormatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{12345}), "12345");
  EXPECT_EQ(Table::fmt(-7), "-7");
}

TEST(Aggregate, CrashCountersRollUp) {
  std::vector<ThreadStats> per(3);
  per[0].c.faults.crashes = 1;
  per[1].c.locks_revoked = 2;
  per[1].c.stale_unlocks = 3;
  per[1].c.salvages = 4;
  per[2].c.replays = 5;
  per[2].c.recovered_nodes = 60;
  per[2].c.dedup_drops = 7;
  const RunStats r = aggregate(per, 1e-6, 0.0);
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_EQ(r.total_locks_revoked, 2u);
  EXPECT_EQ(r.total_stale_unlocks, 3u);
  EXPECT_EQ(r.total_salvages, 4u);
  EXPECT_EQ(r.total_replays, 5u);
  EXPECT_EQ(r.total_recovered_nodes, 60u);
  EXPECT_EQ(r.total_dedup_drops, 7u);
}

TEST(RunStatsTest, SummaryIncludesCrashBlockOnlyWhenCrashed) {
  std::vector<ThreadStats> per(2);
  per[0].timer.start(State::kWorking, 0);
  per[0].timer.stop(100);
  const RunStats clean = aggregate(per, 1e-6, 0.0);
  EXPECT_EQ(clean.summary().find("crash["), std::string::npos);

  per[1].c.faults.crashes = 1;
  per[0].c.salvages = 2;
  per[0].c.recovered_nodes = 9;
  const RunStats crashed = aggregate(per, 1e-6, 0.0);
  const std::string s = crashed.summary();
  EXPECT_NE(s.find("crash["), std::string::npos);
  EXPECT_NE(s.find("salvages=2"), std::string::npos);
  EXPECT_NE(s.find("recovered=9"), std::string::npos);
}

TEST(LogHistogramTest, PercentileEdgeCases) {
  LogHistogram h;
  // Empty histogram: every percentile is 0, not garbage.
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);

  h.add(8);
  h.add(9);
  // p at/above 1.0 returns the exact maximum, not a bucket upper bound.
  EXPECT_EQ(h.percentile(1.0), 9u);
  // A tiny p rounds its rank UP to 1 (never 0, which used to report the
  // bucket-0 bound below the minimum) and stays within [min, max].
  EXPECT_GE(h.percentile(0.1), 8u);
  EXPECT_LE(h.percentile(0.1), 9u);

  LogHistogram one;
  one.add(1000);
  EXPECT_EQ(one.percentile(0.001), 1000u);
  EXPECT_EQ(one.percentile(0.5), 1000u);
  EXPECT_EQ(one.percentile(1.0), 1000u);

  // Results never fall outside [min, max] even though buckets are coarse.
  LogHistogram spread;
  for (std::uint64_t v : {3u, 5u, 100u, 1000u, 70000u}) spread.add(v);
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_GE(spread.percentile(p), 3u) << "p=" << p;
    EXPECT_LE(spread.percentile(p), 70000u) << "p=" << p;
  }
}

TEST(RunStatsTest, SummaryMentionsKeyFigures) {
  std::vector<ThreadStats> per(1);
  per[0].c.nodes = 12345;
  per[0].timer.start(State::kWorking, 0);
  per[0].timer.stop(100);
  const RunStats r = aggregate(per, 0.5, 2e6);
  const std::string s = r.summary();
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("speedup"), std::string::npos);
}

TEST(JsonEscape, ShortFormsAndControlCharacters) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nnext\ttab"), "line\\nnext\\ttab");
  EXPECT_EQ(json_escape(std::string("\0\x01\r\x1f", 4)),
            "\\u0000\\u0001\\u000d\\u001f");
  EXPECT_EQ(json_escape("\x7f \xc3\xa9"), "\x7f \xc3\xa9");  // not control
}

}  // namespace
