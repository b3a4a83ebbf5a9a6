// Trace subsystem tests: recording, merging, export formats, and
// consistency of traces captured from real runs (every successful steal has
// a matching grant in the lock-less protocol, state timelines are
// well-formed).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pgas/sim_engine.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

TEST(TraceUnit, MergedSortsByTime) {
  trace::Trace t(2);
  t.state(1, 50, stats::State::kSearching);
  t.state(0, 10, stats::State::kWorking);
  t.steal(1, 30, 0, 8, true);
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].t_ns, 10u);
  EXPECT_EQ(all[1].t_ns, 30u);
  EXPECT_EQ(all[2].t_ns, 50u);
  EXPECT_EQ(t.total_events(), 3u);
}

TEST(TraceUnit, CsvFormat) {
  trace::Trace t(1);
  t.state(0, 5, stats::State::kWorking);
  t.release(0, 9, 16);
  std::ostringstream os;
  t.write_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("t_ns,rank,kind,arg0,arg1"), std::string::npos);
  EXPECT_NE(s.find("5,0,state,0,0"), std::string::npos);
  EXPECT_NE(s.find("9,0,release,0,16"), std::string::npos);
}

TEST(TraceUnit, RingCapacityBoundsBuffersAndCountsDrops) {
  trace::Trace t(2);
  t.set_ring_capacity(4);
  EXPECT_EQ(t.ring_capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.release(0, 100 * (i + 1), static_cast<std::int64_t>(i));
  t.state(1, 5, stats::State::kWorking);  // under capacity: nothing dropped
  EXPECT_EQ(t.total_events(), 5u);
  EXPECT_EQ(t.dropped_events(), 6u);
  // The ring keeps the NEWEST events, unrolled oldest-first.
  const auto kept = t.ordered(0);
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].arg1, static_cast<std::int64_t>(6 + i));
    if (i > 0) {
      EXPECT_LT(kept[i - 1].t_ns, kept[i].t_ns);
    }
  }
  // merged() sees the same retained set, still time-sorted.
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].t_ns, all[i].t_ns);
}

TEST(TraceUnit, ChromeJsonEmitsFlowEvents) {
  trace::Trace t(2);
  t.state(0, 0, stats::State::kWorking);
  t.state(1, 0, stats::State::kWorking);
  t.finish(0, 500);
  t.finish(1, 500);
  const std::vector<trace::FlowEvent> flows = {
      {77, 100, 0, 's'}, {77, 200, 1, 't'}, {77, 300, 0, 'f'}};
  std::ostringstream os;
  t.write_chrome_json(os, flows);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"steal\""), std::string::npos);
  EXPECT_NE(s.find("\"id\":77"), std::string::npos);
  // Binding point "enclosing slice" on the finish step only.
  EXPECT_NE(s.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_EQ(s.find("\"bp\":\"e\""), s.rfind("\"bp\":\"e\""));
}

TEST(TraceUnit, ChromeJsonWellFormedBrackets) {
  trace::Trace t(2);
  t.state(0, 0, stats::State::kWorking);
  t.state(0, 100, stats::State::kSearching);
  t.finish(0, 150);
  t.steal(1, 50, 0, 4, false);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_EQ(s[s.size() - 2], ']');  // trailing newline after ]
  EXPECT_NE(s.find("\"name\":\"working\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"steal_fail\""), std::string::npos);
  // Balanced braces (crude JSON sanity).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST(TraceUnit, ChromeJsonExactBytes) {
  // Every row shape of the export, pinned byte for byte: state slices
  // (a zero-length one skipped, the last one closed by finish), instant
  // rows with peer and nodes, and s/t/f flow steps with bp:"e" on the
  // finish. Timestamps are microseconds printed as %.6f.
  trace::Trace t(2);
  t.state(0, 0, stats::State::kWorking);
  t.state(0, 1500, stats::State::kSearching);
  t.state(0, 1500, stats::State::kStealing);
  t.steal(0, 1700, 1, 4, true);
  t.state(0, 2001, stats::State::kWorking);
  t.finish(0, 3250);
  t.state(1, 7, stats::State::kSearching);
  t.service(1, 1690, 0, 4, true);
  t.fault(1, 2500, trace::Kind::kStall, 12345);
  t.finish(1, 1234567891);
  const std::vector<trace::FlowEvent> flows = {
      {5, 1500, 0, 's'}, {5, 1690, 1, 't'}, {5, 1700, 0, 'f'}};
  std::ostringstream os;
  t.write_chrome_json(os, flows);
  EXPECT_EQ(
      os.str(),
      "[\n"
      R"({"name":"working","ph":"X","ts":0.000000,"dur":1.500000,"pid":0,"tid":0},)"
      "\n"
      R"({"name":"stealing","ph":"X","ts":1.500000,"dur":0.501000,"pid":0,"tid":0},)"
      "\n"
      R"({"name":"working","ph":"X","ts":2.001000,"dur":1.249000,"pid":0,"tid":0},)"
      "\n"
      R"({"name":"steal_ok","ph":"i","s":"t","ts":1.700000,"pid":0,"tid":0,"args":{"peer":1,"nodes":4}},)"
      "\n"
      R"({"name":"searching","ph":"X","ts":0.007000,"dur":1234567.884000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"service_grant","ph":"i","s":"t","ts":1.690000,"pid":0,"tid":1,"args":{"peer":0,"nodes":4}},)"
      "\n"
      R"({"name":"stall","ph":"i","s":"t","ts":2.500000,"pid":0,"tid":1,"args":{"peer":0,"nodes":12345}},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"s","id":5,"ts":1.500000,"pid":0,"tid":0},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"t","id":5,"ts":1.690000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"f","id":5,"ts":1.700000,"pid":0,"tid":0,"bp":"e"})"
      "\n]\n");
}

TEST(TraceUnit, ChromeJsonLargeExportMatchesPrintf) {
  // An export far past one output buffer: every state slice must equal
  // the row printf("%.6f") timestamps give, in order, with nothing lost
  // or repeated across buffer flushes.
  constexpr int kRanks = 3;
  constexpr std::uint64_t kStates = 4'000;
  trace::Trace t(kRanks);
  std::uint64_t seed = 12345;
  std::vector<std::uint64_t> times;
  for (std::uint64_t i = 0; i <= kStates; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    times.push_back(i * 1'000'000'007ULL + (seed >> 40));
  }
  for (int r = 0; r < kRanks; ++r) {
    for (std::uint64_t i = 0; i < kStates; ++i)
      t.state(r, times[i], static_cast<stats::State>(i % 4));
    t.finish(r, times[kStates]);
  }
  std::ostringstream os;
  t.write_chrome_json(os);
  std::string want = "[\n";
  char row[160];
  for (int r = 0; r < kRanks; ++r) {
    for (std::uint64_t i = 0; i < kStates; ++i) {
      std::snprintf(
          row, sizeof row,
          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%f,\"dur\":%f,\"pid\":0,"
          "\"tid\":%d}",
          stats::state_name(static_cast<stats::State>(i % 4)),
          static_cast<double>(times[i]) / 1000.0,
          static_cast<double>(times[i + 1] - times[i]) / 1000.0, r);
      if (r > 0 || i > 0) want += ",\n";
      want += row;
    }
  }
  want += "\n]\n";
  EXPECT_EQ(os.str().size(), want.size());
  EXPECT_TRUE(os.str() == want);
}

TEST(TraceUnit, KindNames) {
  EXPECT_STREQ(trace::kind_name(trace::Kind::kStealOk), "steal_ok");
  EXPECT_STREQ(trace::kind_name(trace::Kind::kServiceDeny), "service_deny");
  EXPECT_STREQ(trace::kind_name(trace::Kind::kRankCrashed), "rank_crashed");
  EXPECT_STREQ(trace::kind_name(trace::Kind::kLockRevoked), "lock_revoked");
  EXPECT_STREQ(trace::kind_name(trace::Kind::kWorkRecovered),
               "work_recovered");
}

// Every enum value in declaration order, paired with its wire name. A new
// Kind must be added here (and below) or the round-trip tests fail.
const std::pair<trace::Kind, const char*> kAllKinds[] = {
    {trace::Kind::kState, "state"},
    {trace::Kind::kStealOk, "steal_ok"},
    {trace::Kind::kStealFail, "steal_fail"},
    {trace::Kind::kRelease, "release"},
    {trace::Kind::kServiceGrant, "service_grant"},
    {trace::Kind::kServiceDeny, "service_deny"},
    {trace::Kind::kStealTimeout, "steal_timeout"},
    {trace::Kind::kRetransmit, "retransmit"},
    {trace::Kind::kStall, "stall"},
    {trace::Kind::kSpike, "spike"},
    {trace::Kind::kMsgDrop, "msg_drop"},
    {trace::Kind::kMsgDup, "msg_dup"},
    {trace::Kind::kRankCrashed, "rank_crashed"},
    {trace::Kind::kLockRevoked, "lock_revoked"},
    {trace::Kind::kWorkRecovered, "work_recovered"},
    {trace::Kind::kDrain, "drain"},
    {trace::Kind::kJoin, "join"},
    {trace::Kind::kPartitionDelay, "partition_delay"},
};

TEST(TraceUnit, AllKindNamesDistinctAndStable) {
  std::set<std::string> seen;
  for (const auto& [kind, name] : kAllKinds) {
    EXPECT_STREQ(trace::kind_name(kind), name);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  // The table above must stay exhaustive: kPartitionDelay is the last
  // enumerator, so its ordinal + 1 is the kind count.
  EXPECT_EQ(std::size(kAllKinds),
            static_cast<std::size_t>(trace::Kind::kPartitionDelay) + 1);
}

TEST(TraceUnit, AllKindsRoundTripThroughCsvAndChrome) {
  trace::Trace t(1);
  std::uint64_t ts = 100;
  for (const auto& [kind, name] : kAllKinds)
    t.record(0, {ts += 100, 0, kind, 7, 21});
  ASSERT_EQ(t.merged().size(), std::size(kAllKinds));

  std::ostringstream csv;
  t.write_csv(csv);
  const std::string s = csv.str();
  std::ostringstream js;
  t.write_chrome_json(js);
  const std::string j = js.str();

  ts = 100;
  for (const auto& [kind, name] : kAllKinds) {
    ts += 100;
    EXPECT_NE(s.find(std::to_string(ts) + ",0," + name + ",7,21"),
              std::string::npos)
        << "CSV missing " << name;
    if (kind == trace::Kind::kState) continue;  // rendered as intervals
    EXPECT_NE(j.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "Chrome JSON missing " << name;
  }
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(TraceUnit, CrashEventsRoundTrip) {
  trace::Trace t(4);
  t.crash(3, 20'000);
  t.revoke(1, 25'000, 3);
  t.recover(2, 30'000, 3, 17);
  const auto all = t.merged();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].kind, trace::Kind::kRankCrashed);
  EXPECT_EQ(all[0].rank, 3);
  EXPECT_EQ(all[1].kind, trace::Kind::kLockRevoked);
  EXPECT_EQ(all[1].rank, 1);
  EXPECT_EQ(all[1].arg0, 3);  // dead holder whose lease was broken
  EXPECT_EQ(all[2].kind, trace::Kind::kWorkRecovered);
  EXPECT_EQ(all[2].rank, 2);
  EXPECT_EQ(all[2].arg0, 3);   // recovered-from rank
  EXPECT_EQ(all[2].arg1, 17);  // nodes reintroduced

  std::ostringstream csv;
  t.write_csv(csv);
  const std::string s = csv.str();
  EXPECT_NE(s.find("20000,3,rank_crashed,0,0"), std::string::npos);
  EXPECT_NE(s.find("25000,1,lock_revoked,3,0"), std::string::npos);
  EXPECT_NE(s.find("30000,2,work_recovered,3,17"), std::string::npos);

  std::ostringstream js;
  t.write_chrome_json(js);
  const std::string j = js.str();
  EXPECT_NE(j.find("\"name\":\"rank_crashed\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"work_recovered\""), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
}

TEST(TracedCrashRun, CrashAndRecoveryEventsMatchStats) {
  const uts::Params p = uts::test_small(5);
  const ws::UtsProblem prob(p);
  trace::Trace tr(8);
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.watchdog_ns = 50'000'000'000ull;
  rcfg.faults.crashes.push_back({3, 20'000, pgas::CrashSpec::Where::kAnywhere});
  rcfg.faults.crash_detect_ns = 5'000;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
  cfg.steal_timeout_ns = 30'000;
  cfg.trace = &tr;
  const auto r = ws::run_search(eng, rcfg, prob, cfg);

  std::uint64_t crashes = 0, recovered = 0;
  for (const auto& e : tr.merged()) {
    if (e.kind == trace::Kind::kRankCrashed) {
      ++crashes;
      EXPECT_EQ(e.rank, 3);
      EXPECT_GE(e.t_ns, 20'000u);
    }
    if (e.kind == trace::Kind::kWorkRecovered)
      recovered += static_cast<std::uint64_t>(e.arg1);
  }
  EXPECT_EQ(crashes, r.agg.total_crashes);
  EXPECT_EQ(crashes, 1u);
  EXPECT_EQ(recovered, r.agg.total_recovered_nodes);
}

class TracedRun : public testing::Test {
 protected:
  void SetUp() override {
    const uts::Params p = uts::scaled_medium(3);
    prob_ = std::make_unique<ws::UtsProblem>(p);
    tr_ = std::make_unique<trace::Trace>(8);
    pgas::SimEngine eng;
    pgas::RunConfig rcfg;
    rcfg.nranks = 8;
    rcfg.net = pgas::NetModel::distributed();
    ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 4);
    cfg.trace = tr_.get();
    res_ = ws::run_search(eng, rcfg, *prob_, cfg);
  }

  std::unique_ptr<ws::UtsProblem> prob_;
  std::unique_ptr<trace::Trace> tr_;
  ws::SearchResult res_;
};

TEST_F(TracedRun, StealsMatchGrants) {
  std::uint64_t ok_steals = 0, grants = 0, stolen_nodes = 0,
                granted_nodes = 0;
  for (const auto& e : tr_->merged()) {
    if (e.kind == trace::Kind::kStealOk) {
      ++ok_steals;
      stolen_nodes += static_cast<std::uint64_t>(e.arg1);
    }
    if (e.kind == trace::Kind::kServiceGrant) {
      ++grants;
      granted_nodes += static_cast<std::uint64_t>(e.arg1);
    }
  }
  EXPECT_GT(ok_steals, 0u);
  EXPECT_EQ(ok_steals, grants);
  EXPECT_EQ(stolen_nodes, granted_nodes);
  EXPECT_EQ(ok_steals, res_.agg.total_steals);
}

TEST_F(TracedRun, StateTimelinesWellFormed) {
  // Per rank: first state event is Working, timestamps non-decreasing, and
  // no two consecutive identical states.
  std::map<int, std::vector<trace::Event>> per_rank;
  for (const auto& e : tr_->merged())
    if (e.kind == trace::Kind::kState) per_rank[e.rank].push_back(e);
  ASSERT_EQ(per_rank.size(), 8u);
  for (auto& [rank, v] : per_rank) {
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v.front().arg0, static_cast<int>(stats::State::kWorking));
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_LE(v[i - 1].t_ns, v[i].t_ns) << "rank " << rank;
      EXPECT_NE(v[i - 1].arg0, v[i].arg0) << "rank " << rank;
    }
  }
}

TEST_F(TracedRun, TraceDurationsMatchTimers) {
  // Summing trace state intervals per rank should equal the StateTimer's
  // totals (the two are recorded through the same transitions).
  const auto all = tr_->merged();
  for (int r = 0; r < 8; ++r) {
    std::array<std::uint64_t, 4> ns{};
    const trace::Event* prev = nullptr;
    std::uint64_t end = 0;
    for (const auto& e : all) {
      if (e.rank != r || e.kind != trace::Kind::kState) continue;
      if (prev != nullptr)
        ns[static_cast<std::size_t>(prev->arg0)] += e.t_ns - prev->t_ns;
      prev = &e;
      end = std::max(end, e.t_ns);
    }
    ASSERT_NE(prev, nullptr);
    // Complete the final interval with the timer's total to avoid needing
    // the end timestamp here; just check the earlier intervals are counted
    // by the timer too.
    for (int s = 0; s < 4; ++s) {
      EXPECT_LE(ns[static_cast<std::size_t>(s)],
                res_.per_thread[r].timer.ns_in(static_cast<stats::State>(s)))
          << "rank " << r << " state " << s;
    }
  }
}

}  // namespace
