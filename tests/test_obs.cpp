// Run-telemetry subsystem tests (src/obs): metric registries and cross-rank
// merges, the virtual-time sampler's cadence, JSONL round-trips, causal
// steal-span lifecycles on the happy / timeout / crash-salvage paths,
// Perfetto flow-event export, idle-time attribution coverage, and the
// load-bearing invariant that attaching an Observer never changes a run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/autopsy.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/spans.hpp"
#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
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
  rcfg.watchdog_ns = 50'000'000'000ull;
  return rcfg;
}

// ---------------------------------------------------------------------------
// Registry / sample-store units.

TEST(ObsRegistry, CounterRefsAreStableAndMergeAcrossRanks) {
  obs::Registry r0, r1;
  std::uint64_t& steals0 = r0.counter("steals");
  // Later registrations must not invalidate the cached reference.
  r0.counter("probes") = 7;
  steals0 += 3;
  r1.counter("steals") = 5;
  r1.counter("lock_waits") = 2;
  r0.histogram("lock_wait_ns").add(100);
  r1.histogram("lock_wait_ns").add(900);

  const auto totals = obs::merged_counters({&r0, &r1});
  EXPECT_EQ(totals.at("steals"), 8u);
  EXPECT_EQ(totals.at("probes"), 7u);
  EXPECT_EQ(totals.at("lock_waits"), 2u);
  const auto hists = obs::merged_histograms({&r0, &r1});
  EXPECT_EQ(hists.at("lock_wait_ns").count(), 2u);
  EXPECT_EQ(hists.at("lock_wait_ns").min(), 100u);
  EXPECT_EQ(hists.at("lock_wait_ns").max(), 900u);
}

TEST(ObsRegistry, RemoteOpCountersPerKindResetWithRun) {
  // on_remote_op keeps per-rank counters: remote_ops and remote_<kind>,
  // each created by its kind's first op, and all of them fresh after
  // start_run.
  using Op = pgas::ObsSink::OpKind;
  obs::Observer ob;
  ob.start_run(2, 0);
  ob.on_remote_op(0, 1, Op::kGet, 10);
  ob.on_remote_op(0, 1, Op::kGet, 20);
  ob.on_remote_op(0, 1, Op::kCas, 30);
  ob.on_remote_op(1, 0, Op::kBulkPut, 40);
  EXPECT_EQ(ob.registry(0).counters(),
            (std::map<std::string, std::uint64_t>{
                {"remote_cas", 1}, {"remote_get", 2}, {"remote_ops", 3}}));
  EXPECT_EQ(ob.merged_counters(),
            (std::map<std::string, std::uint64_t>{{"remote_bulk_put", 1},
                                                  {"remote_cas", 1},
                                                  {"remote_get", 2},
                                                  {"remote_ops", 4}}));
  ob.start_run(1, 0);
  EXPECT_TRUE(ob.merged_counters().empty());
  ob.on_remote_op(0, 0, Op::kAdd, 5);
  ob.on_remote_op(0, 0, Op::kPut, 6);
  ob.on_remote_op(0, 0, Op::kBulkGet, 7);
  EXPECT_EQ(ob.merged_counters(),
            (std::map<std::string, std::uint64_t>{{"remote_add", 1},
                                                  {"remote_bulk_get", 1},
                                                  {"remote_ops", 3},
                                                  {"remote_put", 1}}));
}

TEST(ObsSamples, JsonlRoundTrip) {
  obs::SampleStore s;
  s.reset(2);
  s.add(0, 1000, "queue_depth", 42);
  s.add(1, 1000, "queue_depth", -3);
  s.add(0, 2000, "steals", 17);
  std::ostringstream os;
  s.write_jsonl(os);
  std::istringstream is(os.str() + "not json\n{\"malformed\":1}\n");
  const std::vector<obs::SamplePoint> back = obs::read_jsonl(is);
  ASSERT_EQ(back.size(), 3u);
  std::multiset<std::string> got;
  for (const obs::SamplePoint& p : back)
    got.insert(p.metric + "@" + std::to_string(p.t_ns) + "/r" +
               std::to_string(p.rank) + "=" + std::to_string(p.value));
  EXPECT_TRUE(got.count("queue_depth@1000/r0=42"));
  EXPECT_TRUE(got.count("queue_depth@1000/r1=-3"));
  EXPECT_TRUE(got.count("steals@2000/r0=17"));
}

// ---------------------------------------------------------------------------
// The sampler under the sim engine's virtual clock.

TEST(ObsSampler, CadenceAlignedAndMonotone) {
  const uts::Params p = uts::test_small(3);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  obs::Observer ob;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 5);
  cfg.obs = &ob;
  cfg.obs_sample_ns = 50'000;
  const auto res = ws::run_search(eng, dist_cfg(8, 11), prob, cfg);
  ASSERT_GT(res.agg.total_nodes, 0u);
  ASSERT_GT(ob.samples().total_points(), 0u);
  for (int r = 0; r < 8; ++r) {
    std::uint64_t prev = 0;
    bool first = true;
    std::string prev_metric;
    for (const obs::SamplePoint& pt : ob.samples().points(r)) {
      EXPECT_EQ(pt.t_ns % 50'000, 0u) << "sample off cadence, rank " << r;
      EXPECT_EQ(pt.rank, r);
      if (!first && pt.metric == prev_metric) {
        EXPECT_GT(pt.t_ns, prev) << "same-metric samples must advance";
      }
      if (first || pt.metric == prev_metric) prev = pt.t_ns;
      prev_metric = pt.metric;
      first = false;
    }
    // Per-rank series are time-ordered per metric.
    const auto qd = ob.samples().series(r, "queue_depth");
    for (std::size_t i = 1; i < qd.size(); ++i)
      EXPECT_GT(qd[i].t_ns, qd[i - 1].t_ns);
  }
  // The registries saw the same run the stats did.
  const auto totals = ob.merged_counters();
  EXPECT_EQ(totals.at("steals"), res.agg.total_steals);
}

// ---------------------------------------------------------------------------
// Attaching an observer must not change the run (pure observation).

TEST(ObsInvariance, RunIsIdenticalWithAndWithoutObserver) {
  const uts::Params p = uts::test_small(5);
  const ws::UtsProblem prob(p);
  for (ws::Algo a : {ws::Algo::kUpcSharedMem, ws::Algo::kUpcDistMem,
                     ws::Algo::kMpiWs, ws::Algo::kWorkPush}) {
    pgas::SimEngine eng;
    const ws::WsConfig plain = ws::WsConfig::for_algo(a, 5);
    const auto bare = ws::run_search(eng, dist_cfg(8, 21), prob, plain);

    obs::Observer ob;
    ws::WsConfig cfg = plain;
    cfg.obs = &ob;
    cfg.obs_sample_ns = 20'000;
    const auto watched = ws::run_search(eng, dist_cfg(8, 21), prob, cfg);

    EXPECT_EQ(bare.agg.total_nodes, watched.agg.total_nodes) << ws::algo_label(a);
    EXPECT_EQ(bare.agg.total_steals, watched.agg.total_steals);
    EXPECT_EQ(bare.agg.elapsed_s, watched.agg.elapsed_s) << ws::algo_label(a);
    ASSERT_EQ(bare.per_thread.size(), watched.per_thread.size());
    for (std::size_t r = 0; r < bare.per_thread.size(); ++r) {
      EXPECT_EQ(bare.per_thread[r].c.nodes, watched.per_thread[r].c.nodes);
      EXPECT_EQ(bare.per_thread[r].c.steals, watched.per_thread[r].c.steals);
      EXPECT_EQ(bare.per_thread[r].timer.total_ns(),
                watched.per_thread[r].timer.total_ns())
          << ws::algo_label(a) << " rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Every sink records the same protocol events: the obs counters and the
// trace rows must add up to the ThreadStats totals on every algorithm.

TEST(ObsAgreement, CountersAndTraceRowsMatchThreadStats) {
  const uts::Params p = uts::test_small(5);
  const ws::UtsProblem prob(p);
  for (ws::Algo a : ws::kAllAlgosExtended) {
    SCOPED_TRACE(ws::algo_label(a));
    pgas::SimEngine eng;
    obs::Observer ob;
    trace::Trace tr(8);
    ws::WsConfig cfg = ws::WsConfig::for_algo(a, 5);
    cfg.obs = &ob;
    cfg.trace = &tr;
    const auto res = ws::run_search(eng, dist_cfg(8, 21), prob, cfg);

    stats::Counters sum;
    for (const stats::ThreadStats& t : res.per_thread) {
      sum.steals += t.c.steals;
      sum.nodes_stolen += t.c.nodes_stolen;
      sum.failed_steals += t.c.failed_steals;
      sum.probes += t.c.probes;
      sum.releases += t.c.releases;
      sum.requests_serviced += t.c.requests_serviced;
      sum.requests_denied += t.c.requests_denied;
    }
    const auto counters = ob.merged_counters();
    const auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;  // unregistered reads 0
    };
    EXPECT_EQ(counter("steals"), sum.steals);
    EXPECT_EQ(counter("probes"), sum.probes);
    EXPECT_EQ(counter("releases"), sum.releases);
    EXPECT_EQ(counter("requests_serviced"), sum.requests_serviced);

    std::map<trace::Kind, std::uint64_t> rows;
    std::uint64_t stolen_nodes = 0;
    for (const trace::Event& e : tr.merged()) {
      ++rows[e.kind];
      if (e.kind == trace::Kind::kStealOk)
        stolen_nodes += static_cast<std::uint64_t>(e.arg1);
    }
    EXPECT_GT(sum.steals, 0u);
    EXPECT_EQ(rows[trace::Kind::kStealOk], sum.steals);
    EXPECT_EQ(stolen_nodes, sum.nodes_stolen);
    EXPECT_EQ(rows[trace::Kind::kRelease], sum.releases);
    EXPECT_EQ(rows[trace::Kind::kServiceGrant], sum.requests_serviced);
    EXPECT_EQ(rows[trace::Kind::kStealFail], sum.failed_steals);
    EXPECT_EQ(rows[trace::Kind::kServiceDeny], sum.requests_denied);
  }
}

// ---------------------------------------------------------------------------
// Span lifecycle on the happy paths of every stealing protocol.

TEST(ObsSpans, LifecycleAcrossProtocols) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  for (ws::Algo a : ws::kAllAlgos) {
    pgas::SimEngine eng;
    obs::Observer ob;
    ws::WsConfig cfg = ws::WsConfig::for_algo(a, 5);
    cfg.obs = &ob;
    const auto res = ws::run_search(eng, dist_cfg(8, 31), prob, cfg);

    const std::vector<obs::Span> spans = ob.spans().assemble();
    std::uint64_t completed = 0;
    std::set<std::uint64_t> ids;
    for (const obs::Span& s : spans) {
      EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id";
      ASSERT_GE(s.thief, 0);
      ASSERT_LT(s.thief, 8);
      EXPECT_NE(s.thief, s.victim) << ws::algo_label(a);
      if (s.completed()) {
        ++completed;
        EXPECT_GT(s.nodes, 0) << ws::algo_label(a);
        EXPECT_GE(s.t_absorb, s.t_request);
        if (s.t_service != 0) {
          EXPECT_GE(s.t_service, s.t_request) << ws::algo_label(a);
          EXPECT_GE(s.t_absorb, s.t_service);
        }
        if (s.t_transfer != 0) {
          EXPECT_GE(s.t_absorb, s.t_transfer);
        }
        ASSERT_GE(s.victim, 0) << ws::algo_label(a);
      }
      EXPECT_GE(s.t_end, s.t_request);
    }
    // Every successful steal is exactly one completed span.
    EXPECT_EQ(completed, res.agg.total_steals) << ws::algo_label(a);
    EXPECT_GT(completed, 0u) << ws::algo_label(a);
  }
}

// Hardened request/response under injected stalls: timeouts get recorded on
// spans, outcomes stay consistent, and attribution still covers the run.
TEST(ObsSpans, TimeoutPathsUnderStalls) {
  const uts::Params p = uts::test_small(6);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  obs::Observer ob;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 5);
  cfg.obs = &ob;
  cfg.steal_timeout_ns = 30'000;
  pgas::RunConfig rcfg = dist_cfg(8, 41);
  // The whole search takes ~150 us of virtual time on 8 ranks: 0.5 ms
  // freezes every ~20 us guarantee some victims sleep through the thief's
  // 30 us deadline.
  rcfg.faults.stall_ns = 500'000;
  rcfg.faults.stall_period_ns = 20'000;
  const auto res = ws::run_search(eng, rcfg, prob, cfg);
  ASSERT_EQ(res.agg.total_nodes, uts::search_sequential(p)->nodes);

  int timeouts = 0, abandoned = 0;
  for (const obs::Span& s : ob.spans().assemble()) {
    timeouts += s.timeouts;
    if (s.outcome == obs::Span::Outcome::kAbandoned) {
      ++abandoned;
      EXPECT_EQ(s.t_absorb, 0u);
    }
  }
  // Stalls of 10x the timeout must force at least one withdraw/retry.
  EXPECT_GT(timeouts, 0);
  EXPECT_GT(abandoned, 0);

  const obs::RunReport rep = obs::autopsy(ob);
  EXPECT_GE(rep.attributed_frac, 0.99);
  EXPECT_GT(rep.cause_ns[static_cast<int>(obs::Cause::kInjectedFault)], 0u);
}

// Crash-salvage: spans that complete by retiring a dead victim's lineage
// record are marked salvaged and still count as completed steals.
TEST(ObsSpans, CrashSalvageMarksSpans) {
  // A bushier tree than test_small: enough in-flight grants that a rank
  // crashing mid-grant reliably leaves a record for a thief to salvage.
  uts::Params p;
  p.type = uts::TreeType::kBinomial;
  p.b0 = 200;
  p.q = 0.48;
  p.m = 2;
  p.root_seed = 3;
  const ws::UtsProblem prob(p);
  const std::uint64_t want = uts::search_sequential(p)->nodes;
  std::uint64_t salvaged_total = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    pgas::SimEngine eng;
    obs::Observer ob;
    // mpi-ws: the kMidSteal crash window is the VICTIM's grant block
    // (chunk reserved, lineage record published, reply possibly unsent) —
    // the thief then times out, sees the victim dead, and salvages the
    // in-flight chunk by retiring the record.
    ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kMpiWs, 5);
    cfg.obs = &ob;
    cfg.steal_timeout_ns = 30'000;
    pgas::RunConfig rcfg = dist_cfg(8, seed);
    pgas::CrashSpec c;
    c.rank = 3;
    c.at_ns = 30'000;
    c.where = pgas::CrashSpec::Where::kMidSteal;
    rcfg.faults.crashes.push_back(c);
    const auto res = ws::run_search(eng, rcfg, prob, cfg);
    EXPECT_EQ(res.agg.total_nodes, want) << "seed " << seed;

    std::uint64_t completed = 0;
    for (const obs::Span& s : ob.spans().assemble()) {
      if (s.salvaged) {
        ++salvaged_total;
        EXPECT_TRUE(s.completed()) << "salvaged span must have absorbed";
        EXPECT_GT(s.nodes, 0);
      }
      if (s.completed()) ++completed;
    }
    EXPECT_EQ(completed, res.agg.total_steals) << "seed " << seed;
    const obs::RunReport rep = obs::autopsy(ob);
    EXPECT_GE(rep.attributed_frac, 0.99) << "seed " << seed;
  }
  // Across the seed sweep, at least one steal must have gone through the
  // dead-victim salvage path (deterministic under the sim engine).
  EXPECT_GT(salvaged_total, 0u);
}

// ---------------------------------------------------------------------------
// Perfetto flow events: completed spans stitch thief and victim timelines.

TEST(ObsSpans, FlowEventsParseAndPair) {
  const uts::Params p = uts::test_small(4);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  obs::Observer ob;
  trace::Trace tr(8);
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcSharedMem, 5);
  cfg.obs = &ob;
  cfg.trace = &tr;
  ws::run_search(eng, dist_cfg(8, 51), prob, cfg);

  const std::vector<trace::FlowEvent> flows = ob.spans().flow_events();
  ASSERT_FALSE(flows.empty());
  std::ostringstream os;
  tr.write_chrome_json(os, flows);

  // Parse the JSON array line by line: flow events carry cat "steal" and
  // phases s/t/f sharing one id.
  struct Seen {
    int starts = 0, steps = 0, finishes = 0;
    std::int64_t start_tid = -1, finish_tid = -1, step_tid = -1;
  };
  std::map<std::uint64_t, Seen> by_id;
  std::istringstream is(os.str());
  std::string line;
  auto num_after = [](const std::string& s, const char* key) -> std::int64_t {
    const std::size_t k = s.find(key);
    if (k == std::string::npos) return -1;
    return std::atoll(s.c_str() + k + std::strlen(key));
  };
  while (std::getline(is, line)) {
    if (line.find("\"cat\":\"steal\"") == std::string::npos) continue;
    const std::int64_t id = num_after(line, "\"id\":");
    const std::int64_t tid = num_after(line, "\"tid\":");
    ASSERT_GT(id, 0);
    Seen& sn = by_id[static_cast<std::uint64_t>(id)];
    if (line.find("\"ph\":\"s\"") != std::string::npos) {
      ++sn.starts;
      sn.start_tid = tid;
    } else if (line.find("\"ph\":\"t\"") != std::string::npos) {
      ++sn.steps;
      sn.step_tid = tid;
    } else if (line.find("\"ph\":\"f\"") != std::string::npos) {
      ++sn.finishes;
      sn.finish_tid = tid;
      EXPECT_NE(line.find("\"bp\":\"e\""), std::string::npos);
    }
  }

  std::map<std::uint64_t, const obs::Span*> spans;
  std::size_t completed = 0;
  const std::vector<obs::Span> assembled = ob.spans().assemble();
  for (const obs::Span& s : assembled) {
    spans[s.id] = &s;
    if (s.completed()) ++completed;
  }
  ASSERT_GT(completed, 0u);
  EXPECT_EQ(by_id.size(), completed);
  for (const auto& [id, sn] : by_id) {
    ASSERT_TRUE(spans.count(id));
    const obs::Span& s = *spans.at(id);
    EXPECT_TRUE(s.completed());
    // Exactly one start on the thief's track and one finish back on it.
    EXPECT_EQ(sn.starts, 1);
    EXPECT_EQ(sn.finishes, 1);
    EXPECT_EQ(sn.start_tid, s.thief);
    EXPECT_EQ(sn.finish_tid, s.thief);
    if (sn.steps > 0) {
      EXPECT_EQ(sn.step_tid, s.victim);
    }
  }
}

TEST(ObsSpans, ChromeJsonExactBytes) {
  // Every row shape of the standalone span export, pinned byte for byte:
  // one duration slice per span on its thief's row (salvaged and not,
  // every outcome that has a length), then the completed spans' flows,
  // with a "t" step only where the victim recorded its service and
  // bp:"e" on the finish. A zero-length span and a span without a thief
  // write nothing. Ids are spelled out (thief + 1 in bits 24..39) so the
  // bytes do not depend on the process-wide run epoch.
  obs::SpanLog log;
  log.start_run(3);
  using P = obs::SpanPhase;
  const std::uint64_t a = (1ull << 24) | 1, b = (2ull << 24) | 1,
                      c = (3ull << 24) | 1, d = (1ull << 24) | 2,
                      e = 5, f = (2ull << 24) | 2;
  log.event(0, a, P::kRequest, 1000, 0, 1);  // completed, with service
  log.event(1, a, P::kService, 1500, 1, 0, 4);
  log.event(0, a, P::kTransfer, 1800, 0, 1, 4);
  log.event(0, a, P::kAbsorb, 2001, 0, 1, 4);
  log.event(1, b, P::kRequest, 3000, 1, 2);  // salvaged after a timeout
  log.event(1, b, P::kTimeout, 3500, 1, 2);
  log.event(1, b, P::kSalvage, 4000, 1, 2, 3);
  log.event(1, b, P::kAbsorb, 4250, 1, 2, 3);
  log.event(2, c, P::kRequest, 5000, 2, 0);  // denied
  log.event(0, c, P::kDeny, 5600, 0, 2);
  log.event(0, d, P::kRequest, 7000, 0, 2);  // zero length: skipped
  log.event(0, d, P::kAbandon, 7000, 0, 2);
  log.event(0, e, P::kRequest, 8000, 0, 1);  // no thief: skipped
  log.event(0, e, P::kAbsorb, 9000, 0, 1, 2);
  log.event(1, f, P::kRequest, 10000, 1, 0);  // incomplete
  log.event(0, f, P::kService, 1234567891, 0, 1, 2);
  std::ostringstream os;
  log.write_chrome_json(os);
  EXPECT_EQ(
      os.str(),
      "[\n"
      R"({"name":"steal completed","cat":"steal","ph":"X","ts":1.000000,"dur":1.001000,"pid":0,"tid":0,"args":{"victim":1,"nodes":4,"timeouts":0,"salvaged":false}},)"
      "\n"
      R"({"name":"steal completed","cat":"steal","ph":"X","ts":3.000000,"dur":1.250000,"pid":0,"tid":1,"args":{"victim":2,"nodes":3,"timeouts":1,"salvaged":true}},)"
      "\n"
      R"({"name":"steal denied","cat":"steal","ph":"X","ts":5.000000,"dur":0.600000,"pid":0,"tid":2,"args":{"victim":0,"nodes":0,"timeouts":0,"salvaged":false}},)"
      "\n"
      R"({"name":"steal incomplete","cat":"steal","ph":"X","ts":10.000000,"dur":1234557.891000,"pid":0,"tid":1,"args":{"victim":0,"nodes":2,"timeouts":0,"salvaged":false}},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"s","id":16777217,"ts":1.000000,"pid":0,"tid":0},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"t","id":16777217,"ts":1.500000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"f","id":16777217,"ts":2.001000,"pid":0,"tid":0,"bp":"e"},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"s","id":33554433,"ts":3.000000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"f","id":33554433,"ts":4.250000,"pid":0,"tid":1,"bp":"e"})"
      "\n]\n");
}

// ---------------------------------------------------------------------------
// Idle-time attribution coverage: >= 99% of non-Working time gets a cause
// on every Figure-3 label, on both engines.

TEST(ObsAutopsy, AttributesNonWorkingTimeAllLabelsSim) {
  const uts::Params p = uts::test_small(7);
  const ws::UtsProblem prob(p);
  for (ws::Algo a : ws::kAllAlgos) {
    pgas::SimEngine eng;
    obs::Observer ob;
    ws::WsConfig cfg = ws::WsConfig::for_algo(a, 5);
    cfg.obs = &ob;
    ws::run_search(eng, dist_cfg(8, 61), prob, cfg);
    const obs::RunReport rep = obs::autopsy(ob);
    EXPECT_EQ(rep.nranks, 8);
    EXPECT_GT(rep.total_ns, 0u);
    EXPECT_GE(rep.attributed_frac, 0.99) << ws::algo_label(a);
    // Residual is reported, never silently dropped: aggregate causes +
    // residual exactly cover the non-working total.
    std::uint64_t sum = rep.residual_ns;
    for (int c = 0; c < obs::kCauseCount; ++c) sum += rep.cause_ns[c];
    EXPECT_EQ(sum, rep.nonworking_ns) << ws::algo_label(a);
    for (const obs::RankAutopsy& ra : rep.per_rank) {
      std::uint64_t rsum = ra.residual_ns;
      for (int c = 0; c < obs::kCauseCount; ++c) rsum += ra.cause_ns[c];
      EXPECT_EQ(rsum, ra.nonworking_ns()) << ws::algo_label(a);
    }
    // The report renders and serializes.
    EXPECT_NE(rep.ascii_table().find("ALL"), std::string::npos);
    std::ostringstream js;
    rep.write_json(js);
    EXPECT_NE(js.str().find("\"schema\": \"upcws-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(js.str().find("\"attributed_frac\""), std::string::npos);
  }
}

TEST(ObsAutopsy, AttributesOnThreadEngine) {
  const uts::Params p = uts::test_small(2);
  const ws::UtsProblem prob(p);
  for (ws::Algo a : {ws::Algo::kUpcSharedMem, ws::Algo::kUpcDistMem,
                     ws::Algo::kMpiWs}) {
    pgas::ThreadEngine eng;
    obs::Observer ob;
    ws::WsConfig cfg = ws::WsConfig::for_algo(a, 5);
    cfg.obs = &ob;
    pgas::RunConfig rcfg;
    rcfg.nranks = 4;
    rcfg.seed = 71;
    const auto res = ws::run_search(eng, rcfg, prob, cfg);
    EXPECT_EQ(res.agg.total_nodes, uts::search_sequential(p)->nodes);
    const obs::RunReport rep = obs::autopsy(ob);
    EXPECT_GE(rep.attributed_frac, 0.99) << ws::algo_label(a);
    const auto totals = ob.merged_counters();
    EXPECT_EQ(totals.at("steals"), res.agg.total_steals) << ws::algo_label(a);
  }
}

// Sparklines: one chart per sampled metric, sized to the requested width.
TEST(ObsSampler, SparklinesRender) {
  const uts::Params p = uts::test_small(3);
  const ws::UtsProblem prob(p);
  pgas::SimEngine eng;
  obs::Observer ob;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcSharedMem, 5);
  cfg.obs = &ob;
  cfg.obs_sample_ns = 50'000;
  ws::run_search(eng, dist_cfg(8, 81), prob, cfg);
  ASSERT_GT(ob.samples().total_points(), 0u);
  const std::string charts = ob.sparklines(40);
  EXPECT_NE(charts.find("queue_depth"), std::string::npos);
  EXPECT_NE(charts.find("steals"), std::string::npos);
}

}  // namespace
