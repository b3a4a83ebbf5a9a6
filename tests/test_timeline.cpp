// Job-lifecycle observability (src/obs job_log + service autopsy): the
// JobLog must record exactly what the service did, the service-latency
// autopsy must attribute every job's arrival-to-terminal time with a
// reported (not hidden) residual, and — the plane's contract — attaching
// any of it must leave the service's outcomes byte-identical.
//
// Also home of the span-id process-uniqueness regression: back-to-back
// run_search calls in one process (exactly what every service attempt is)
// must never reuse a steal-span id, or merged Perfetto streams would stitch
// flow arrows between unrelated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/autopsy.hpp"
#include "obs/job_log.hpp"
#include "obs/observer.hpp"
#include "obs/spans.hpp"
#include "pgas/sim_engine.hpp"
#include "svc/service.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws;

svc::JobSpec uts_job(int variant, ws::Algo a = ws::Algo::kUpcDistMem) {
  svc::JobSpec s;
  s.workload = svc::Workload::kUts;
  s.tree = uts::test_small(variant);
  s.algo = a;
  s.chunk = 2;
  return s;
}

svc::JobSpec hang_job(int variant) {
  svc::JobSpec s = uts_job(variant, ws::Algo::kUpcTerm);
  s.faults.stall_ns = 1'000'000'000'000ull;
  s.faults.stall_period_ns = 10'000;
  s.faults.stall_rank = 1;
  s.watchdog_ns = 5'000'000;
  return s;
}

// ---------------------------------------------------------------------------
// Span-id process uniqueness (the satellite regression): every id carries a
// process-wide run epoch, so two runs never collide even though each run's
// ids remain a deterministic function of (thief, steal order).

TEST(SpanIds, ProcessUniqueAcrossBackToBackRuns) {
  obs::SpanLog a;
  a.start_run(4);
  const std::uint64_t epoch_a = a.run_epoch();
  const std::uint64_t id_a = a.begin(1, 2);
  obs::SpanLog b;
  b.start_run(4);
  EXPECT_NE(a.run_epoch(), b.run_epoch());
  const std::uint64_t id_b = b.begin(1, 2);
  // Same (thief, seq) in both runs — only the epoch distinguishes them.
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(obs::SpanLog::thief_of(id_a), 1);
  EXPECT_EQ(obs::SpanLog::thief_of(id_b), 1);
  EXPECT_EQ(id_a & 0xFFFFFFFFFFull, id_b & 0xFFFFFFFFFFull);
  EXPECT_EQ(epoch_a, id_a >> 40);
}

TEST(SpanIds, NoCollisionAcrossObservedSearches) {
  const uts::Params tree = uts::test_small(3);
  const ws::UtsProblem prob(tree);
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 5;
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  obs::Observer ob;
  for (int run = 0; run < 3; ++run) {
    ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
    cfg.obs = &ob;
    ws::run_search(eng, rcfg, prob, cfg);
    for (const obs::Span& s : ob.spans().assemble()) {
      seen.insert(s.id);
      ++total;
      EXPECT_EQ(obs::SpanLog::thief_of(s.id), s.thief);
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(seen.size(), total) << "span ids reused across runs";
}

// ---------------------------------------------------------------------------
// JobLog unit behavior: null-safety for unknown ids, span rebasing with
// 0-sentinel preservation, and the Perfetto export's shape.

TEST(JobLog, UnknownIdsAreIgnored) {
  obs::JobLog log;
  log.attempt_begin(99, 1, 10);  // never admitted: all hooks must no-op
  log.attempt_end(99, 20, false, false);
  log.backoff(99, 30);
  log.terminal(99, 40, obs::JobOutcome::kCompleted);
  EXPECT_TRUE(log.jobs().empty());
  EXPECT_EQ(log.find(99), nullptr);
}

TEST(JobLog, RebasesAttemptSpansPreservingAbsentSteps) {
  obs::JobLog log;
  log.admit(7, 100, 0);
  log.attempt_begin(7, 1, 150);
  log.attempt_end(7, 250, false, false);
  obs::Span s;
  s.id = 42;
  s.thief = 1;
  s.victim = 0;
  s.t_request = 10;
  s.t_service = 20;
  s.t_transfer = 0;  // absent step: must stay 0, not become 150
  s.t_absorb = 0;
  s.t_end = 30;
  log.attempt_spans(7, {s}, 150);
  log.terminal(7, 250, obs::JobOutcome::kCompleted);
  const obs::JobTimeline* j = log.find(7);
  ASSERT_NE(j, nullptr);
  ASSERT_EQ(j->attempts.size(), 1u);
  ASSERT_EQ(j->attempts[0].steals.size(), 1u);
  const obs::Span& r = j->attempts[0].steals[0];
  EXPECT_EQ(r.t_request, 160u);
  EXPECT_EQ(r.t_service, 170u);
  EXPECT_EQ(r.t_transfer, 0u);
  EXPECT_EQ(r.t_end, 180u);
  EXPECT_EQ(j->outcome, obs::JobOutcome::kCompleted);
}

TEST(JobLog, ChromeJsonExactBytes) {
  // Every row shape of the job-lane export, pinned byte for byte: the
  // outer "job <outcome>" slice (with and without a reject reason), the
  // queued / attempt N / backoff slices that partition it, the attempts'
  // steal slices with the completed ones' s/f flows, and the terminal
  // instant. Zero-length slices write nothing, and a job still in flight
  // has no terminal rows.
  obs::JobLog log;
  // Job 1: a failed attempt and its backoff, an immediate second attempt
  // (zero-length queued slice) carrying steal spans, then a queued tail.
  log.admit(1, 1000, 0);
  log.attempt_begin(1, 1, 1500);
  log.attempt_end(1, 4000, /*failed=*/true, /*cancelled=*/false);
  log.backoff(1, 6000);
  log.attempt_begin(1, 2, 6000);
  log.attempt_end(1, 9000, false, false);
  std::vector<obs::Span> steals(3);
  steals[0].id = (1ull << 24) | 1;  // completed: slice and flow
  steals[0].thief = 0;
  steals[0].victim = 1;
  steals[0].t_request = 100;
  steals[0].t_service = 150;
  steals[0].t_absorb = 300;
  steals[0].t_end = 300;
  steals[0].nodes = 4;
  steals[0].outcome = obs::Span::Outcome::kCompleted;
  steals[1].id = (2ull << 24) | 1;  // denied: slice only
  steals[1].thief = 1;
  steals[1].victim = 0;
  steals[1].t_request = 400;
  steals[1].t_end = 650;
  steals[1].outcome = obs::Span::Outcome::kDenied;
  steals[2].id = (2ull << 24) | 2;  // zero length: skipped
  steals[2].thief = 1;
  steals[2].victim = 2;
  steals[2].t_request = 700;
  steals[2].t_end = 700;
  log.attempt_spans(1, steals, 6000);
  log.terminal(1, 9500, obs::JobOutcome::kCompleted);
  // Job 2: load-shed after a wait.
  log.admit(2, 2000, 0);
  log.rejected(2, 2500, "queue_full");
  // Job 3: dispatched on arrival, cancelled at its deadline.
  log.admit(3, 3000, 4000);
  log.attempt_begin(3, 1, 3000);
  log.attempt_end(3, 4000, false, /*cancelled=*/true);
  log.terminal(3, 4000, obs::JobOutcome::kCancelled);
  // Job 4: still running.
  log.admit(4, 100, 0);
  log.attempt_begin(4, 1, 1234567891);
  std::ostringstream os;
  log.write_chrome_json(os);
  EXPECT_EQ(
      os.str(),
      "[\n"
      R"({"name":"job completed","ph":"X","ts":1.000000,"dur":8.500000,"pid":0,"tid":1,"args":{"job":1,"attempts":2}},)"
      "\n"
      R"({"name":"queued","ph":"X","ts":1.000000,"dur":0.500000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"attempt 1","ph":"X","ts":1.500000,"dur":2.500000,"pid":0,"tid":1,"args":{"failed":true,"cancelled":false}},)"
      "\n"
      R"({"name":"backoff","ph":"X","ts":4.000000,"dur":2.000000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"attempt 2","ph":"X","ts":6.000000,"dur":3.000000,"pid":0,"tid":1,"args":{"failed":false,"cancelled":false}},)"
      "\n"
      R"({"name":"steal completed","ph":"X","ts":6.100000,"dur":0.200000,"pid":0,"tid":1,"args":{"victim":1,"nodes":4}},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"s","id":16777217,"ts":6.100000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"steal","cat":"steal","ph":"f","id":16777217,"ts":6.300000,"pid":0,"tid":1,"bp":"e"},)"
      "\n"
      R"({"name":"steal denied","ph":"X","ts":6.400000,"dur":0.250000,"pid":0,"tid":1,"args":{"victim":0,"nodes":0}},)"
      "\n"
      R"({"name":"queued","ph":"X","ts":9.000000,"dur":0.500000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"completed","ph":"i","s":"t","ts":9.500000,"pid":0,"tid":1},)"
      "\n"
      R"({"name":"job rejected","ph":"X","ts":2.000000,"dur":0.500000,"pid":0,"tid":2,"args":{"job":2,"attempts":0,"reject":"queue_full"}},)"
      "\n"
      R"({"name":"queued","ph":"X","ts":2.000000,"dur":0.500000,"pid":0,"tid":2},)"
      "\n"
      R"({"name":"rejected","ph":"i","s":"t","ts":2.500000,"pid":0,"tid":2},)"
      "\n"
      R"({"name":"job cancelled","ph":"X","ts":3.000000,"dur":1.000000,"pid":0,"tid":3,"args":{"job":3,"attempts":1}},)"
      "\n"
      R"({"name":"attempt 1","ph":"X","ts":3.000000,"dur":1.000000,"pid":0,"tid":3,"args":{"failed":false,"cancelled":true}},)"
      "\n"
      R"({"name":"cancelled","ph":"i","s":"t","ts":4.000000,"pid":0,"tid":3},)"
      "\n"
      R"({"name":"queued","ph":"X","ts":0.100000,"dur":1234567.791000,"pid":0,"tid":4})"
      "\n]\n");
}

// ---------------------------------------------------------------------------
// End-to-end: a service run covering every outcome class feeds the log, the
// autopsy attributes >= 99% of every job's latency, and the JSON/Perfetto
// artifacts carry the right schema and lanes.

struct SoakResult {
  obs::JobLog log;
  std::vector<svc::JobState> states;
  std::vector<std::uint64_t> finishes;
  std::vector<std::uint64_t> nodes;
};

void run_mixed_soak(bool observed, SoakResult& out) {
  pgas::SimEngine eng;
  svc::ServiceConfig cfg;
  cfg.pool_ranks = 4;
  cfg.queue_cap = 2;
  if (observed) {
    cfg.job_log = &out.log;
    cfg.observe_jobs = true;
  }
  svc::Service s(eng, cfg);
  std::vector<std::uint64_t> ids;
  // Completed + queue pressure: three at t=0 on a 2-deep queue, so the
  // third is load-shed (kRejected) while two complete.
  ids.push_back(s.submit(uts_job(1), 0));
  ids.push_back(s.submit(uts_job(2), 0));
  ids.push_back(s.submit(uts_job(3), 0));
  // A hang with one retry (backoff interval + second attempt), completing.
  // Submitted once the t=0 pair is long done, it then occupies the pool
  // for its 5 ms watchdog fence.
  svc::JobSpec retry = hang_job(2);
  retry.max_retries = 2;
  ids.push_back(s.submit(retry, 2'000'000));
  // A deadline that expires while the hang holds the pool: cancelled in
  // the queue without ever dispatching.
  svc::JobSpec doomed = uts_job(4);
  doomed.deadline_ns = 10;
  ids.push_back(s.submit(doomed, 2'100'000));
  // A hang with no retry budget (kRetriesExhausted).
  svc::JobSpec spent = hang_job(5);
  spent.max_retries = 0;
  ids.push_back(s.submit(spent, 2'200'000));
  s.drain();
  for (std::uint64_t id : ids) {
    out.states.push_back(s.job(id).state);
    out.finishes.push_back(s.job(id).finish_ns);
    out.nodes.push_back(s.job(id).nodes);
  }
}

TEST(ServiceTimeline, PureObservationOfTheService) {
  SoakResult bare, watched;
  run_mixed_soak(false, bare);
  run_mixed_soak(true, watched);
  EXPECT_TRUE(bare.log.jobs().empty());
  ASSERT_EQ(watched.log.jobs().size(), 6u);
  // The contract: job outcomes, finish instants, and node counts are
  // byte-identical with the log attached.
  EXPECT_EQ(bare.states, watched.states);
  EXPECT_EQ(bare.finishes, watched.finishes);
  EXPECT_EQ(bare.nodes, watched.nodes);
}

TEST(ServiceTimeline, AttributesEveryJobAboveTheBar) {
  SoakResult r;
  run_mixed_soak(true, r);
  const obs::ServiceTimeline tl = obs::service_autopsy({&r.log});
  EXPECT_EQ(tl.jobs, 6u);
  EXPECT_EQ(tl.completed, 3u);
  EXPECT_EQ(tl.rejected, 1u);
  EXPECT_EQ(tl.cancelled, 1u);
  EXPECT_EQ(tl.retries_exhausted, 1u);
  EXPECT_EQ(tl.unfinished, 0u);
  ASSERT_EQ(tl.per_job.size(), 6u);

  // The acceptance bar, per job: >= 99% attributed. The walk partitions
  // terminal timelines exactly, so the residual here is 0, and the sum of
  // causes + residual reproduces each job's latency to the nanosecond.
  EXPECT_GE(tl.min_job_attributed_frac, 0.99);
  EXPECT_EQ(tl.residual_ns, 0u);
  for (const obs::JobAutopsy& a : tl.per_job) {
    std::uint64_t sum = a.residual_ns;
    for (std::uint64_t v : a.cause_ns) sum += v;
    EXPECT_EQ(sum, a.total_ns) << "job " << a.id;
  }
  // The retry job spent real time in backoff, the hangs in engine runs,
  // the queued pair waiting: the cause axes are all exercised.
  EXPECT_GT(tl.cause_ns[static_cast<int>(obs::JobCause::kQueueWait)], 0u);
  EXPECT_GT(tl.cause_ns[static_cast<int>(obs::JobCause::kBackoff)], 0u);
  EXPECT_GT(tl.cause_ns[static_cast<int>(obs::JobCause::kEngineRun)], 0u);

  const std::string table = tl.ascii_table();
  EXPECT_NE(table.find("completed"), std::string::npos);
  EXPECT_NE(table.find("ALL"), std::string::npos);
}

TEST(ServiceTimeline, JsonCarriesTheSchemaAndPerJobAccounting) {
  SoakResult r;
  run_mixed_soak(true, r);
  const obs::ServiceTimeline tl = obs::service_autopsy({&r.log});
  std::ostringstream os;
  tl.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"upcws-service-timeline-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"per_job\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"cancel_drain\""), std::string::npos);
  EXPECT_NE(json.find("\"retries_exhausted\""), std::string::npos);
}

TEST(ServiceTimeline, PerfettoExportHasJobLanesAndStealFlows) {
  SoakResult r;
  run_mixed_soak(true, r);
  std::ostringstream os;
  r.log.write_chrome_json(os);
  const std::string json = os.str();
  // One outer slice per terminal outcome class with nonzero latency; the
  // instantaneous rejection (shed at its arrival instant) renders as its
  // terminal instant marker alone.
  EXPECT_NE(json.find("\"job completed\""), std::string::npos);
  EXPECT_NE(json.find("\"job cancelled\""), std::string::npos);
  EXPECT_NE(json.find("\"job retries_exhausted\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rejected\",\"ph\":\"i\""),
            std::string::npos);
  // Attempt slices, the retry's backoff interval, and steal flow arrows
  // (ph "s"/"f") from the attempts' observed spans.
  EXPECT_NE(json.find("\"attempt 1\""), std::string::npos);
  EXPECT_NE(json.find("\"backoff\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Well-formed Chrome JSON array.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("]"), std::string::npos);
}

TEST(ServiceTimeline, StandaloneSpanExportSharesFlowIds) {
  // The SpanLog's own Chrome-JSON writer (uts_cli --timeline) must carry
  // the same process-unique ids as flow events, so it can be merged with a
  // job-lane export of the same runs.
  const uts::Params tree = uts::test_small(3);
  const ws::UtsProblem prob(tree);
  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = 5;
  obs::Observer ob;
  ws::WsConfig cfg = ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 2);
  cfg.obs = &ob;
  ws::run_search(eng, rcfg, prob, cfg);
  std::size_t completed = 0;
  for (const obs::Span& s : ob.spans().assemble())
    if (s.completed()) ++completed;
  std::ostringstream os;
  ob.spans().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"steal completed\""), std::string::npos);
  if (completed > 0) {
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  }
}

}  // namespace
