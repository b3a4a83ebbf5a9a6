// schedule_check: systematic schedule exploration over the deterministic
// simulator — search the interleaving space of a work-stealing
// configuration for protocol violations, shrink any failing schedule to a
// minimal decision trail, and emit a replay file that reproduces the bug in
// one run (re-execute with --replay, or uts_cli --replay).
//
// Examples:
//   ./schedule_check                                   # defaults, random walk
//   ./schedule_check -A upc-sharedmem --strategy pct --budget 100
//   ./schedule_check --crash 0@120000 --budget 60 --emit-replay bug.replay
//   ./schedule_check --replay bug.replay
//   ./schedule_check --budget-smoke                    # CI self-test
//
// Flags:
//   -A LABEL        algorithm (Figure-3 label; default upc-distmem)
//   -n N            ranks (default 4)
//   -c K            chunk size (default 2)
//   --net NET       dist|shared|shmem|free|smp<tpn> (default dist)
//   --preset P      tree preset: test-small|geo|hybrid (default test-small)
//   -r R            tree root seed (default 0)
//   -S SEED         run seed (probe order; default 1)
//   --strategy S    random|pct|dfs (default random)
//   --budget N      schedules to explore (default 50)
//   --seed S        exploration seed (default 1)
//   --pct-depth D   PCT preemption points (default 3)
//   --dfs-depth D   DFS decision-prefix bound (default 24)
//   --window NS     scheduler fairness window (default 100000)
//   --steal-timeout NS   hardened-protocol timeout (default 30000)
//   --watchdog-ms M      progress watchdog, virtual ms (default 200)
//   --crash R@NS[,R@NS...]   fail-stop crash plan
//   --crash-detect NS        failure-detection latency (default 5000)
//   --seed-bug claim-cas     enable the deliberately weakened claim-CAS
//                            (checker self-test; see docs/schedule_checking.md)
//   --seed-bug drop-distress enable the lifeline hand-off bug (a woken thief
//                            pulls without leaving the barrier first)
//   --sample-frac F          sampling policy: fraction of ranks probed
//   --quantile Q             sampling policy: load quantile stolen from
//   --lifeline-dim D         lifeline policy: hypercube dimension cap
//   --no-shrink     keep the first failing trail as found
//   --emit-replay FILE   write the (shrunk) failing schedule as a replay file
//   --trace FILE    Chrome-JSON trace of the failing (shrunk) schedule
//   --replay FILE   re-execute a recorded schedule; exit 0 iff the outcome
//                   matches the file's expectation
//   --budget-smoke  fixed-budget CI self-test: correct configurations
//                   (including the lifeline and sampling variants) must check
//                   clean, and the seeded claim-CAS and drop-distress bugs
//                   must be found, shrunk, and reproduced from their emitted
//                   replays. Exit 0 iff all hold.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/checker.hpp"
#include "check/cli.hpp"
#include "check/replay.hpp"
#include "trace/trace.hpp"

using namespace upcws;

namespace {

check::Strategy strategy_from(const std::string& s) {
  if (s == "random") return check::Strategy::kRandom;
  if (s == "pct") return check::Strategy::kPct;
  if (s == "dfs") return check::Strategy::kDfs;
  throw std::invalid_argument("unknown --strategy " + s);
}

const char* strategy_name(check::Strategy s) {
  switch (s) {
    case check::Strategy::kRandom: return "random";
    case check::Strategy::kPct: return "pct";
    case check::Strategy::kDfs: return "dfs";
  }
  return "?";
}

std::string trail_str(const std::vector<std::uint16_t>& t) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < t.size(); ++i)
    os << (i > 0 ? " " : "") << t[i];
  os << "]";
  return os.str();
}

void report_violation(const check::CheckSpec& spec,
                      const check::CheckResult& r, std::uint64_t window_ns,
                      const std::string& emit_replay,
                      const std::string& trace_path) {
  std::printf("VIOLATION: %s\n  %s\n", r.violation.oracle.c_str(),
              r.violation.message.c_str());
  std::printf("  found on schedule %d after %d runs; shrink used %d runs\n",
              r.violation.schedule_index, r.schedules_run, r.shrink_runs);
  std::printf("  original trail: %zu decisions, %s non-default\n",
              r.violation.original.size(),
              trail_str(r.violation.original).c_str());
  std::printf("  minimal trail:  %s\n", trail_str(r.violation.trail).c_str());
  check::ReplayFile rf;
  rf.spec = spec;
  rf.window_ns = window_ns;
  rf.oracle = r.violation.oracle;
  rf.trail = r.violation.trail;
  if (!emit_replay.empty()) {
    check::save_replay(emit_replay, rf);
    std::printf("  replay file: %s\n", emit_replay.c_str());
  }
  if (!trace_path.empty()) {
    // Render the offending window: re-run the minimal schedule with the
    // trace sink attached and export Chrome JSON.
    trace::Trace tr(spec.nranks);
    const check::RunOutcome o = check::run_replay(rf, &tr);
    std::ofstream f(trace_path);
    tr.write_chrome_json(f);
    std::printf("  trace of minimal schedule (%s again: %s): %s\n",
                o.violated ? "violates" : "does NOT violate",
                o.oracle.c_str(), trace_path.c_str());
  }
}

/// The canned CI self-test (--budget-smoke). Small fixed budgets so the
/// whole thing stays in CI-seconds territory.
int budget_smoke() {
  int failures = 0;

  // 1. A correct configuration (crash plan, hardened distmem) must check
  //    clean under every strategy.
  check::CheckSpec clean;
  clean.algo = ws::Algo::kUpcDistMem;
  clean.nranks = 4;
  clean.chunk = 2;
  clean.tree = uts::test_small(0);
  // Crash timing tuned so the seeded claim-CAS bug below is schedule-
  // reachable: rank 0 must die inside a grant-service window, leaving a
  // pending lineage record that a live thief and a recoverer then race for.
  clean.faults.crashes.push_back(
      {0, 10'000, pgas::CrashSpec::Where::kAnywhere});
  auto expect_clean = [&](const char* label, const check::CheckSpec& spec,
                          check::Strategy strategy, int budget) {
    check::CheckConfig cc;
    cc.strategy = strategy;
    cc.budget = budget;
    const check::CheckResult r = check::check(spec, cc);
    std::printf("smoke[clean/%s]: %d schedules, %s\n", label,
                r.schedules_run, r.found ? "VIOLATION (unexpected!)" : "ok");
    if (r.found) {
      std::printf("  %s: %s\n", r.violation.oracle.c_str(),
                  r.violation.message.c_str());
      ++failures;
    }
  };
  for (const check::Strategy s :
       {check::Strategy::kRandom, check::Strategy::kPct,
        check::Strategy::kDfs})
    expect_clean(strategy_name(s), clean, s,
                 s == check::Strategy::kPct ? 6 : 10);

  // 2. The extension variants (lifeline parking, sampling selection) must
  //    also check clean — same crash plan, random walk.
  for (const ws::Algo a : {ws::Algo::kLifeline, ws::Algo::kSampling}) {
    check::CheckSpec v = clean;
    v.algo = a;
    expect_clean(ws::algo_label(a), v, check::Strategy::kRandom, 10);
  }

  // 3. Each seeded bug must be found within the smoke budget, shrink, and
  //    reproduce from its replay file. claim-cas breaks crash-recovery
  //    arbitration on the base algorithm; drop-distress breaks the lifeline
  //    wake/barrier hand-off (no crash plan needed — the window is in the
  //    termination protocol itself).
  struct SeededBug {
    const char* name;
    check::CheckSpec spec;
    int budget;
  };
  check::CheckSpec claim = clean;
  claim.bug_weak_claim = true;
  check::CheckSpec distress;
  distress.algo = ws::Algo::kLifeline;
  distress.nranks = 4;
  distress.chunk = 2;
  distress.tree = uts::test_small(0);
  distress.bug_drop_distress = true;
  for (const SeededBug& b : {SeededBug{"claim-cas", claim, 40},
                             SeededBug{"drop-distress", distress, 40}}) {
    check::CheckConfig cc;
    cc.strategy = check::Strategy::kRandom;
    cc.budget = b.budget;
    const check::CheckResult r = check::check(b.spec, cc);
    if (!r.found) {
      std::printf("smoke[seeded-bug/%s]: NOT FOUND in %d schedules\n", b.name,
                  r.schedules_run);
      ++failures;
      continue;
    }
    std::printf("smoke[seeded-bug/%s]: found %s on schedule %d, shrunk %zu "
                "-> %zu decisions\n",
                b.name, r.violation.oracle.c_str(),
                r.violation.schedule_index, r.violation.original.size(),
                r.violation.trail.size());
    check::ReplayFile rf;
    rf.spec = b.spec;
    rf.window_ns = cc.window_ns;
    rf.oracle = r.violation.oracle;
    rf.trail = r.violation.trail;
    std::stringstream round;
    check::write_replay(round, rf);
    const check::ReplayFile loaded = check::read_replay(round);
    const check::RunOutcome o = check::run_replay(loaded);
    if (!check::replay_matches(loaded, o)) {
      std::printf("smoke[seeded-bug/%s]: replay did NOT reproduce (%s)\n",
                  b.name, o.violated ? o.oracle.c_str() : "clean run");
      ++failures;
    } else {
      std::printf("smoke[seeded-bug/%s]: replay reproduces "
                  "deterministically\n",
                  b.name);
    }
  }

  std::printf("budget-smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  check::CheckSpec spec;
  check::CheckConfig cc;
  std::string emit_replay, trace_path, replay_path, preset = "test-small";
  std::uint32_t root_seed = 0;
  auto crash_where = pgas::CrashSpec::Where::kAnywhere;
  bool smoke = false;

  // Every value goes through the shared strict parsers (src/check/cli.hpp).
  check::Args args("schedule_check", argc, argv);
  args.parse([&](const std::string& a) {
    if (a == "-A")
      spec.algo = check::algo_from_label(args.value());
    else if (a == "-n")
      args.read(spec.nranks);
    else if (a == "-c")
      args.read(spec.chunk);
    else if (a == "--net")
      spec.net = args.value();
    else if (a == "--preset")
      preset = args.value();
    else if (a == "-r")
      args.read(root_seed);
    else if (a == "-S")
      args.read(spec.run_seed);
    else if (a == "--strategy")
      cc.strategy = strategy_from(args.value());
    else if (a == "--budget")
      args.read(cc.budget);
    else if (a == "--seed")
      args.read(cc.seed);
    else if (a == "--pct-depth")
      args.read(cc.pct_depth);
    else if (a == "--dfs-depth")
      args.read(cc.dfs_depth);
    else if (a == "--window")
      args.read(cc.window_ns);
    else if (a == "--steal-timeout")
      args.read(spec.steal_timeout_ns);
    else if (a == "--watchdog-ms")
      spec.watchdog_ns =
          static_cast<std::uint64_t>(check::parse_real(args.value(), a) * 1e6);
    else if (a == "--crash")
      for (const auto& [rank, at] : check::parse_rank_at_list(args.value(), a))
        spec.faults.crashes.push_back({rank, at});
    else if (a == "--crash-in-lock")
      crash_where = pgas::CrashSpec::Where::kInLock;
    else if (a == "--crash-mid-steal")
      crash_where = pgas::CrashSpec::Where::kMidSteal;
    else if (a == "--crash-detect")
      args.read(spec.faults.crash_detect_ns);
    else if (a == "--seed-bug") {
      const std::string b = args.value();
      if (b == "claim-cas")
        spec.bug_weak_claim = true;
      else if (b == "drop-distress")
        spec.bug_drop_distress = true;
      else
        args.fail("unknown --seed-bug " + b);
    } else if (a == "--sample-frac")
      args.read(spec.sample_frac);
    else if (a == "--quantile")
      args.read(spec.quantile);
    else if (a == "--lifeline-dim")
      args.read(spec.lifeline_dim);
    else if (a == "--no-shrink")
      cc.shrink = false;
    else if (a == "--emit-replay")
      emit_replay = args.value();
    else if (a == "--trace")
      trace_path = args.value();
    else if (a == "--replay")
      replay_path = args.value();
    else if (a == "--budget-smoke")
      smoke = true;
    else
      return false;
    return true;
  });
  for (pgas::CrashSpec& c : spec.faults.crashes) c.where = crash_where;
  args.validate(spec.faults, spec.nranks, spec.algo);

  if (smoke) return budget_smoke();

  try {
    if (!replay_path.empty()) {
      const check::ReplayFile rf = check::load_replay(replay_path);
      std::printf("replaying %s: algo=%s ranks=%d expected=%s, %zu recorded "
                  "decisions\n",
                  replay_path.c_str(), ws::algo_label(rf.spec.algo),
                  rf.spec.nranks, rf.oracle.c_str(), rf.trail.size());
      trace::Trace tr(rf.spec.nranks);
      const check::RunOutcome o =
          check::run_replay(rf, trace_path.empty() ? nullptr : &tr);
      if (!trace_path.empty()) {
        std::ofstream f(trace_path);
        tr.write_chrome_json(f);
        std::printf("trace of the replayed schedule: %s\n",
                    trace_path.c_str());
      }
      return check::report_replay(rf, o);
    }

    spec.tree = preset == "test-small" ? uts::test_small(root_seed)
                : preset == "geo"      ? uts::geo_test(root_seed)
                : preset == "hybrid"   ? uts::hybrid_test(root_seed)
                                       : throw std::invalid_argument(
                                             "unknown --preset " + preset);

    std::printf("schedule_check: algo=%s ranks=%d chunk=%d net=%s tree=%s\n",
                ws::algo_label(spec.algo), spec.nranks, spec.chunk,
                spec.net.c_str(), spec.tree.describe().c_str());
    std::printf("  strategy=%s budget=%d seed=%llu window=%llu ns "
                "crashes=%zu%s\n",
                strategy_name(cc.strategy), cc.budget,
                static_cast<unsigned long long>(cc.seed),
                static_cast<unsigned long long>(cc.window_ns),
                spec.faults.crashes.size(),
                spec.bug_weak_claim      ? " seed-bug=claim-cas"
                : spec.bug_drop_distress ? " seed-bug=drop-distress"
                                         : "");

    const check::CheckResult r = check::check(spec, cc);
    if (!r.found) {
      std::printf("no violation in %d schedules", r.schedules_run);
      if (cc.strategy == check::Strategy::kDfs)
        std::printf(" (%llu distinct)",
                    static_cast<unsigned long long>(r.distinct_states));
      std::printf("\n");
      return 0;
    }
    report_violation(spec, r, cc.window_ns, emit_replay, trace_path);
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schedule_check: %s\n", e.what());
    return 2;
  }
}
