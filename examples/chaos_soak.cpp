// chaos_soak: randomized fault/membership campaigns over every algorithm
// and both engines — the robustness gate for elastic membership and
// partition tolerance (docs/fault_injection.md).
//
// Each campaign draws a random configuration (algorithm, ranks, chunk, net,
// tree) and a random *valid* fault plan mixing transient stalls, message
// drops/duplications, fail-stop crashes, graceful drains, mid-run joins,
// and correlated network partitions, then runs it to completion and checks:
//
//   * the traversal visited the sequential-reference node count exactly
//     (exactly-once despite crashes, drains, partitions);
//   * no invariant oracle fired (sim engine: the full schedule-checker
//     battery probes every scheduling step, including membership-safety);
//   * no hang (the virtual-time watchdog converts livelock to a violation).
//
// Failing sim campaigns are delta-debugged down to a minimal decision trail
// and saved as `upcws-replay v1` files (re-run with uts_cli --replay or
// schedule_check --replay). A machine-readable summary is written as JSON
// (schema upcws-soak-summary-v1, validated by tools/validate_report.py).
//
// Plan-validity constraints (so every campaign is *supposed* to pass):
//   * rank 0 never crashes, drains, or joins (it seeds the root);
//   * a rank plays at most one membership role (crasher XOR drainer XOR
//     joiner) and crashers+drainers <= nranks-2 (work must survive);
//   * work-push excludes crashes and message faults (no recovery protocol
//     for them by design — it is the paper's push baseline);
//   * message drops/dups only on mpi-ws (the only two-sided variant);
//   * partitions heal well inside the watchdog window.
//
// Flags:
//   --campaigns N   campaigns to run (default 240)
//   --seed S        generator seed (default 1)
//   --threads-every N  every Nth campaign runs on the real-thread engine
//                   (node-count check only; 0 = sim only; default 8); those
//                   campaigns also re-run on the parallel PDES engine (psim)
//                   as a differential node-count check, and their plan
//                   without its crash and membership parts runs on psim and
//                   on the sequential simulator, which must agree exactly
//   --workers N     psim worker threads for the differential re-run
//                   (default: hardware concurrency)
//   --nranks N      pin every campaign to N ranks (default: random 4..8)
//   --algo LABEL    pin every campaign to one algorithm (default: rotate
//                   through the canonical kAllAlgosExtended list)
//   --sample-frac F sampling policy: fraction of ranks probed per round
//   --quantile Q    sampling policy: load quantile stolen from
//   --lifeline-dim D  lifeline policy: hypercube dimension cap
//   --crash R@NS    force this fail-stop into every campaign (except
//                   work-push, which excludes crashes by design); requires
//                   --nranks so R can be validated against the run shape
//   --drain R@NS    force this graceful leave into every campaign
//   --join R@NS     force this late join into every campaign
//   --psim          attach an observer to the psim differential re-runs and
//                   aggregate the PDES window telemetry across the soak
//                   (pure observation: outcomes are unchanged)
//   --psim-window-metrics  print the aggregated window/fallback telemetry at
//                   the end; requires --psim (nothing is collected without it)
//   --json FILE     write the upcws-soak-summary-v1 JSON summary
//   --replay-dir D  directory for shrunk failure replays (default ".")
//   --budget-smoke  bounded CI mode: 60 campaigns, smoke-sized budgets
//   -v              per-campaign progress lines
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/cli.hpp"
#include "check/replay.hpp"
#include "check/strategies.hpp"
#include "obs/observer.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "psim/engine.hpp"
#include "sim/scheduler.hpp"
#include "stats/table.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;

namespace {

/// One campaign's random draw: a CheckSpec plus which fault classes it
/// includes and which engine runs it.
struct Campaign {
  check::CheckSpec spec;
  bool threads = false;       ///< real-thread engine (node count only)
  std::uint64_t sched_seed = 0;  ///< random-walk schedule seed (sim)
};

struct Failure {
  int campaign = -1;
  std::string engine;
  std::string algo;
  std::string oracle;
  std::string message;
  std::string replay;  ///< saved replay path ("" for threads campaigns)
};

/// Valid-by-construction campaign generator. All randomness flows from one
/// per-campaign mt19937_64, so a campaign index + seed reproduces the draw.
/// pin_algo (when set) replaces the algorithm draw *before* the fault plan
/// is drawn, so algorithm-specific validity rules still apply.
Campaign draw_campaign(std::uint64_t seed, int index, int threads_every,
                       int pin_nranks, const ws::Algo* pin_algo) {
  std::mt19937_64 g(seed + static_cast<std::uint64_t>(index) *
                               0x9E3779B97F4A7C15ull);
  auto pick = [&g](int lo, int hi) {  // inclusive
    return lo + static_cast<int>(g() % static_cast<std::uint64_t>(
                                           hi - lo + 1));
  };
  auto chance = [&g](int pct) { return static_cast<int>(g() % 100) < pct; };

  Campaign c;
  check::CheckSpec& s = c.spec;
  // Draw from THE canonical list (config.hpp) so a newly appended variant
  // joins the rotation without touching this file.
  s.algo = ws::kAllAlgosExtended[static_cast<std::size_t>(pick(
      0, static_cast<int>(std::size(ws::kAllAlgosExtended)) - 1))];
  if (pin_algo != nullptr) s.algo = *pin_algo;
  s.nranks = pin_nranks > 0 ? pin_nranks : pick(4, 8);
  s.chunk = pick(1, 4);
  s.net = chance(70) ? "dist" : (chance(50) ? "shared" : "smp2");
  const std::uint32_t root = static_cast<std::uint32_t>(pick(0, 7));
  s.tree = chance(75) ? uts::test_small(root)
           : chance(50) ? uts::geo_test(root)
                        : uts::hybrid_test(root);
  s.run_seed = g() % 1000 + 1;
  s.steal_timeout_ns = 30'000;  // always hardened: faults are always live
  s.watchdog_ns = 400'000'000;
  c.threads = threads_every > 0 && index % threads_every == threads_every - 1;
  c.sched_seed = g();

  const bool push = s.algo == ws::Algo::kWorkPush;
  const bool mpi = s.algo == ws::Algo::kMpiWs;
  pgas::FaultPlan& f = s.faults;

  // Membership roles: partition the eligible ranks {1..n-1} among crashers,
  // drainers, and joiners, capping leavers at nranks-2.
  std::vector<int> eligible;
  for (int r = 1; r < s.nranks; ++r) eligible.push_back(r);
  std::shuffle(eligible.begin(), eligible.end(), g);
  int leavers_left = s.nranks - 2;
  std::size_t e = 0;

  const int ncrash = push ? 0 : pick(0, 2);
  for (int i = 0; i < ncrash && leavers_left > 0 && e < eligible.size(); ++i) {
    pgas::CrashSpec cs;
    cs.rank = eligible[e++];
    cs.at_ns = static_cast<std::uint64_t>(pick(10, 120)) * 1000;
    cs.where = chance(70)   ? pgas::CrashSpec::Where::kAnywhere
               : chance(50) ? pgas::CrashSpec::Where::kInLock
                            : pgas::CrashSpec::Where::kMidSteal;
    f.crashes.push_back(cs);
    --leavers_left;
  }
  const int ndrain = pick(0, 2);
  for (int i = 0; i < ndrain && leavers_left > 0 && e < eligible.size(); ++i) {
    f.drains.push_back(
        {eligible[e++], static_cast<std::uint64_t>(pick(10, 150)) * 1000});
    --leavers_left;
  }
  const int njoin = pick(0, 2);
  for (int i = 0; i < njoin && e < eligible.size(); ++i) {
    f.joins.push_back(
        {eligible[e++], static_cast<std::uint64_t>(pick(5, 80)) * 1000});
  }

  // Transient faults. Stall windows sized to virtual-time runs (~100us-10ms).
  if (chance(35)) {
    f.stall_ns = static_cast<std::uint64_t>(pick(2, 20)) * 1000;
    f.stall_period_ns = f.stall_ns * static_cast<std::uint64_t>(pick(3, 10));
    f.stall_rank = chance(50) ? -1 : pick(0, s.nranks - 1);
  }
  if (mpi && chance(40)) {
    f.drop_prob = pick(1, 10) / 100.0;
    f.dup_prob = pick(1, 10) / 100.0;
  }

  // Correlated partition: random bipartition with both sides nonempty,
  // healing long before the watchdog.
  if (chance(35)) {
    pgas::PartitionSpec ps;
    do {
      ps.group_mask = g() & ((1ull << s.nranks) - 1);
    } while (ps.group_mask == 0 ||
             ps.group_mask == (1ull << s.nranks) - 1);
    ps.start_ns = static_cast<std::uint64_t>(pick(10, 60)) * 1000;
    ps.heal_ns = ps.start_ns + static_cast<std::uint64_t>(pick(10, 120)) * 1000;
    f.partitions.push_back(ps);
  }
  return c;
}

/// Real-engine campaign (threads or psim): no schedule policy or step
/// oracles, but the exactly-once count and membership counters must hold,
/// and the watchdog (psim) turns a hang into a failed campaign.
check::RunOutcome run_real(pgas::Engine& eng, const check::CheckSpec& s,
                           obs::Observer* obs = nullptr) {
  check::RunOutcome out;
  check::SpecConfigs c = check::configs_for(s);
  c.ws.obs = obs;  // pure observation: attaching it cannot change the outcome
  const ws::UtsProblem prob(s.tree);
  try {
    const ws::SearchResult res = ws::run_search(eng, c.run, prob, c.ws);
    out.completed = true;
    out.nodes = res.agg.total_nodes;
    const std::uint64_t want = check::expected_nodes(s);
    if (res.agg.total_nodes != want) {
      std::ostringstream os;
      os << eng.name() << " engine visited " << res.agg.total_nodes
         << " nodes, sequential reference is " << want;
      out.violate("node-conservation", os.str());
    } else if (res.agg.faults.drains > s.faults.drains.size() ||
               res.agg.faults.joins > s.faults.joins.size()) {
      out.violate("membership-safety", "membership counters exceed the plan");
    }
  } catch (const sim::HangDetected& h) {
    out.violate("hang", h.what());
  } catch (const sim::TimeLimitExceeded& t) {
    out.violate("vt-limit", t.what());
  }
  return out;
}

/// psim against the sequential simulator on `s`'s plan without its crash
/// and membership parts (which psim runs on the serial lane): stalls,
/// drops, duplicates and partitions stay. Nodes, switches, virtual elapsed
/// time and every rank's counters must be identical. Sets `parallel` when
/// the psim run took the parallel lane.
check::RunOutcome run_identity(int workers, const check::CheckSpec& s,
                               obs::Observer* obs, bool& parallel) {
  check::CheckSpec t = s;
  t.faults.crashes.clear();
  t.faults.drains.clear();
  t.faults.joins.clear();
  check::SpecConfigs c = check::configs_for(t);
  const ws::UtsProblem prob(t.tree);
  check::RunOutcome out;
  try {
    pgas::SimEngine seng;
    const ws::SearchResult want = ws::run_search(seng, c.run, prob, c.ws);
    psim::PsimEngine peng(workers);
    c.ws.obs = obs;  // pure observation: attaching it cannot change the run
    const ws::SearchResult got = ws::run_search(peng, c.run, prob, c.ws);
    parallel = peng.last_stats().windows > 0;
    out.completed = true;
    out.nodes = got.agg.total_nodes;
    bool same = want.agg.total_nodes == got.agg.total_nodes &&
                want.run.switches == got.run.switches &&
                want.run.elapsed_s == got.run.elapsed_s &&
                want.per_thread.size() == got.per_thread.size();
    for (std::size_t r = 0; same && r < want.per_thread.size(); ++r)
      same = want.per_thread[r].c == got.per_thread[r].c;
    if (!same) {
      std::ostringstream os;
      os << "psim differs from sim without crash/membership faults: nodes "
         << got.agg.total_nodes << " vs " << want.agg.total_nodes
         << ", switches " << got.run.switches << " vs " << want.run.switches
         << ", elapsed " << got.run.elapsed_s << " vs " << want.run.elapsed_s;
      out.violate("psim-identity", os.str());
    }
  } catch (const sim::HangDetected& h) {
    out.violate("hang", h.what());
  } catch (const sim::TimeLimitExceeded& e) {
    out.violate("vt-limit", e.what());
  }
  return out;
}

void write_summary(std::ostream& os, int campaigns, int threads_runs,
                   const std::map<std::string, int>& algo_runs,
                   const std::map<std::string, int>& fault_runs,
                   const std::vector<Failure>& failures, double elapsed_s) {
  os << "{\n  \"schema\": \"upcws-soak-summary-v1\",\n";
  os << "  \"campaigns\": " << campaigns << ",\n";
  os << "  \"passed\": " << campaigns - static_cast<int>(failures.size())
     << ",\n";
  os << "  \"failed\": " << failures.size() << ",\n";
  os << "  \"engines\": {\"sim\": " << campaigns - threads_runs
     << ", \"threads\": " << threads_runs << "},\n";
  os << "  \"algos\": {";
  bool first = true;
  for (const auto& [k, v] : algo_runs) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "},\n  \"fault_classes\": {";
  first = true;
  for (const auto& [k, v] : fault_runs) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "},\n  \"violations\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const Failure& f = failures[i];
    os << (i > 0 ? "," : "") << "\n    {\"campaign\": " << f.campaign
       << ", \"engine\": \"" << f.engine << "\", \"algo\": \"" << f.algo
       << "\", \"oracle\": \"" << stats::json_escape(f.oracle)
       << "\", \"replay\": \"" << stats::json_escape(f.replay)
       << "\", \"message\": \"" << stats::json_escape(f.message) << "\"}";
  }
  os << (failures.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"elapsed_s\": " << elapsed_s << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  int campaigns = 240;
  std::uint64_t seed = 1;
  int threads_every = 8;
  int workers = 0;  // psim differential threads; 0 = hardware concurrency
  int pin_nranks = 0;  // 0 = random per campaign
  ws::Algo pin_algo{};  // valid only when algo_set
  bool algo_set = false;
  double sample_frac = -1.0;  // < 0 = keep the config default
  double quantile = -1.0;
  int lifeline_dim = -1;
  pgas::FaultPlan forced;  // --crash/--drain/--join, added to every campaign
  std::string json_path, replay_dir = ".";
  bool psim_obs = false;
  bool psim_window_metrics = false;
  bool verbose = false;

  // Every value goes through the shared strict parsers (src/check/cli.hpp).
  check::Args args("chaos_soak", argc, argv);
  args.parse([&](const std::string& a) {
    if (a == "--campaigns")
      args.read(campaigns, 1);
    else if (a == "--seed")
      args.read(seed);
    else if (a == "--threads-every")
      args.read(threads_every);
    else if (a == "--workers")
      workers = check::parse_workers(args.value(), a);
    else if (a == "--nranks")
      args.read(pin_nranks, 2);
    else if (a == "--algo") {
      pin_algo = check::algo_from_label(args.value());
      algo_set = true;
    } else if (a == "--sample-frac")
      args.read(sample_frac);
    else if (a == "--quantile")
      args.read(quantile);
    else if (a == "--lifeline-dim")
      args.read(lifeline_dim);
    else if (a == "--crash") {
      const auto [rank, at] = check::parse_rank_at(args.value(), a);
      forced.crashes.push_back({rank, at});
    } else if (a == "--drain") {
      const auto [rank, at] = check::parse_rank_at(args.value(), a);
      forced.drains.push_back({rank, at});
    } else if (a == "--join") {
      const auto [rank, at] = check::parse_rank_at(args.value(), a);
      forced.joins.push_back({rank, at});
    } else if (a == "--json")
      json_path = args.value();
    else if (a == "--psim")
      psim_obs = true;
    else if (a == "--psim-window-metrics")
      psim_window_metrics = true;
    else if (a == "--replay-dir")
      replay_dir = args.value();
    else if (a == "--budget-smoke")
      campaigns = 60;
    else if (a == "-v")
      verbose = true;
    else
      return false;
    return true;
  });
  if (psim_window_metrics && !psim_obs)
    args.fail("--psim-window-metrics requires --psim (nothing is collected "
              "without the observed psim differential)");
  if (pin_nranks > 16) args.fail("--nranks wants 2..16 ranks");
  if (sample_frac != -1.0 && (!(sample_frac > 0.0) || sample_frac > 1.0))
    args.fail("--sample-frac wants a value in (0,1]");
  if (quantile > 1.0) args.fail("--quantile wants a value in [0,1]");
  // Forced fault flags are validated against the run shape before any
  // campaign runs: a bad rank dies here with one line, not 60 campaigns in.
  // Beyond the plan's own rules, a soak keeps rank 0 (it seeds the root)
  // and at least two ranks alive.
  std::set<int> forced_ranks;
  for (const auto& c : forced.crashes) forced_ranks.insert(c.rank);
  for (const auto& d : forced.drains) forced_ranks.insert(d.rank);
  for (const auto& j : forced.joins) forced_ranks.insert(j.rank);
  if (!forced_ranks.empty() && pin_nranks == 0)
    args.fail("--crash/--drain/--join need --nranks to validate ranks against");
  try {
    forced.validate(pin_nranks);
  } catch (const std::invalid_argument& e) {
    args.fail(std::string("--") + e.what());
  }
  if (forced_ranks.count(0))  // validate() already refused a join of rank 0
    args.fail("--crash/--drain of rank 0 (it seeds the root)");
  if (pin_nranks != 0 &&
      forced.crashes.size() + forced.drains.size() >
          static_cast<std::size_t>(pin_nranks - 2))
    args.fail("forced crashes+drains exceed nranks-2 (work must survive)");

  const auto oracles = check::default_oracles();
  std::map<std::string, int> algo_runs, fault_runs;
  std::vector<Failure> failures;
  int threads_runs = 0;
  // --psim telemetry, aggregated across every observed differential re-run.
  // The observer is reused (start_run resets its per-run state; the fallback
  // tally deliberately survives so reasons accumulate soak-wide).
  obs::Observer pobs;
  int psim_runs = 0, psim_parallel = 0;
  std::uint64_t psim_total_windows = 0, psim_total_events = 0;
  const auto add_psim_telemetry = [&] {
    ++psim_runs;
    psim_total_windows += pobs.psim_windows().size();
    for (const auto& w : pobs.psim_windows()) psim_total_events += w.events;
  };
  const auto t0 = std::chrono::steady_clock::now();

  for (int i = 0; i < campaigns; ++i) {
    Campaign c = draw_campaign(seed, i, threads_every, pin_nranks,
                               algo_set ? &pin_algo : nullptr);
    check::CheckSpec& s = c.spec;
    if (sample_frac >= 0.0) s.sample_frac = sample_frac;
    if (quantile >= 0.0) s.quantile = quantile;
    if (lifeline_dim >= 0) s.lifeline_dim = lifeline_dim;
    // Forced membership faults replace any drawn role on the same rank (one
    // role per rank), and keep the valid-by-construction rules: work-push
    // excludes crashes by design.
    auto force = [&](auto& drawn, const auto& add, bool keep) {
      std::erase_if(drawn,
                    [&](const auto& d) { return forced_ranks.count(d.rank); });
      if (keep) drawn.insert(drawn.end(), add.begin(), add.end());
    };
    force(s.faults.crashes, forced.crashes, s.algo != ws::Algo::kWorkPush);
    force(s.faults.drains, forced.drains, true);
    force(s.faults.joins, forced.joins, true);
    ++algo_runs[ws::algo_label(s.algo)];
    const pgas::FaultPlan& plan = s.faults;
    if (plan.stall_ns > 0) ++fault_runs["stalls"];
    if (plan.drop_prob > 0) ++fault_runs["drops"];
    if (plan.dup_prob > 0) ++fault_runs["dups"];
    if (!plan.crashes.empty()) ++fault_runs["crashes"];
    if (!plan.drains.empty()) ++fault_runs["drains"];
    if (!plan.joins.empty()) ++fault_runs["joins"];
    if (!plan.partitions.empty()) ++fault_runs["partitions"];

    check::RunOutcome o;
    const char* engine = c.threads ? "threads" : "sim";
    if (c.threads) {
      ++threads_runs;
      pgas::ThreadEngine teng;
      o = run_real(teng, s);
      if (!o.violated) {
        // Differential: the same campaign on the parallel PDES engine must
        // also conserve nodes (falls back to the sequential simulator when
        // the plan is not parallel-eligible, which is still a valid check).
        psim::PsimEngine peng(workers);
        check::RunOutcome po =
            run_real(peng, s, psim_obs ? &pobs : nullptr);
        if (psim_obs) add_psim_telemetry();
        if (!po.violated) {
          bool parallel = false;
          po = run_identity(workers, s, psim_obs ? &pobs : nullptr, parallel);
          if (psim_obs) add_psim_telemetry();
          if (parallel) ++psim_parallel;
        }
        if (po.violated) {
          o = po;
          engine = "psim";
        }
      }
    } else {
      check::RandomWalkPolicy rp(c.sched_seed);
      o = check::run_schedule(s, &rp, 100'000, &oracles);
    }
    if (verbose)
      std::printf("campaign %3d: %-15s %s n=%d c=%d %s  crashes=%zu "
                  "drains=%zu joins=%zu partitions=%zu  -> %s\n",
                  i, ws::algo_label(s.algo), engine, s.nranks, s.chunk,
                  s.net.c_str(), plan.crashes.size(), plan.drains.size(),
                  plan.joins.size(), plan.partitions.size(),
                  o.violated ? o.oracle.c_str() : "ok");
    if (!o.violated) continue;

    Failure f;
    f.campaign = i;
    f.engine = engine;
    f.algo = ws::algo_label(s.algo);
    f.oracle = o.oracle;
    f.message = o.message;
    if (!c.threads) {
      // Shrink the failing schedule and save a deterministic reproduction.
      int shrink_runs = 0;
      check::ReplayFile rf;
      rf.spec = s;
      rf.window_ns = 100'000;
      rf.oracle = o.oracle;
      rf.trail = check::shrink_trail(s, 100'000, o.oracle, o.choices, 200,
                                     &shrink_runs);
      f.replay = replay_dir + "/chaos_" + std::to_string(i) + ".replay";
      check::save_replay(f.replay, rf);
      std::printf("campaign %d FAILED (%s: %s)\n  shrunk in %d runs -> %s\n",
                  i, f.oracle.c_str(), f.message.c_str(), shrink_runs,
                  f.replay.c_str());
    } else {
      std::printf("campaign %d FAILED on %s engine (%s: %s)\n", i, engine,
                  f.oracle.c_str(), f.message.c_str());
    }
    failures.push_back(std::move(f));
  }

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("chaos_soak: %d campaigns (%d on threads), %zu failures, "
              "%.1fs\n",
              campaigns, threads_runs, failures.size(), elapsed_s);
  for (const auto& [k, v] : fault_runs)
    std::printf("  %-11s in %d campaigns\n", k.c_str(), v);
  std::printf("  psim identity re-runs on the parallel lane: %d of %d\n",
              psim_parallel, threads_runs);
  if (psim_window_metrics) {
    std::printf("psim telemetry: %d observed differentials  %llu windows  "
                "%llu events\n",
                psim_runs,
                static_cast<unsigned long long>(psim_total_windows),
                static_cast<unsigned long long>(psim_total_events));
    for (const auto& [reason, count] : pobs.psim_fallbacks())
      std::printf("  serial-lane fallback (%s) in %llu re-runs\n",
                  reason.c_str(), static_cast<unsigned long long>(count));
  }

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) args.fail("cannot write --json " + json_path);
    write_summary(f, campaigns, threads_runs, algo_runs, fault_runs,
                  failures, elapsed_s);
    std::printf("wrote summary to %s\n", json_path.c_str());
  }
  return failures.empty() ? 0 : 1;
}
