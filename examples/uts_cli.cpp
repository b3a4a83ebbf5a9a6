// uts_cli: a command-line UTS runner in the spirit of the original
// benchmark's driver — pick a tree, an algorithm, an engine, and a network
// model from the command line; get the paper's metrics back.
//
// Examples:
//   ./uts_cli                                   # defaults
//   ./uts_cli -t 1 -b 2000 -q 0.4995 -r 5 -n 32 -c 10 -A upc-distmem
//   ./uts_cli -A mpi-ws --net shmem -n 8 -v
//   ./uts_cli -e threads -n 4 --net free
//
// Flags:
//   -t 0|1        tree type: 0 geometric, 1 binomial (default 1)
//   -b B          root branching factor b0 (default 2000)
//   -q Q          binomial non-leaf probability (default 0.4995)
//   -m M          binomial non-leaf child count (default 2)
//   -g G          geometric depth horizon gen_mx (default 8)
//   -r R          root seed (default 5)
//   -A LABEL      upc-sharedmem|upc-term|upc-term-rapdif|upc-distmem|mpi-ws
//   -n N          ranks / simulated UPC threads (default 16)
//   -c K          chunk size (default 10)
//   -i I          poll interval in nodes (default 1)
//   --sample-frac F  sampling variant: fraction of the other ranks a thief
//                 probes per selection round, in (0,1] (default 0.5)
//   --quantile Q  sampling variant: load quantile of the sampled victims
//                 to steal from, in [0,1] (default 0.8)
//   --lifeline-dim D  lifeline variant: cap on hypercube lifeline
//                 dimensions (0 = all ceil(log2 n); default 0)
//   -e ENGINE     sim|psim|threads (default sim). psim is the parallel
//                 PDES engine: same virtual-time semantics and
//                 byte-identical output as sim, executed on multiple OS
//                 worker threads (docs/simulator.md)
//   --workers N   psim only: OS worker threads driving the shards
//                 (default: hardware concurrency; must be in
//                 [1, hardware concurrency])
//   --net NET     dist|shmem|hier:<tpn>|free (default dist)
//   -S SEED       run seed for probe order (default 1)
//   -v            per-rank statistics table
//   --trace FILE  write a Chrome/Perfetto trace of the run to FILE
//                 (open at https://ui.perfetto.dev); with telemetry on,
//                 completed steal spans are stitched in as flow events
//   --trace-csv FILE  write the raw event trace as CSV
//   --trace-cap N bound each rank's trace buffer to N events (ring:
//                 newest win; the overwrite count is reported)
//
// Run telemetry (see docs/observability.md):
//   --metrics FILE  sample every rank's metric registry on a virtual-time
//                 cadence and stream the time-series to FILE as JSONL;
//                 also prints ASCII sparklines of each metric
//   --report FILE   write the idle-time autopsy report (JSON) to FILE and
//                 print the per-rank cause table
//   --spans       print the steal-transaction span summary
//   --timeline FILE  standalone Perfetto export of the steal-transaction
//                 spans (one slice per steal on the thief's track, flow
//                 arrows for completed steals); requires --report
//   --psim-window-metrics  print the conservative-PDES window telemetry
//                 (windows, events, spans, shard imbalance, serial-lane
//                 fallback reason) and the search's host-time ledger
//                 (wall time; busy, wake-wait, barrier and completion
//                 shares of the workers' time); requires -e psim
//   --obs-sample NS  telemetry sampling cadence in virtual ns
//                 (default 100000)
//   --csv         emit one machine-readable CSV result line (plus a header)
//                 instead of the human-readable summary
//   --replay FILE re-execute a schedule recorded by schedule_check (an
//                 `upcws-replay v1` file): the full configuration comes
//                 from the file, every other flag is ignored. Exit 0 iff
//                 the outcome matches the file's expectation.
//
// Fault injection / robustness (see docs/fault_injection.md):
//   --stall DUR[:PERIOD[:RANK]]  inject transient rank stalls: freeze for
//                 ~DUR ns roughly every PERIOD ns (default PERIOD=10*DUR),
//                 on RANK only (default: all ranks)
//   --drop-prob P   drop each mpi-ws message with probability P
//   --dup-prob P    duplicate each mpi-ws message with probability P
//                 (work-push rejects both: it has no seq/ack layer)
//   --steal-timeout NS  harden the steal protocols: thief timeout/retry
//                 (default when any fault is active: 10x remote latency)
//   --watchdog-ms M   abort with a structured hang report if no rank
//                 visits a node for M virtual milliseconds (sim engine)
//   --deadline-ns NS  cooperative deadline (also spelled --deadline): every
//                 rank cancels the search once its clock reaches NS. The
//                 run returns the partial count plus exact reclaimed-node
//                 accounting (nodes + reclaimed == 1 + spawned) instead of
//                 the sequential-match check
//   --crash R@NS[,R@NS...]  permanent fail-stop: rank R crashes at ~NS of
//                 its own virtual time. Survivors detect the death, revoke
//                 the dead rank's lock leases, salvage its stack, and replay
//                 orphaned in-flight transfers, so the traversal still
//                 visits every node exactly once (docs/fault_injection.md)
//   --crash-in-lock    make every --crash land while the rank holds a lock
//   --crash-mid-steal  make every --crash land inside a steal transfer
//   --crash-detect NS  failure-detection latency: survivors see a death
//                 only NS ns (of their own clock) after it happened
//
// Elastic membership / partitions (docs/fault_injection.md):
//   --drain R@NS[,R@NS...]  graceful leave: rank R drains at ~NS of its own
//                 virtual time — stops stealing at a safe point, hands its
//                 remaining chunks off through the recovery machinery, and
//                 exits the termination membership cleanly
//   --join R@NS[,R@NS...]   late join: rank R starts outside the membership
//                 and enters at ~NS (rank 0 seeds the root and cannot join)
//   --partition MASK:START:HEAL[,...]  correlated network partition: ranks
//                 with their bit set in MASK are cut off from the rest for
//                 virtual ns [START, HEAL); cross-cut traffic is delayed
//                 until the heal, never lost
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include <fstream>
#include <memory>

#include "check/cli.hpp"
#include "check/replay.hpp"
#include "obs/autopsy.hpp"
#include "obs/observer.hpp"
#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "psim/engine.hpp"
#include "sim/scheduler.hpp"
#include "stats/table.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;

int main(int argc, char** argv) {
  // The run, described as the schedule checker describes one, with
  // uts_cli's own defaults: no watchdog, no crash-detection latency, and no
  // steal timeout unless one is given or a fault plan needs it.
  check::CheckSpec spec;
  spec.nranks = 16;
  spec.chunk = 10;
  spec.steal_timeout_ns = 0;
  spec.watchdog_ns = 0;
  spec.faults.crash_detect_ns = 0;
  uts::Params& tree = spec.tree;
  tree = uts::Params{};
  tree.type = uts::TreeType::kBinomial;
  tree.b0 = 2000;
  tree.q = 0.4995;
  tree.m = 2;
  tree.gen_mx = 8;
  tree.root_seed = 5;

  int poll = 1;
  bool verbose = false;
  bool csv = false;
  std::string engine_name = "sim";
  int workers = 0;  // psim worker threads; 0 = hardware concurrency
  std::string trace_json, trace_csv, replay_path;
  std::string metrics_path, report_path, timeline_path;
  bool spans = false;
  bool psim_window_metrics = false;
  std::uint64_t obs_sample_ns = 100'000;
  std::size_t trace_cap = 0;
  pgas::FaultPlan& faults = spec.faults;
  pgas::CrashSpec::Where crash_where = pgas::CrashSpec::Where::kAnywhere;
  bool steal_timeout_set = false;
  std::uint64_t deadline_ns = 0;

  // Every value goes through the shared strict parsers (src/check/cli.hpp).
  check::Args args("uts_cli", argc, argv);
  args.parse([&](const std::string& a) {
    auto rank_at = [&](auto& specs) {
      for (const auto& [rank, at] : check::parse_rank_at_list(args.value(), a))
        specs.push_back({rank, at});
    };
    if (a == "-t")
      tree.type = check::parse_uint<unsigned>(args.value(), a) == 0
                      ? uts::TreeType::kGeometric
                      : uts::TreeType::kBinomial;
    else if (a == "-b")
      args.read(tree.b0);
    else if (a == "-q")
      args.read(tree.q);
    else if (a == "-m")
      args.read(tree.m);
    else if (a == "-g")
      args.read(tree.gen_mx);
    else if (a == "-r")
      args.read(tree.root_seed);
    else if (a == "-A")
      spec.algo = check::algo_from_label(args.value());
    else if (a == "-n")
      args.read(spec.nranks, 1);
    else if (a == "-c")
      args.read(spec.chunk, 1);
    else if (a == "-i")
      args.read(poll, 1);
    else if (a == "--sample-frac")
      args.read(spec.sample_frac);
    else if (a == "--quantile")
      args.read(spec.quantile);
    else if (a == "--lifeline-dim")
      args.read(spec.lifeline_dim);
    else if (a == "-e")
      engine_name = args.value();
    else if (a == "--workers")
      workers = check::parse_workers(args.value(), a);
    else if (a == "--net") {
      spec.net = args.value();
      check::net_by_name(spec.net);  // reject an unknown name here
    } else if (a == "-S")
      args.read(spec.run_seed);
    else if (a == "-v")
      verbose = true;
    else if (a == "--trace")
      trace_json = args.value();
    else if (a == "--trace-csv")
      trace_csv = args.value();
    else if (a == "--trace-cap")
      args.read(trace_cap);
    else if (a == "--metrics")
      metrics_path = args.value();
    else if (a == "--report")
      report_path = args.value();
    else if (a == "--spans")
      spans = true;
    else if (a == "--timeline")
      timeline_path = args.value();
    else if (a == "--psim-window-metrics")
      psim_window_metrics = true;
    else if (a == "--obs-sample")
      args.read(obs_sample_ns);
    else if (a == "--csv")
      csv = true;
    else if (a == "--replay")
      replay_path = args.value();
    else if (a == "--stall")
      check::parse_stall(args.value(), a, faults);
    else if (a == "--drop-prob")
      args.read(faults.drop_prob);
    else if (a == "--dup-prob")
      args.read(faults.dup_prob);
    else if (a == "--steal-timeout") {
      args.read(spec.steal_timeout_ns);
      steal_timeout_set = true;
    } else if (a == "--watchdog-ms")
      spec.watchdog_ns =
          static_cast<std::uint64_t>(check::parse_real(args.value(), a) * 1e6);
    else if (a == "--deadline-ns" || a == "--deadline")
      args.read(deadline_ns);
    else if (a == "--crash")
      rank_at(faults.crashes);
    else if (a == "--crash-in-lock")
      crash_where = pgas::CrashSpec::Where::kInLock;
    else if (a == "--crash-mid-steal")
      crash_where = pgas::CrashSpec::Where::kMidSteal;
    else if (a == "--crash-detect")
      args.read(faults.crash_detect_ns);
    else if (a == "--drain")
      rank_at(faults.drains);
    else if (a == "--join")
      rank_at(faults.joins);
    else if (a == "--partition")
      check::parse_partitions(args.value(), a, faults);
    else
      return false;
    return true;
  });

  if (!replay_path.empty()) {
    try {
      const check::ReplayFile rf = check::load_replay(replay_path);
      std::printf("uts_cli: replaying %s  algo=%s ranks=%d chunk=%d "
                  "seed=%llu  %zu recorded decisions, expected outcome: %s\n",
                  replay_path.c_str(), ws::algo_label(rf.spec.algo),
                  rf.spec.nranks, rf.spec.chunk,
                  static_cast<unsigned long long>(rf.spec.run_seed),
                  rf.trail.size(), rf.oracle.c_str());
      return check::report_replay(rf, check::run_replay(rf));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "uts_cli: %s\n", e.what());
      return 2;
    }
  }

  // Validate the fault plan against the run shape before any work happens:
  // a nonsensical plan dies with one clear line instead of hanging, crashing
  // deep in the runtime, or silently injecting nothing.
  if (!(spec.sample_frac > 0.0) || spec.sample_frac > 1.0)
    args.fail("--sample-frac wants a value in (0,1]");
  if (spec.quantile > 1.0) args.fail("--quantile wants a value in [0,1]");
  if (!timeline_path.empty() && report_path.empty())
    args.fail("--timeline requires --report (the span log it exports is "
              "only assembled for reported runs)");
  if (psim_window_metrics && engine_name != "psim")
    args.fail("--psim-window-metrics requires -e psim (window telemetry "
              "only exists under the conservative-PDES engine)");
  args.validate(faults, spec.nranks, spec.algo);
  for (pgas::CrashSpec& c : faults.crashes) c.where = crash_where;

  check::SpecConfigs configs = check::configs_for(spec);
  const pgas::RunConfig& rcfg = configs.run;
  ws::WsConfig& cfg = configs.ws;
  const ws::UtsProblem prob(tree);
  cfg.poll_interval = poll;
  cfg.cancel_at_ns = deadline_ns;
  if (faults.any() && !steal_timeout_set) {
    // Faults without hardening can stall steals indefinitely (and drops
    // would hang mpi-ws outright); default to timeouts at 10x the remote
    // latency. Pass --steal-timeout 0 explicitly to study the failure.
    cfg.steal_timeout_ns = 10 * rcfg.net.remote_ref_ns;
    if (!csv)
      std::printf("fault plan active: steal timeout defaulted to %llu ns\n",
                  static_cast<unsigned long long>(cfg.steal_timeout_ns));
  }
  std::unique_ptr<trace::Trace> tr;
  if (!trace_json.empty() || !trace_csv.empty()) {
    tr = std::make_unique<trace::Trace>(spec.nranks);
    cfg.trace = tr.get();
    cfg.trace_cap = trace_cap;
  }
  std::unique_ptr<obs::Observer> observer;
  if (!metrics_path.empty() || !report_path.empty() || spans ||
      psim_window_metrics) {
    observer = std::make_unique<obs::Observer>();
    cfg.obs = observer.get();
    cfg.obs_sample_ns = obs_sample_ns;
  }

  if (!csv)
    std::printf("uts_cli: %s  algo=%s ranks=%d chunk=%d engine=%s net=%s\n",
                tree.describe().c_str(), ws::algo_label(spec.algo),
                spec.nranks, spec.chunk, engine_name.c_str(),
                spec.net.c_str());
  // Always state the effective seeds (stderr, so --csv stays parseable): a
  // reported run is reproducible only with tree seed + run seed in hand.
  std::fprintf(stderr, "seeds: tree=%u run=%llu (repeat with -r %u -S %llu)\n",
               tree.root_seed, static_cast<unsigned long long>(spec.run_seed),
               tree.root_seed, static_cast<unsigned long long>(spec.run_seed));

  ws::SearchResult res;
  psim::PsimEngine::Stats ledger;  // psim: the search's host-time ledger
  double wall_s = 0;
  int lanes = 1;
  try {
    if (engine_name == "sim") {
      pgas::SimEngine eng;
      res = ws::run_search(eng, rcfg, prob, cfg);
    } else if (engine_name == "psim") {
      psim::PsimEngine eng(workers);
      const auto t0 = std::chrono::steady_clock::now();
      res = ws::run_search(eng, rcfg, prob, cfg);
      wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
      lanes = std::min(eng.workers(), spec.nranks);
      ledger = eng.last_stats();
    } else if (engine_name == "threads") {
      pgas::ThreadEngine eng;
      res = ws::run_search(eng, rcfg, prob, cfg);
    } else {
      args.fail("unknown -e engine");
    }
  } catch (const sim::HangDetected& e) {
    std::fprintf(stderr, "uts_cli: HANG DETECTED\n%s\n", e.what());
    return 3;
  } catch (const sim::TimeLimitExceeded& e) {
    std::fprintf(stderr, "uts_cli: virtual time limit exceeded\n%s\n",
                 e.what());
    return 4;
  }

  if (tr) {
    if (!trace_json.empty()) {
      std::ofstream f(trace_json);
      if (observer) {
        // Stitch completed steal spans into the timeline as Perfetto flow
        // events (arrows from the thief's request to its absorb).
        tr->write_chrome_json(f, observer->spans().flow_events());
      } else {
        tr->write_chrome_json(f);
      }
      std::printf("wrote %zu trace events to %s (chrome://tracing)\n",
                  tr->total_events(), trace_json.c_str());
      if (tr->dropped_events() > 0)
        std::printf("trace ring overflow: %llu events dropped (oldest first; "
                    "raise --trace-cap)\n",
                    static_cast<unsigned long long>(tr->dropped_events()));
    }
    if (!trace_csv.empty()) {
      std::ofstream f(trace_csv);
      tr->write_csv(f);
      std::printf("wrote event CSV to %s\n", trace_csv.c_str());
    }
  }
  if (observer) {
    if (!metrics_path.empty()) {
      std::ofstream f(metrics_path);
      observer->write_metrics_jsonl(f);
      std::printf("wrote %zu metric samples to %s\n",
                  observer->samples().total_points(), metrics_path.c_str());
      const std::string charts = observer->sparklines();
      if (!charts.empty()) std::fputs(charts.c_str(), stdout);
    }
    if (spans) {
      const std::vector<obs::Span> sp = observer->spans().assemble();
      std::size_t completed = 0, denied = 0, abandoned = 0, incomplete = 0,
                  salvaged = 0, timeouts = 0;
      for (const obs::Span& s : sp) {
        switch (s.outcome) {
          case obs::Span::Outcome::kCompleted: ++completed; break;
          case obs::Span::Outcome::kDenied: ++denied; break;
          case obs::Span::Outcome::kAbandoned: ++abandoned; break;
          case obs::Span::Outcome::kIncomplete: ++incomplete; break;
        }
        if (s.salvaged) ++salvaged;
        timeouts += s.timeouts;
      }
      std::printf(
          "steal spans: %zu total  %zu completed  %zu denied  %zu abandoned  "
          "%zu incomplete  (%zu salvaged, %zu timeouts)\n",
          sp.size(), completed, denied, abandoned, incomplete, salvaged,
          timeouts);
    }
    if (!report_path.empty()) {
      const obs::RunReport report = obs::autopsy(*observer, tr.get());
      std::ofstream f(report_path);
      report.write_json(f);
      std::printf("%s", report.ascii_table().c_str());
      std::printf("wrote idle-time autopsy to %s\n", report_path.c_str());
    }
    if (!timeline_path.empty()) {
      std::ofstream f(timeline_path);
      observer->spans().write_chrome_json(f);
      std::printf("wrote steal-span timeline to %s (chrome://tracing)\n",
                  timeline_path.c_str());
    }
    if (psim_window_metrics) {
      const std::vector<pgas::ObsSink::PsimWindow>& wins =
          observer->psim_windows();
      std::uint64_t events = 0, imbalance = 0;
      for (const pgas::ObsSink::PsimWindow& w : wins) {
        events += w.events;
        imbalance = std::max(
            imbalance, w.max_shard_switches - w.min_shard_switches);
      }
      std::printf("psim windows: %zu  events %llu  max shard imbalance %llu "
                  "switches/window\n",
                  wins.size(), static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(imbalance));
      for (const auto& [reason, count] : observer->psim_fallbacks())
        std::printf("psim fallback: serial lane (%s) x%llu\n", reason.c_str(),
                    static_cast<unsigned long long>(count));
      // Shares of workers x wall; the wall includes set-up and
      // verification, so they sum below 1 (0 on the serial lane).
      const auto share = [&](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-9 / (wall_s * lanes);
      };
      std::printf("psim host ledger: wall %.3f s  busy %.3f  wake wait %.3f  "
                  "barrier %.3f  completion %.3f\n",
                  wall_s, share(ledger.busy_ns), share(ledger.wake_wait_ns),
                  share(ledger.barrier_wait_ns), share(ledger.completion_ns));
    }
  }
  if (csv) {
    std::printf(
        "algo,ranks,chunk,net,tree,nodes,elapsed_s,mnodes_per_s,speedup,"
        "efficiency,steals,steals_per_s,working_frac\n");
    std::printf("%s,%d,%d,%s,\"%s\",%llu,%.9f,%.4f,%.4f,%.4f,%llu,%.1f,%.4f\n",
                ws::algo_label(spec.algo), spec.nranks, spec.chunk,
                spec.net.c_str(),
                tree.describe().c_str(),
                static_cast<unsigned long long>(res.agg.total_nodes),
                res.agg.elapsed_s, res.agg.nodes_per_sec / 1e6,
                res.agg.speedup, res.agg.efficiency,
                static_cast<unsigned long long>(res.agg.total_steals),
                res.agg.steals_per_sec, res.agg.working_frac);
  } else {
    std::printf("result: %s\n", res.agg.summary().c_str());
    std::printf("states: working %.1f%% searching %.1f%% stealing %.1f%% "
                "termination %.1f%%\n",
                100 * res.agg.state_frac[0], 100 * res.agg.state_frac[1],
                100 * res.agg.state_frac[2], 100 * res.agg.state_frac[3]);
  }

  if (deadline_ns > 0) {
    // A deadline run is judged on its accounting, not the full count: every
    // materialized node must be either visited or reclaimed, exactly once.
    std::printf("deadline: %llu ns  cancelled ranks %llu  visited %llu  "
                "reclaimed %llu  spawned %llu\n",
                static_cast<unsigned long long>(deadline_ns),
                static_cast<unsigned long long>(res.agg.total_cancels),
                static_cast<unsigned long long>(res.agg.total_nodes),
                static_cast<unsigned long long>(res.agg.total_reclaimed),
                static_cast<unsigned long long>(res.agg.total_spawned));
    if (res.agg.total_nodes + res.agg.total_reclaimed !=
        1 + res.agg.total_spawned) {
      std::printf("MISMATCH: nodes + reclaimed != 1 + spawned\n");
      return 1;
    }
    if (res.agg.total_cancels > 0) {
      std::printf("partial traversal (deadline fired): accounting OK\n");
      return 0;  // a fired deadline makes the sequential count moot
    }
  }

  // Verify against sequential (skip for paper-scale trees).
  const double expect = tree.expected_size();
  if (expect < 5e7) {
    const auto seq = uts::search_sequential(tree, 200'000'000);
    if (seq && seq->nodes != res.total_nodes()) {
      std::printf("MISMATCH: parallel %llu != sequential %llu\n",
                  static_cast<unsigned long long>(res.total_nodes()),
                  static_cast<unsigned long long>(seq->nodes));
      return 1;
    }
    if (seq && !csv)
      std::printf("verified against sequential traversal: OK\n");
  }

  if (verbose) {
    stats::Table t({"rank", "nodes", "releases", "steals", "probes",
                    "failed", "peak stack", "working%"});
    for (int r = 0; r < spec.nranks; ++r) {
      const auto& s = res.per_thread[r];
      const double tot = static_cast<double>(s.timer.total_ns());
      t.add_row({stats::Table::fmt(r), stats::Table::fmt(s.c.nodes),
                 stats::Table::fmt(s.c.releases), stats::Table::fmt(s.c.steals),
                 stats::Table::fmt(s.c.probes),
                 stats::Table::fmt(s.c.failed_steals),
                 stats::Table::fmt(s.c.max_stack),
                 stats::Table::fmt(
                     tot > 0 ? 100.0 * s.timer.ns_in(stats::State::kWorking) /
                                   tot
                             : 0.0,
                     1)});
    }
    t.print(std::cout);
  }
  return 0;
}
