// bench_paper -- every evaluation artifact of the paper in one table-driven
// harness. Each experiment runs its sweep and writes upcws-bench-v1 rows
// named "<experiment>/..."; one renderer prints any experiment's rows as
// tables. An experiment's "<experiment>/claims" row holds one 0/1 metric
// per verdict EXPERIMENTS.md gives, computed from the experiment's own rows.
//
//   seq           §4.1 the sequential search (its rate is host time; the
//                 per-hash SHA-1 cost is bench_micro's BM_Sha1)
//   engines       host ns per simulated node on sim, psim and threads: the
//                 median and MAD of k interleaved trials per row
//   fig4          Figure 4: every label across the chunk range
//   fig5, fig6    Figures 5-6: rank sweeps on the distributed and
//                 shared-memory cost models, on the parallel PDES engine
//   ladder        §4.2 refinement ladder, design-space ablation, victims
//   states        §6.2 time in state, from the idle-time autopsy
//   diffusion     §3.3.2 rapid diffusion of work sources
//   hierarchical  §6.2 future work: on-node-first victims; mpi-ws polling
//   motivation    §1 static partitioning vs stealing; a straggler rank
//   latency       §2 chunk size vs one-sided latency
//   pushing       §2/§5 stealing vs randomized work pushing
//   bnb           §6.1 branch-and-bound on the engine
//   faults        degradation under stalls, drops/dups and crashes
//   service       resident job service latency vs offered load
//
// Every figure except the host-time ones (host_*, wall_s) and psim's window
// counts is virtual time or a count, a pure function of the inputs:
// `ctest -L perf` compares the --quick JSON with bench/BENCH_paper.quick.json
// exactly (tools/compare_bench.py --exact). When fig5 and fig6 both run, the
// row sweep/fig5+fig6 holds the sum of their rows' wall times.
//
// Flags:
//   --quick | --full   smaller / paper-scale sweeps (default: in between)
//   --only id[,id...]  run only these experiments
//   --workers N        psim worker threads (default: hardware concurrency)
//   --out FILE         JSON path (default BENCH_paper[.quick|.full].json)
// Exit 1 when a hard check (Paper::require) fails: autopsy attribution
// under 99%, a zero-fault plan changing a run, a crash run miscounting
// nodes, an engines trial not repeating its row's invariants, or the
// sequential search exceeding its budget. Other claims that
// read 0 are recorded, not fatal: the gate catches any change to them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bnb/bnb.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/maxclique.hpp"
#include "common.hpp"
#include "obs/autopsy.hpp"
#include "obs/observer.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"
#include "psim/engine.hpp"
#include "sha1/sha1.hpp"
#include "stats/table.hpp"
#include "svc/service.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/tuner.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;
using benchutil::Mode;
using Row = benchutil::BenchReporter::Result;
using ws::Algo;

namespace {

// Names are built as prefix + value: GCC 12 misreports `"literal" + string`
// temporaries under -Wrestrict.
std::string label(Algo a, const std::string& prefix = "") {
  return prefix + ws::algo_label(a);
}
std::string str(double v, const std::string& prefix = "") {
  return prefix + benchutil::fmt(v, 0);
}

/// What every experiment shares: the mode, the engines and the rows.
struct Paper {
  Mode mode;
  benchutil::BenchReporter& rep;
  psim::PsimEngine& psim;
  pgas::SimEngine sim;
  std::string id;     // the running experiment
  std::string paper;  // what the paper reports, noted on its claims row
  std::vector<std::pair<std::string, std::string>> setup;  // config notes
  bool ok = true;     // false once a hard check fails

  template <class T>
  T pick(T quick, T dflt, T full) const {
    return mode == Mode::kQuick ? quick : mode == Mode::kFull ? full : dflt;
  }
  /// Notes `key`=`value` on every row created from now on.
  void note(const std::string& key, const std::string& value) {
    for (auto& [k, v] : setup)
      if (k == key) return void(v = value);
    setup.emplace_back(key, value);
  }
  /// A simulated machine: `net` is distributed, shared-memory or
  /// hierarchical:8 (8 ranks per node). Its configuration is noted.
  pgas::RunConfig machine(int nranks, const std::string& net,
                          std::uint64_t seed) {
    note("nranks", str(nranks));
    note("net", net);
    note("seed", str(static_cast<double>(seed)));
    pgas::RunConfig c;
    c.nranks = nranks;
    c.net = net == "shared-memory"    ? pgas::NetModel::shared_memory()
            : net == "hierarchical:8" ? pgas::NetModel::hierarchical(8)
                                      : pgas::NetModel::distributed();
    c.seed = seed;
    return c;
  }
  /// The experiment's row `name`. A new row carries the notes; the claims
  /// row carries what the paper reports instead.
  Row& row(const std::string& name) {
    Row& r = rep.result(id + "/" + name);
    if (r.metrics.empty() && r.notes.empty())
      r.notes = name == "claims" ? decltype(setup){{"paper", paper}} : setup;
    return r;
  }
  double at(const std::string& name, const std::string& metric) {
    return row(name).value(metric);
  }
  bool below(const std::string& a, const std::string& b, const char* metric) {
    return at(a, metric) < at(b, metric);
  }
  /// Records claim `name`; it reads 1 only if every call for it held.
  void claim(const std::string& name, bool held) {
    Row& c = row("claims");
    for (auto& [k, v] : c.metrics)
      if (k == name) return void(v = v != 0 && held);
    c.metric(name, held ? 1 : 0);
  }
  /// A claim whose failure also fails the run (exit 1).
  void require(const std::string& name, bool held) {
    if (!held) std::printf("FAIL: %s claim %s\n", id.c_str(), name.c_str());
    ok = ok && held;
    claim(name, held);
  }
};

ws::WsConfig cfg(Algo a, int chunk) {
  return ws::WsConfig::for_algo(a, chunk);
}

/// The figures every search row reports.
Row& search(Row& row, const ws::SearchResult& r) {
  return row.metric("nodes", r.agg.total_nodes)
      .metric("speedup", r.agg.speedup)
      .metric("efficiency", r.agg.efficiency)
      .metric("nodes_per_sec_virtual", r.agg.nodes_per_sec)
      .metric("steals", r.agg.total_steals)
      .metric("steals_per_sec", r.agg.steals_per_sec)
      .metric("virtual_elapsed_s", r.run.elapsed_s);
}

uts::Params binomial(double b0, double q, std::uint32_t root_seed) {
  uts::Params t;  // binomial, m = 2
  t.b0 = b0;
  t.q = q;
  t.root_seed = root_seed;
  return t;
}

/// True when every value is below the one before it.
bool falling(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
         v.end();
}

std::string cell(double v) {
  char buf[32];
  const bool whole = v == std::floor(v) || std::fabs(v) >= 1000;
  std::snprintf(buf, sizeof buf, whole ? "%.0f" : "%.4g", v);
  return buf;
}

/// Prints experiment `id`'s rows. Consecutive rows with the same metric
/// names share one table: one line per row, one column per metric. Notes
/// with one value across the table print above it; the JSON keeps them all.
void render(const std::vector<Row>& all, const std::string& id) {
  std::vector<const Row*> rows;
  for (const Row& r : all)
    if (r.name.rfind(id + "/", 0) == 0) rows.push_back(&r);
  std::stable_partition(rows.begin(), rows.end(), [&](const Row* r) {
    return r->name != id + "/claims";
  });
  const auto names = [](const Row* r) {
    std::vector<std::string> k;
    for (const auto& m : r->metrics) k.push_back(m.first);
    return k;
  };
  for (std::size_t i = 0, j = 0; i < rows.size(); i = j) {
    for (j = i + 1; j < rows.size() && names(rows[j]) == names(rows[i]);) ++j;
    std::vector<std::string> head{"row"};
    std::string shared;
    for (const auto& kv : rows[i]->notes) {
      bool same = true;
      for (std::size_t r = i; r < j; ++r)
        same = same && std::find(rows[r]->notes.begin(), rows[r]->notes.end(),
                                 kv) != rows[r]->notes.end();
      if (same) shared += "  " + kv.first + "=" + kv.second;
    }
    for (const std::string& m : names(rows[i])) head.push_back(m);
    stats::Table t(head);
    for (std::size_t r = i; r < j; ++r) {
      std::vector<std::string> c{rows[r]->name.substr(id.size() + 1)};
      for (const auto& m : rows[r]->metrics) c.push_back(cell(m.second));
      t.add_row(c);
    }
    std::printf("\n%s\n", shared.c_str());
    t.print(std::cout);
  }
}

// ---- §4.1: the sequential search, whose rate is host time ----------------

void seq(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(0),
                                  uts::scaled_large(1));
  p.note("tree", tree.describe());
  const auto r = uts::search_sequential(tree);
  p.require("sequential_search_within_budget", r.has_value());
  if (!r) return;
  p.row("uts")
      .metric("nodes", r->nodes)
      .metric("leaves", r->leaves)
      .metric("max_depth", r->max_depth)
      .metric("max_stack", r->max_stack)
      .metric("wall_s", r->seconds)
      .metric("host_nodes_per_sec", r->nodes_per_sec())
      .metric("calibrated_nodes_per_sec",
              1e9 / pgas::NetModel::distributed().work_ns_per_node)
      .note("kernel", sha1::kernel_name());
}

// ---- host time per simulated node, on each engine ------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median absolute deviation from the median.
double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> d;
  for (double x : v) d.push_back(std::fabs(x - m));
  return median(d);
}

/// Engines x protocols on the distributed net. Every row runs once untimed,
/// then k times, one pass over all rows at a time so host drift spreads over
/// them; a row writes the median and MAD of its host ns per node beside
/// invariants every trial must repeat. Each trial's wall time includes the
/// search's set-up and verification.
void engines(Paper& p) {
  struct Shape {
    uts::Params tree;
    int nranks, chunk;
  };
  const Shape t3{uts::scaled_bench(5), 16, 10},
      small{uts::test_small(1), 8, 4}, geo{uts::geo_test(1), 8, 4},
      t3l{uts::scaled_medium(1), 64, 10};
  struct Case {
    const char* engine;  // sim | threads | psim
    Algo algo;
    const char* tree;    // the row name's last part
    const Shape* shape;
    int workers = 0;     // psim: 2, or 0 for the run's --workers engine
    // Filled in below.
    std::string name{};
    pgas::RunConfig rcfg{};
    pgas::Engine* eng = nullptr;
    psim::PsimEngine* psim = nullptr;
    ws::SearchResult first{};  // the untimed pass
    std::map<std::string, std::vector<double>> host{};  // one value per trial
  };
  std::vector<Case> cases{{"sim", Algo::kUpcDistMem, "T3", &t3},
                          {"sim", Algo::kUpcDistMem, "small", &small},
                          {"sim", Algo::kMpiWs, "geo", &geo},
                          {"sim", Algo::kLifeline, "small", &small},
                          {"sim", Algo::kSampling, "geo", &geo},
                          {"psim", Algo::kUpcDistMem, "T3", &t3},
                          {"psim", Algo::kUpcDistMem, "small", &small, 2},
                          {"psim", Algo::kMpiWs, "geo", &geo, 2},
                          {"psim", Algo::kLifeline, "small", &small, 2},
                          {"psim", Algo::kSampling, "geo", &geo, 2}};
  if (p.mode != Mode::kQuick)
    cases.insert(cases.end(), {{"sim", Algo::kUpcSharedMem, "T3", &t3},
                               {"sim", Algo::kMpiWs, "T3", &t3},
                               {"threads", Algo::kUpcDistMem, "T3", &t3},
                               {"psim", Algo::kMpiWs, "T3", &t3},
                               {"psim", Algo::kUpcDistMem, "T3w2", &t3, 2}});
  if (p.mode == Mode::kFull)
    cases.insert(cases.end(), {{"sim", Algo::kUpcDistMem, "T3L", &t3l},
                               {"threads", Algo::kMpiWs, "T3", &t3},
                               {"psim", Algo::kUpcDistMem, "T3L", &t3l}});
  const int k = p.pick(5, 11, 11);
  p.note("trials", str(k));
  pgas::ThreadEngine threads;
  psim::PsimEngine two(2);
  for (Case& c : cases) {
    c.name = label(c.algo, std::string(c.engine) + "/") + "/" + c.tree;
    c.rcfg = p.machine(c.shape->nranks, "distributed", 1);
    p.note("tree", c.shape->tree.describe());
    p.note("chunk", str(c.shape->chunk));
    c.eng = c.engine == std::string("sim") ? static_cast<pgas::Engine*>(&p.sim)
                                           : &threads;
    if (c.engine == std::string("psim"))
      c.eng = c.psim = c.workers == 2 ? &two : &p.psim;
    Row& r = p.row(c.name);  // takes the notes above
    if (c.psim) r.note("workers", str(c.psim->workers()));
  }

  bool repeat = true;
  for (int pass = 0; pass <= k; ++pass)
    for (Case& c : cases) {
      benchutil::Stopwatch sw;
      ws::SearchResult r =
          ws::run_search(*c.eng, c.rcfg, ws::UtsProblem(c.shape->tree),
                         cfg(c.algo, c.shape->chunk));
      const double wall = sw.seconds();
      if (pass == 0) {
        c.first = std::move(r);
        continue;
      }
      // Threads rows' elapsed time is wall time.
      repeat = repeat && r.total_nodes() == c.first.total_nodes() &&
               r.run.switches == c.first.run.switches &&
               (c.eng == &threads || r.run.elapsed_s == c.first.run.elapsed_s);
      c.host["host_ns_per_node"].push_back(
          wall * 1e9 / static_cast<double>(r.total_nodes()));
      if (!c.psim) continue;
      // The host-time ledger as shares of lanes x wall.
      const psim::PsimEngine::Stats& ps = c.psim->last_stats();
      const double lane_ns =
          std::min(c.psim->workers(), c.rcfg.nranks) * wall * 1e9;
      const auto frac = [&](std::uint64_t ns) {
        return static_cast<double>(ns) / lane_ns;
      };
      c.host["host_frac.busy"].push_back(frac(ps.busy_ns));
      c.host["host_frac.wake_wait"].push_back(frac(ps.wake_wait_ns));
      c.host["host_frac.barrier_wait"].push_back(frac(ps.barrier_wait_ns));
      c.host["host_frac.completion"].push_back(frac(ps.completion_ns));
      c.host["windows"].push_back(static_cast<double>(ps.windows));
      c.host["events"].push_back(static_cast<double>(ps.events));
    }

  for (Case& c : cases) {
    const double ns = median(c.host["host_ns_per_node"]);
    Row& r = p.row(c.name)
                 .metric("nodes", c.first.total_nodes())
                 .metric("switches", c.first.run.switches);
    if (c.eng != &threads) r.metric("virtual_elapsed_s", c.first.run.elapsed_s);
    r.metric("host_ns_per_node", ns)
        .metric("host_ns_per_node_mad", mad(c.host["host_ns_per_node"]));
    if (!c.psim) continue;
    // On a T3-class tree, against sim on the same search.
    for (Case& s : cases)
      if ((c.shape == &t3 || c.shape == &t3l) && s.eng == &p.sim &&
          s.algo == c.algo && s.shape == c.shape)
        r.metric("host_speedup_vs_sim",
                 median(s.host["host_ns_per_node"]) / ns);
    for (const char* m : {"host_frac.busy", "host_frac.wake_wait",
                          "host_frac.barrier_wait", "host_frac.completion",
                          "windows", "events"})
      r.metric(m, median(c.host[m]));
    r.metric("events_per_window",
             r.value("events") / std::max(r.value("windows"), 1.0));
  }
  p.require("invariants_repeat_every_trial", repeat);
}

// ---- Figures 4-6 -----------------------------------------------------------

void fig4(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(5),
                                  uts::scaled_large(1));
  const auto chunks = p.pick<std::vector<int>>(
      {1, 5, 20, 100}, {1, 2, 5, 10, 20, 50, 100}, {1, 2, 5, 10, 20, 50, 100});
  p.note("tree", tree.describe());
  const ws::UtsProblem prob(tree);
  const pgas::RunConfig rcfg =
      p.machine(p.pick(16, 32, 32), "distributed", 42);
  for (Algo a : ws::kAllAlgos)
    for (int k : chunks)
      search(p.row(label(a) + str(k, "/k")),
             ws::run_search(p.sim, rcfg, prob, cfg(a, k)));

  const auto s = [&](Algo a, int k) {
    return p.at(label(a) + str(k, "/k"), "speedup");
  };
  const int k1 = chunks.front();
  for (int k : chunks)
    p.claim("distmem_ge_mpi_ws_every_chunk",
            s(Algo::kUpcDistMem, k) >= s(Algo::kMpiWs, k));
  p.claim("sharedmem_k1_under_tenth_of_rapdif",
          10 * s(Algo::kUpcSharedMem, k1) < s(Algo::kUpcTermRapdif, k1));
  p.claim("ladder_ordered_at_k1",
          s(Algo::kUpcSharedMem, k1) < s(Algo::kUpcTerm, k1) &&
              s(Algo::kUpcTerm, k1) < s(Algo::kUpcTermRapdif, k1));
}

/// One grid of labels x rank counts on psim, whose byte-identity guarantee
/// makes every figure equal SimEngine's. Full mode runs the figure's first
/// `full_algos` labels at 128-512 ranks on binomial(2000, (1 - 1e-5) / 2, 2):
/// the paper's T1 structure with q tuned so the per-root-child expectation
/// is 10^5 nodes. The family is heavy-tailed; root seed 2 draws 126,683,089
/// nodes, past the 10^8 bar within the wall-time budget (seed 1 realizes
/// only ~1.5x10^7). Returns the rank counts.
std::vector<int> scaling(Paper& p, const char* net, std::vector<Algo> algos,
                         std::size_t full_algos, std::vector<int> ranks) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(0),
                                  binomial(2000, (1.0 - 1e-5) / 2.0, 2));
  if (p.mode == Mode::kFull) algos.resize(full_algos);
  ranks = p.pick(ranks, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
                 {128, 256, 512});
  p.note("tree", tree.describe());
  p.note("chunk", "10");
  p.note("workers", str(p.psim.workers()));
  const ws::UtsProblem prob(tree);
  for (Algo a : algos)
    for (int n : ranks) {
      pgas::RunConfig rcfg = p.machine(n, net, 7);
      // Hundreds of fibers in one process: the searches use explicit steal
      // stacks, not call recursion, so a slim 96k stack per rank is ample.
      rcfg.fiber_stack_bytes = 96 * 1024;
      benchutil::Stopwatch sw;
      const auto r = ws::run_search(p.psim, rcfg, prob, cfg(a, 10));
      const double wall = sw.seconds();
      // Only the parallel lane closes windows.
      const psim::PsimEngine::Stats ps = p.psim.last_stats();
      search(p.row(label(a) + str(n, "/r")), r)
          .metric("wall_s", wall)
          .metric("windows", ps.windows)
          .metric("events", ps.events)
          .metric("events_per_window",
                  static_cast<double>(ps.events) /
                      std::max(static_cast<double>(ps.windows), 1.0))
          .note("lane", ps.windows > 0 ? "parallel" : "serial");
    }
  return ranks;
}

void fig5(Paper& p) {
  const std::vector<int> ranks =
      scaling(p, "distributed",
              {Algo::kUpcDistMem, Algo::kMpiWs, Algo::kUpcSharedMem}, 2,
              {1, 4, 16, 32, 64});
  const auto s = [&](Algo a, int n, const char* m = "speedup") {
    return p.at(label(a) + str(n, "/r"), m);
  };
  double steals = 0;
  for (int n : ranks) {
    p.claim("distmem_ge_mpi_ws_every_rank_count",
            s(Algo::kUpcDistMem, n) >= s(Algo::kMpiWs, n));
    steals = std::max(steals, s(Algo::kUpcDistMem, n, "steals_per_sec"));
  }
  p.claim("distmem_steals_per_sec_past_85k", steals > 85000);
  if (p.mode != Mode::kFull)
    p.claim("sharedmem_under_half_of_distmem_at_most_ranks",
            2 * s(Algo::kUpcSharedMem, ranks.back()) <
                s(Algo::kUpcDistMem, ranks.back()));
}

void fig6(Paper& p) {
  scaling(p, "shared-memory",
          {Algo::kUpcSharedMem, Algo::kUpcDistMem, Algo::kMpiWs}, 1,
          {1, 4, 16, 64});
  if (p.mode == Mode::kFull) return;
  // Over the paper's Altix range: up to 64 processors.
  for (int n : {1, 4, 16, 64}) {
    const auto s = [&](Algo a) {
      return p.at(label(a) + str(n, "/r"), "speedup");
    };
    const double shm = s(Algo::kUpcSharedMem), dm = s(Algo::kUpcDistMem),
                 mpi = s(Algo::kMpiWs);
    p.claim("upc_variants_closer_than_mpi_ws_to_64",
            std::fabs(shm - dm) < std::fabs(shm - mpi));
    p.claim("mpi_ws_behind_both_upc_to_64", mpi < shm && mpi < dm);
  }
}

// ---- §4.2, §6.2 -----------------------------------------------------------

void ladder(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(4),
                                  uts::scaled_bench(0));
  p.note("tree", tree.describe());
  p.note("chunk", "5,10,20");
  const ws::UtsProblem prob(tree);
  const pgas::RunConfig rcfg =
      p.machine(p.pick(16, 32, 32), "distributed", 3);

  // The paper's ladder, each variant at its own best chunk: one fixed chunk
  // would measure upc-sharedmem at its small-chunk collapse.
  std::vector<double> rates, ks;
  for (Algo a : {Algo::kUpcSharedMem, Algo::kUpcTerm, Algo::kUpcTermRapdif,
                 Algo::kUpcDistMem}) {
    ws::SearchResult best;
    int best_k = 0;
    for (int k : {5, 10, 20}) {
      ws::SearchResult r = ws::run_search(p.sim, rcfg, prob, cfg(a, k));
      if (r.agg.nodes_per_sec > best.agg.nodes_per_sec) best = r, best_k = k;
    }
    const double m = best.agg.nodes_per_sec;
    ks.push_back(best_k);
    search(p.row(label(a, "tuned/")), best)
        .metric("best_chunk", ks.back())
        .metric("gain_vs_prev", rates.empty() ? 0.0 : m / rates.back() - 1.0)
        .metric("gain_vs_base", rates.empty() ? 0.0 : m / rates[0] - 1.0);
    rates.push_back(m);
  }

  // The three mechanisms ablated independently at chunk 5, including the
  // off-diagonal combinations the paper never built.
  p.note("chunk", "5");
  std::map<std::string, double> rate;
  for (const char* name :
       {"cb-one-locked", "cb-half-locked", "cb-half-lockless",
        "probe-one-locked", "probe-one-lockless", "probe-half-locked",
        "probe-half-lockless"}) {
    const std::string n = name;
    ws::WsConfig c;
    c.chunk_size = 5;
    c.termination = n[0] == 'c' ? ws::Termination::kCancelableBarrier
                                : ws::Termination::kProbeBarrier;
    c.steal_amount = n.find("half") != std::string::npos
                         ? ws::StealAmount::kHalf
                         : ws::StealAmount::kOneChunk;
    c.protocol = n.find("lockless") != std::string::npos
                     ? ws::StackProtocol::kRequestResponse
                     : ws::StackProtocol::kLocked;
    const auto r = ws::run_search(p.sim, rcfg, prob, c);
    rate[n] = r.agg.nodes_per_sec;
    search(p.row("ablation/" + n), r)
        .metric("gain_vs_base", rate[n] / rate["cb-one-locked"] - 1.0);
  }

  // Victim policy on the distmem base: the policies trade probe traffic for
  // wake and termination latency (see states' autopsy rows).
  double base = 0;
  for (Algo a : {Algo::kUpcDistMem, Algo::kLifeline, Algo::kSampling}) {
    const auto r = ws::run_search(p.sim, rcfg, prob, cfg(a, 5));
    if (base == 0) base = r.agg.nodes_per_sec;
    search(p.row(label(a, "victim/")), r)
        .metric("probes", r.agg.total_probes)
        .metric("gain_vs_random", r.agg.nodes_per_sec / base - 1.0);
  }

  const double term = rate["probe-one-locked"] - rate["cb-one-locked"],
               half = rate["probe-half-locked"] - rate["probe-one-locked"],
               lockless =
                   rate["probe-half-lockless"] - rate["probe-half-locked"];
  p.claim("each_refinement_improves",
          std::adjacent_find(rates.begin(), rates.end(),
                             std::greater_equal<>()) == rates.end());
  p.claim("distmem_above_sharedmem", rates.back() > rates.front());
  p.claim("best_chunk_never_grows_down_ladder",
          std::is_sorted(ks.begin(), ks.end(), std::greater<>()));
  p.claim("lever_order_termination_half_lockless",
          term > half && half > lockless);
  p.claim("lifeline_fewer_probes",
          p.below("victim/lifeline", "victim/upc-distmem", "probes"));
}

/// Attributes a run's thread-time by cause (obs/autopsy.hpp), as fractions
/// of all thread-time so a row sums to 1 with working_frac.
Row& autopsy(Paper& p, const std::string& name, pgas::Engine& eng,
             const pgas::RunConfig& rcfg, const ws::Problem& prob, Algo a) {
  obs::Observer observer;
  ws::WsConfig c = cfg(a, 10);
  c.obs = &observer;
  const auto r = ws::run_search(eng, rcfg, prob, c);
  const obs::RunReport rep = obs::autopsy(observer);
  const double total = std::max(static_cast<double>(rep.total_ns), 1.0);
  const auto ns = [&](obs::Cause c) {
    return static_cast<double>(rep.cause_ns[static_cast<int>(c)]);
  };
  p.require("autopsy_attributes_99pct", rep.attributed_frac >= 0.99);
  return p.row(name)
      .metric("working_frac", rep.working_frac)
      .metric("victim_miss_frac", ns(obs::Cause::kVictimMissSearch) / total)
      .metric("steal_latency_frac", ns(obs::Cause::kStealLatency) / total)
      .metric("lock_frac", ns(obs::Cause::kLockContention) / total)
      .metric("termination_wait_frac",
              ns(obs::Cause::kTerminationWait) / total)
      .metric("residual_frac", static_cast<double>(rep.residual_ns) / total)
      .metric("attributed_frac", rep.attributed_frac)
      .metric("efficiency", r.agg.efficiency)
      .metric("probes", r.agg.total_probes)
      .metric("nodes", r.agg.total_nodes)
      .metric("victim_miss_ns", ns(obs::Cause::kVictimMissSearch));
}

void states(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(0),
                                  uts::scaled_large(1));
  p.note("tree", tree.describe());
  p.note("chunk", "10");
  const ws::UtsProblem prob(tree);
  std::vector<double> working;
  std::string top;  // the largest rank count
  for (int n :
       p.pick<std::vector<int>>({4, 16}, {4, 16, 32}, {4, 16, 32, 64})) {
    top = str(n, "/r");
    const pgas::RunConfig rcfg = p.machine(n, "distributed", 9);
    const auto frac = [&](Algo a) {
      return autopsy(p, label(a) + str(n, "/r"), p.sim, rcfg, prob, a)
          .value("working_frac");
    };
    working.push_back(frac(Algo::kUpcDistMem));
    p.claim("distmem_working_ge_sharedmem_every_rank_count",
            working.back() >= frac(Algo::kUpcSharedMem));
  }

  // Victim policies at one high rank count on psim. Full mode reuses the
  // default tree: the question is idle-time composition, not tree size.
  const uts::Params atree = p.pick(tree, uts::scaled_bench(0),
                                   uts::scaled_bench(0));
  p.note("tree", atree.describe());
  const ws::UtsProblem aprob(atree);
  const int n = p.pick(64, 128, 128);
  pgas::RunConfig rcfg = p.machine(n, "distributed", 7);
  rcfg.fiber_stack_bytes = 96 * 1024;
  double distmem_ns = 0, lifeline = 0;
  for (Algo a : {Algo::kUpcDistMem, Algo::kLifeline, Algo::kSampling}) {
    Row& r = autopsy(p, label(a, "autopsy/") + str(n, "/r"), p.psim, rcfg,
                     aprob, a);
    if (a == Algo::kUpcDistMem) distmem_ns = r.value("victim_miss_ns");
    r.metric("victim_miss_vs_distmem", r.value("victim_miss_ns") / distmem_ns);
    if (a == Algo::kLifeline) lifeline = r.value("victim_miss_vs_distmem");
  }

  const auto more = [&](const char* m) {
    return p.below("upc-distmem" + top, "upc-sharedmem" + top, m);
  };
  p.claim("working_frac_falls_with_ranks", falling(working));
  p.claim("sharedmem_more_lock_and_termination_wait",
          more("lock_frac") && more("termination_wait_frac"));
  p.claim("lifeline_less_victim_miss", lifeline < 1);
}

// ---- §3.3.2 and the extensions ------------------------------------------

void diffusion(Paper& p) {
  const int n = p.pick(16, 32, 32), buckets = 12;
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(5),
                                  uts::scaled_bench(0));
  p.note("tree", tree.describe());
  p.note("chunk", "4");
  const ws::UtsProblem prob(tree);
  const pgas::RunConfig rcfg = p.machine(n, "distributed", 21);
  const Algo algos[] = {Algo::kUpcTerm, Algo::kUpcTermRapdif};
  std::vector<ws::SearchResult> res;
  std::uint64_t horizon = 0;
  for (Algo a : algos) {
    const auto& r =
        res.emplace_back(ws::run_search(p.sim, rcfg, prob, cfg(a, 4)));
    horizon = std::max(horizon,
                       static_cast<std::uint64_t>(r.run.elapsed_s * 1e9));
    search(p.row(label(a)), r)
        .metric("probes", r.agg.total_probes)
        .metric("probes_per_steal",
                r.agg.total_steals ? static_cast<double>(r.agg.total_probes) /
                                         static_cast<double>(r.agg.total_steals)
                                   : 0.0)
        .metric("failed_steals", r.agg.total_failed_steals);
  }
  // Peak concurrent work sources per time slice of the slower makespan.
  std::vector<int> first;
  for (int i = 0; i < 2; ++i) {
    const auto series =
        stats::work_source_timeline(res[i].per_thread, horizon, buckets);
    Row& r = p.row(label(algos[i]) + "/sources");
    for (int b = 0; b < buckets; ++b)
      r.metric(str((b + 1) * 100 / buckets, "t"), series[b]);
    first.push_back(series[0]);
  }
  for (const char* m : {"probes", "steals"})
    p.claim(std::string("steal_half_fewer_") + m,
            p.below("upc-term-rapdif", "upc-term", m));
  p.claim("steal_half_faster",
          p.below("upc-term", "upc-term-rapdif", "nodes_per_sec_virtual"));
  p.claim("steal_half_all_sources_in_first_slice",
          first[1] == n && first[0] < n);
}

void hierarchical(Paper& p) {
  const int n = p.pick(16, 64, 64);
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(0),
                                  uts::scaled_large(1));
  p.note("tree", tree.describe());
  const ws::UtsProblem prob(tree);
  const pgas::RunConfig hier = p.machine(n, "hierarchical:8", 13);
  for (const bool local : {false, true})
    for (int chunk : {5, 10, 20}) {
      ws::WsConfig c = cfg(Algo::kUpcDistMem, chunk);
      c.locality_first = local;
      const auto r = ws::run_search(p.sim, hier, prob, c);
      search(p.row(str(chunk, local ? "on-node-first/k" : "uniform/k")), r)
          .metric("probes", r.agg.total_probes);
      if (local && chunk < 20)
        p.claim("on_node_first_wins_k5_k10",
                p.below(str(chunk, "uniform/k"), str(chunk, "on-node-first/k"),
                        "nodes_per_sec_virtual"));
    }
  // mpi-ws polling interval (the paper's MPI runs used tuned intervals).
  const pgas::RunConfig dist = p.machine(n, "distributed", 13);
  std::vector<double> rates;
  for (int poll : {1, 4, 16, 64, 256}) {
    ws::WsConfig c = cfg(Algo::kMpiWs, 10);
    c.poll_interval = poll;
    rates.push_back(search(p.row(str(poll, "mpi-ws-poll/p")),
                           ws::run_search(p.sim, dist, prob, c))
                        .value("nodes_per_sec_virtual"));
  }
  const auto best = std::max_element(rates.begin(), rates.end());
  p.claim("poll_optimum_inside_sweep",
          best != rates.begin() && best != rates.end() - 1);
}

void motivation(Paper& p) {
  const int n = p.pick(8, 16, 16);
  p.note("chunk", "10");
  // Imbalance sweep: q -> 1/2 makes subtree sizes heavy-tailed; b0 shrinks
  // as q grows to keep instance sizes comparable. Then a mild tree with one
  // slow rank, which gates static partitioning.
  struct Point {
    std::string name;
    uts::Params tree;
    double straggler;  // rank 1's work factor; 0: no straggler
  };
  std::vector<Point> points{
      {"imbalance/mild", binomial(50000, 0.30, 0), 0},
      {"imbalance/moderate", binomial(20000, 0.45, 0), 0},
      {"imbalance/skewed", binomial(5000, 0.49, 0), 0},
      {"imbalance/paper-regime", binomial(2000, 0.4995, 5), 0}};
  if (p.mode == Mode::kQuick) points.erase(points.begin() + 1);
  for (double f : {1.0, 2.0, 4.0, 8.0})
    points.push_back({str(f, "straggler/x"), binomial(20000, 0.30, 0), f});
  for (const Point& pt : points) {
    const ws::UtsProblem prob(pt.tree);
    pgas::RunConfig rcfg = p.machine(n, "distributed", 2);
    if (pt.straggler > 0) {
      rcfg.net.straggler_rank = 1;
      rcfg.net.straggler_work_factor = pt.straggler;
    }
    const auto stat = ws::run_static_partition(p.sim, rcfg, prob);
    const auto steal =
        ws::run_search(p.sim, rcfg, prob, cfg(Algo::kUpcDistMem, 10));
    p.note("tree", pt.tree.describe());
    Row& r = p.row(pt.name)
                 .metric("static_speedup", stat.agg.speedup)
                 .metric("stealing_speedup", steal.agg.speedup);
    if (pt.straggler == 0)
      r.metric("nodes", steal.total_nodes())
          .metric("static_max_over_mean", stat.agg.nodes_max_over_mean)
          .metric("stealing_max_over_mean", steal.agg.nodes_max_over_mean);
  }
  const auto steal_wins = [&](const std::string& row) {
    return p.at(row, "stealing_speedup") > p.at(row, "static_speedup");
  };
  p.claim("stealing_beats_static_paper_regime",
          steal_wins("imbalance/paper-regime"));
  p.claim("static_speedup_halves_paper_regime",
          2 * p.at("imbalance/paper-regime", "static_speedup") <
              p.at("imbalance/mild", "static_speedup"));
  p.claim("stealing_beats_static_8x_straggler", steal_wins("straggler/x8"));
}

void latency(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(5),
                                  uts::scaled_bench(0));
  const auto chunks = p.pick<std::vector<int>>(
      {1, 10, 50}, {1, 2, 5, 10, 20, 50}, {1, 2, 5, 10, 20, 50});
  p.note("tree", tree.describe());
  p.note("algo", "upc-distmem");
  const ws::UtsProblem prob(tree);
  std::vector<double> best, k1_share;
  for (double lat : p.pick<std::vector<double>>(
           {200, 3000}, {200, 1000, 3000, 10000}, {200, 1000, 3000, 10000})) {
    pgas::RunConfig rcfg = p.machine(16, "distributed", 31);
    rcfg.net.remote_ref_ns = static_cast<std::uint64_t>(lat);
    const auto tuned =
        ws::tune_chunk(p.sim, rcfg, Algo::kUpcDistMem, prob, chunks);
    Row& r = p.row(str(lat, "ref") + "ns");
    for (const auto& [k, rate] : tuned.rates)
      r.metric(str(k, "nodes_per_sec_k"), rate);
    r.metric("best_chunk", tuned.best_chunk);
    best.push_back(tuned.best_chunk);
    k1_share.push_back(tuned.rates.front().second / tuned.best_nodes_per_sec);
  }
  p.claim("sweet_spot_moves_right", std::is_sorted(best.begin(), best.end()) &&
                                        best.back() > best.front());
  p.claim("k1_share_of_best_falls", k1_share.back() < k1_share.front());
}

void pushing(Paper& p) {
  const uts::Params tree = p.pick(uts::scaled_bench(5), uts::scaled_bench(5),
                                  uts::scaled_bench(0));
  p.note("tree", tree.describe());
  p.note("chunk", "10");
  const ws::UtsProblem prob(tree);
  for (int n : p.pick<std::vector<int>>({8, 32}, {8, 32}, {8, 32, 64})) {
    const pgas::RunConfig rcfg = p.machine(n, "distributed", 17);
    const auto steal =
        ws::run_search(p.sim, rcfg, prob, cfg(Algo::kUpcDistMem, 10));
    search(p.row(str(n, "r") + "/steal"), steal)
        .metric("nodes_cov", steal.agg.nodes_cov);
    for (int iv : {8, 32, 128}) {
      ws::WsConfig c = cfg(Algo::kWorkPush, 10);
      c.push_interval = iv;
      const auto push = ws::run_search(p.sim, rcfg, prob, c);
      search(p.row(str(n, "r") + str(iv, "/push")), push)
          .metric("nodes_cov", push.agg.nodes_cov);
      p.claim("stealing_beats_every_push_interval",
              steal.agg.speedup > push.agg.speedup);
      p.claim("stealing_fewest_transfers",
              steal.agg.total_steals < push.agg.total_steals);
    }
  }
}

void bnb(Paper& p) {
  p.note("chunk", "4");
  p.note("work_ns_per_node", "200");
  pgas::RunConfig rcfg = p.machine(p.pick(8, 16, 16), "distributed", 5);
  rcfg.net.work_ns_per_node = 200;  // bound evaluation per subproblem
  // Dense graphs and strongly correlated items keep the bounds loose enough
  // that the enumeration tree is worth parallelizing.
  const bnb::MaxClique mc(bnb::make_random_graph(p.pick(50, 55, 60), 0.9, 42));
  const bnb::Knapsack ks(
      bnb::make_knapsack_instance_strong(p.pick(60, 80, 100), 77),
      p.pick(0.5, 0.3, 0.3));
  for (const auto& [name, prob] :
       {std::pair<std::string, const bnb::BnbProblem*>{"max-clique/", &mc},
        {"knapsack/", &ks}}) {
    std::vector<double> optima;
    for (Algo a : {Algo::kUpcDistMem, Algo::kMpiWs}) {
      const auto r = bnb::solve(p.sim, rcfg, *prob, cfg(a, 4));
      optima.push_back(static_cast<double>(r.optimum));
      search(p.row(label(a, name)), r.search).metric("optimum", optima.back());
    }
    p.claim("optima_agree_across_algorithms", optima[0] == optima[1]);
  }
  p.claim("knapsack_outscales_clique",
          p.below("max-clique/upc-distmem", "knapsack/upc-distmem", "speedup"));
}

// ---- robustness and the service -------------------------------------------

void faults(Paper& p) {
  const int n = p.pick(16, 16, 32);
  const uts::Params tree = p.pick(uts::scaled_medium(9), uts::scaled_bench(9),
                                  uts::scaled_bench(9));
  p.note("tree", tree.describe());
  p.note("chunk", "8");
  const ws::UtsProblem prob(tree);
  const pgas::RunConfig base = p.machine(n, "distributed", 17);

  // Transient stalls of growing duty cycle, every ~100 us; each algorithm's
  // rate relative to its own stall-free run. An attached all-zero plan must
  // leave that run unchanged.
  for (Algo a : ws::kAllAlgosExtended) {
    const auto plain = ws::run_search(p.sim, base, prob, cfg(a, 8));
    pgas::RunConfig rcfg = base;
    rcfg.faults = pgas::FaultPlan{};
    const auto zeroed = ws::run_search(p.sim, rcfg, prob, cfg(a, 8));
    p.require("zero_fault_plan_free",
              plain.run.elapsed_s == zeroed.run.elapsed_s &&
                  plain.agg.total_steals == zeroed.agg.total_steals);
    std::vector<double> rates{plain.agg.nodes_per_sec};
    Row& r = search(p.row(label(a, "stall/")), plain)
                 .metric("zero_plan_virtual_elapsed_s", zeroed.run.elapsed_s);
    for (double us : p.pick<std::vector<double>>(
             {50, 400}, {20, 50, 100, 200, 400}, {20, 50, 100, 200, 400})) {
      rcfg.faults.stall_ns = static_cast<std::uint64_t>(us * 1000);
      rcfg.faults.stall_period_ns = 100'000;
      rates.push_back(
          ws::run_search(p.sim, rcfg, prob, cfg(a, 8)).agg.nodes_per_sec);
      r.metric(str(us, "rel_stall_") + "us", rates.back() / rates[0]);
    }
    p.claim("stall_rate_falls_with_duty_cycle", falling(rates));
  }

  // Message drop+dup for the hardened mpi-ws (sequence numbers, retransmit).
  ws::WsConfig mcfg = cfg(Algo::kMpiWs, 8);
  mcfg.steal_timeout_ns = 30'000;
  std::vector<double> rates;
  for (double pr : p.pick<std::vector<double>>({0.0, 0.1},
                                               {0.0, 0.02, 0.05, 0.1, 0.2},
                                               {0.0, 0.02, 0.05, 0.1, 0.2})) {
    pgas::RunConfig rcfg = base;
    rcfg.faults.drop_prob = pr;
    rcfg.faults.dup_prob = pr;
    const auto r = ws::run_search(p.sim, rcfg, prob, mcfg);
    rates.push_back(r.agg.nodes_per_sec);
    Row& row =
        search(p.row(std::string("dropdup/p") + benchutil::fmt(pr)), r)
            .metric("rel_to_fault_free", rates.back() / rates.front())
            .metric("retransmits", r.agg.total_retransmits)
            .metric("dups_suppressed", r.agg.total_dups_suppressed)
            .metric("dropped", r.agg.faults.dropped)
            .metric("duplicated", r.agg.faults.duplicated)
            .note("steal_timeout_ns", "30000");
    // Token hops go out in copies only under drops (TokenWorker::copies).
    if (pr > 0) row.metric("copies_dropped", r.agg.total_copies_dropped);
  }
  p.claim("dropdup_rate_falls_with_probability", falling(rates));

  // Permanent crashes of up to 25% of the ranks, staggered 100 us apart;
  // detection 10 us, lock leases on. Recovery latency is the worst time
  // from a rank's death to the recovery of its work, from the trace.
  for (Algo a : {Algo::kUpcSharedMem, Algo::kUpcTerm, Algo::kUpcDistMem,
                 Algo::kMpiWs, Algo::kLifeline, Algo::kSampling}) {
    rates.clear();
    std::uint64_t nodes0 = 0;
    for (int k : p.pick<std::vector<int>>({0, n / 4}, {0, 1, n / 8, n / 4},
                                          {0, 1, n / 8, n / 4})) {
      pgas::RunConfig rcfg = base;
      rcfg.watchdog_ns = 60'000'000'000ull;
      for (int i = 0; i < k; ++i)
        rcfg.faults.crashes.push_back({2 * i + 1, 100'000ull * (i + 1),
                                       pgas::CrashSpec::Where::kAnywhere});
      rcfg.faults.crash_detect_ns = 10'000;
      rcfg.lock_lease_ns = 200'000;
      trace::Trace tr(n);
      ws::WsConfig c = cfg(a, 8);
      c.steal_timeout_ns = 30'000;  // hardened: crashed peers must time out
      c.trace = &tr;
      const auto r = ws::run_search(p.sim, rcfg, prob, c);
      rates.push_back(r.agg.nodes_per_sec);
      if (k == 0) nodes0 = r.total_nodes();
      p.require("crash_node_counts_exact", r.total_nodes() == nodes0);
      std::map<int, std::uint64_t> death;
      std::uint64_t lat = 0;
      for (const auto& e : tr.merged()) {
        if (e.kind == trace::Kind::kRankCrashed) death[e.rank] = e.t_ns;
        const auto it = death.find(e.arg0);
        if (e.kind == trace::Kind::kWorkRecovered && it != death.end() &&
            e.t_ns > it->second)
          lat = std::max(lat, e.t_ns - it->second);
      }
      search(p.row(label(a, "crash/") + str(k, "/k")), r)
          .metric("rel_to_crash_free", rates.back() / rates.front())
          .metric("salvages", r.agg.total_salvages)
          .metric("replays", r.agg.total_replays)
          .metric("recovered_nodes", r.agg.total_recovered_nodes)
          .metric("recovery_latency_us", static_cast<double>(lat) / 1000.0);
    }
    p.claim("crash_rate_falls_with_crashes", falling(rates));
  }
}

/// An open-loop Poisson stream of small UTS jobs into one Service, at mean
/// inter-arrivals of 2000 down to 60 virtual us; one small job takes a few
/// hundred us on the 6-rank pool. With chaos, every fourth stealing job
/// loses a rank.
void service(Paper& p) {
  const int jobs = p.pick(60, 160, 400);
  p.note("jobs", str(jobs));
  p.note("pool_ranks", "6");
  p.note("queue_cap", "16");
  p.note("seed", "42");
  for (const std::string pass : {"calm/", "chaos/"}) {
    for (double us : {2000, 1000, 500, 250, 120, 60}) {
      pgas::SimEngine eng;
      svc::ServiceConfig scfg;
      scfg.pool_ranks = 6;
      scfg.queue_cap = 16;
      scfg.repair_ns = 2'000'000;
      svc::Service s(eng, scfg);
      std::mt19937_64 g(42);
      std::uniform_real_distribution<double> uni(1e-12, 1.0);
      std::uint64_t t = 0;
      for (int i = 0; i < jobs; ++i) {
        svc::JobSpec spec;
        spec.workload = svc::Workload::kUts;
        spec.tree = uts::test_small(static_cast<int>(g() % 8));
        spec.algo = ws::kAllAlgosExtended[static_cast<std::size_t>(i % 6)];
        spec.chunk = 3;
        spec.run_seed = g() % 100'000 + 1;
        // A virtual-time fence bounds any wedge. Work-push has no steal
        // protocol to reroute around a dead rank, so it never crashes.
        spec.watchdog_ns = 200'000'000;
        if (pass == "chaos/" && i % 4 == 1 && spec.algo != Algo::kWorkPush) {
          spec.steal_timeout_ns = 30'000;
          pgas::CrashSpec c;
          c.rank = 1 + static_cast<int>(g() % 5);
          c.at_ns = 20'000 + g() % 80'000;
          spec.faults.crashes.push_back(c);
        }
        t += static_cast<std::uint64_t>(-us * 1000.0 * std::log(uni(g)));
        s.submit(spec, t);
      }
      s.drain();
      const svc::Summary sum = s.summary();
      std::vector<std::uint64_t> lat = sum.completed_latency_ns;
      std::sort(lat.begin(), lat.end());
      // Nearest-rank percentile of the completed jobs' latencies, in ms.
      const auto pct = [&](std::size_t pc) {
        const std::size_t i =
            std::max<std::size_t>((lat.size() * pc + 99) / 100, 1);
        return lat.empty() ? 0.0 : static_cast<double>(lat[i - 1]) * 1e-6;
      };
      const double horizon_s = static_cast<double>(sum.now_ns) * 1e-9;
      p.row(pass + str(us, "a") + "us")
          .metric("p50_ms", pct(50))
          .metric("p99_ms", pct(99))
          .metric("jobs_per_s",
                  horizon_s > 0 ? static_cast<double>(sum.completed) / horizon_s
                                : 0)
          .metric("shed_frac", static_cast<double>(sum.rejected) / jobs)
          .metric("queue_max", sum.queue_depth_max);
    }
    p.claim("no_shedding_at_slowest_arrivals",
            p.at(pass + "a2000us", "shed_frac") == 0);
    p.claim("sheds_at_fastest_arrivals", p.at(pass + "a60us", "shed_frac") > 0);
    p.claim("p99_rises_with_load",
            p.below(pass + "a2000us", pass + "a60us", "p99_ms"));
  }
}

struct Experiment {
  const char* id;
  void (*run)(Paper&);
  const char* paper;  // its reported figures, for the claims row's notes
};

const Experiment kExperiments[] = {
    {"seq", seq,
     "2.10 M nodes/s (Topsail E5345), 2.39 (Kitty Hawk E5150), 1.12 (Altix)"},
    {"engines", engines, "no figure: the simulator's own speed"},
    {"fig4", fig4,
     "256 threads: a plateau; sharedmem collapses at small k, MPI ~2x it"},
    {"fig5", fig5,
     "157B nodes, 1024 procs: 1.7B nodes/s, speedup 819, 80%, >85,000 st/s"},
    {"fig6", fig6, "Altix 3700: both UPC near-linear to 64 procs; MPI behind"},
    {"ladder", ladder, "256 threads: 3.3.1-3.3.3 each improve, ~37% in all"},
    {"states", states, "93% of thread-time working at 1024 procs"},
    {"diffusion", diffusion, "steal-half rapidly adds work sources"},
    {"hierarchical", hierarchical, "future work: steal on-node first"},
    {"motivation", motivation, "99.9% of the work in 1 of 2000 (Sect. 4.1)"},
    {"latency", latency, "small chunks measure small-message efficiency"},
    {"pushing", pushing, "work-first: stealing over pushing [16]"},
    {"bnb", bnb, "could be easily augmented to branch-and-bound"},
    {"faults", faults, "no figure: exact counts, smooth decay"},
    {"service", service, "no figure: a p99 knee, then shedding"},
};

int usage(const std::string& why) {
  std::fprintf(stderr, "bench_paper: %s; flags: --quick --full --only "
               "--workers --out\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Mode mode = Mode::kDefault;
  int workers = 0;
  std::string out, only;
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool val = i + 1 < argc;
    if (a == "--quick") mode = Mode::kQuick;
    else if (a == "--full") mode = Mode::kFull;
    else if (a == "--out" && val) out = argv[++i];
    else if (a == "--only" && val) only = std::string(",") + argv[++i] + ",";
    else if (a == "--workers" && val) workers = std::atoi(argv[++i]);
    else return usage("unknown option " + a);
    if (a == "--workers" && (workers < 1 || workers > hw))
      return usage(str(hw, "--workers wants a thread count in [1,") + "]");
  }
  std::vector<const Experiment*> run;
  for (const Experiment& e : kExperiments)
    if (only.empty() ||
        only.find(std::string(",") + e.id + ",") != std::string::npos)
      run.push_back(&e);
  if (!only.empty() && std::count(only.begin(), only.end(), ',') !=
                           static_cast<long>(run.size()) + 1)
    return usage("--only names an unknown or repeated experiment: " + only);
  if (out.empty())
    out = mode == Mode::kQuick  ? "BENCH_paper.quick.json"
          : mode == Mode::kFull ? "BENCH_paper.full.json"
                                : "BENCH_paper.json";

  benchutil::BenchReporter rep("paper", mode);
  psim::PsimEngine eng(workers);
  std::printf("bench_paper mode=%s workers=%d out=%s\n",
              benchutil::mode_name(mode), eng.workers(), out.c_str());
  bool ok = true;
  for (const Experiment* e : run) {
    std::printf("\n==== %s\n", e->id);
    std::fflush(stdout);
    benchutil::Stopwatch sw;
    Paper p{mode, rep, eng, {}, e->id, e->paper, {}, true};
    e->run(p);
    ok = ok && p.ok;
    render(rep.results(), e->id);
    std::printf("(%s: %.1f s)\n", e->id, sw.seconds());
  }
  // The Figure 5-6 sweep's wall time, the end-to-end figure of host speed.
  if (std::count_if(run.begin(), run.end(), [](const Experiment* e) {
        return e->run == fig5 || e->run == fig6;
      }) == 2) {
    double wall = 0;
    for (const Row& r : rep.results())
      if (r.name.rfind("fig5/", 0) == 0 || r.name.rfind("fig6/", 0) == 0)
        wall += r.value("wall_s");
    rep.result("sweep/fig5+fig6").metric("wall_s", wall);
    std::printf("\nsweep/fig5+fig6: %.1f s of row wall time\n", wall);
  }
  return rep.write_json_file(out) && ok ? 0 : 1;
}
