// One-call entry point: run a load-balanced parallel tree search with a
// chosen algorithm on a chosen engine, and get back the paper's metrics.
#pragma once

#include <vector>

#include "pgas/engine.hpp"
#include "stats/stats.hpp"
#include "ws/config.hpp"
#include "ws/problem.hpp"

namespace upcws::ws {

struct SearchResult {
  stats::RunStats agg;                          ///< aggregated metrics
  std::vector<stats::ThreadStats> per_thread;   ///< per-rank detail
  pgas::RunResult run;                          ///< engine-level timing

  std::uint64_t total_nodes() const { return agg.total_nodes; }
};

/// Run `prob` under `cfg` on `engine` with `rcfg.nranks` ranks.
///
/// `cfg.termination == Termination::kToken` selects the message-passing
/// (mpi-ws) implementation; anything else selects the UPC family.
///
/// `seq_nodes_per_sec` is the sequential baseline used for speedup and
/// efficiency; pass 0 to use the cost model's ideal single-thread rate
/// (1e9 / work_ns_per_node), which is the right baseline for SimEngine runs.
SearchResult run_search(pgas::Engine& engine, const pgas::RunConfig& rcfg,
                        const Problem& prob, const WsConfig& cfg,
                        double seq_nodes_per_sec = 0.0);

/// Convenience: run one of the paper's Figure-3 configurations.
SearchResult run_algo(pgas::Engine& engine, const pgas::RunConfig& rcfg,
                      Algo algo, const Problem& prob, int chunk_size = 20,
                      double seq_nodes_per_sec = 0.0);

/// Baseline with NO load balancing: the root's children are dealt
/// round-robin to the ranks, each rank searches its share to completion,
/// and the run ends when the slowest rank finishes. This is the static
/// partitioning the paper's introduction rules out ("the state space ...
/// can not be statically partitioned across processors"); bench_paper's
/// motivation experiment quantifies how badly it loses as imbalance grows.
SearchResult run_static_partition(pgas::Engine& engine,
                                  const pgas::RunConfig& rcfg,
                                  const Problem& prob,
                                  double seq_nodes_per_sec = 0.0);

}  // namespace upcws::ws
