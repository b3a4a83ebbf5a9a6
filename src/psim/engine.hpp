// PsimEngine: parallel conservative PDES execution of the simulator.
//
// The sequential SimEngine runs every simulated UPC thread as a fiber on
// one OS thread and pops them in (virtual time, rank) order. PsimEngine
// shards the simulated ranks into contiguous blocks, one block per OS
// worker thread, and advances all shards concurrently in conservative
// virtual-time windows [M, M + L): M is the global minimum pending key,
// and the lookahead L is derived from the cost model — the cheapest
// cross-shard reference minus the charge quantum. Within a window each
// shard executes its own ready slices in local (vt, rank) order;
// cross-shard PGAS operations ship to the owning rank's worker as events
// keyed at the sender's post-charge slice instant and are interleaved
// with that shard's local slices by the same global key (the sender parks
// across the charge and is woken the instant its op is applied, resuming
// at that same key). Because every
// cross-shard interaction costs at least L + quantum of virtual time,
// nothing generated inside a window can affect that same window — so the
// merged execution is, slice for slice, the sequential engine's schedule,
// and the run's output (clocks, RNG draws, traces, switch counts) is
// byte-identical to SimEngine for any seed and config.
//
// Parallel execution requires the run to promise that all cross-rank
// memory access is mediated (RunConfig::remote_ops_mediated) and a
// positive lookahead; otherwise — and for crash/membership plans and
// schedule-policy runs, whose recovery paths touch remote memory raw —
// the engine transparently delegates to SimEngine (same results, one
// thread). See docs/simulator.md for the full protocol and proof sketch.
#pragma once

#include "pgas/engine.hpp"

namespace upcws::psim {

class PsimEngine final : public pgas::Engine {
 public:
  /// `workers` OS threads drive the shards; 0 = hardware concurrency.
  /// Effective parallelism is min(workers, nranks).
  explicit PsimEngine(int workers = 0);

  pgas::RunResult run(const pgas::RunConfig& cfg,
                      const std::function<void(pgas::Ctx&)>& body) override;
  const char* name() const override { return "psim"; }

  int workers() const { return workers_; }

  /// Would this config run on the parallel path (true) or fall back to the
  /// sequential engine (false)? Exposed for tests and diagnostics.
  static bool parallel_eligible(const pgas::RunConfig& cfg, int workers);

  /// Why this config would take the sequential lane, as a static string
  /// ("too-few-lanes", "unmediated", "schedule-policy", "crash-plan",
  /// "membership-plan", "zero-lookahead"), or nullptr when the parallel
  /// path is eligible. run() reports it to RunConfig::obs via
  /// ObsSink::on_psim_fallback before delegating.
  static const char* fallback_reason(const pgas::RunConfig& cfg, int workers);

  /// Conservative lookahead for `nranks` ranks sharded over `workers`
  /// contiguous blocks: the cheapest possible cross-shard reference under
  /// `net` minus the charge quantum (every modifier — jitter, latency
  /// spikes, partition delay — only adds cost, so the base is a sound
  /// lower bound). 0 means no safe window exists (parallel-ineligible).
  static std::uint64_t lookahead_ns(const pgas::NetModel& net, int nranks,
                                    int workers);

  /// Diagnostics from the last run() on the parallel path (all zero after
  /// a sequential-lane run): conservative windows executed and cross-shard
  /// events exchanged, plus a host-time ledger summed over the shard
  /// workers. Each worker's window splits into busy time (running slices
  /// and applying events) and the time it waited for a wake; the rest of
  /// its run is barrier wait, except the single-threaded barrier
  /// completion, which is counted once. The four totals never exceed
  /// workers x wall time of the run.
  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t wake_wait_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t completion_ns = 0;
  };
  const Stats& last_stats() const { return stats_; }

 private:
  int workers_;
  Stats stats_;
};

}  // namespace upcws::psim
