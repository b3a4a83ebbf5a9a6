// The run Observer: one object attached to a run (WsConfig::obs) that
// collects every telemetry stream the subsystem produces —
//
//   * per-rank metric registries (counters/gauges/histograms the workers
//     register), sampled on a virtual-time cadence into time-series;
//   * the Figure-1 state log of every rank (mirrors the trace's kState
//     events so idle-time attribution works without a Trace attached);
//   * lock-wait, injected-stall and recovery intervals (from the engine's
//     ObsSink hooks and the workers' recovery brackets);
//   * the causal steal-span log (obs/spans.hpp).
//
// All hooks are pure observation: they are invoked from the observed
// rank's own fiber/thread AFTER all cost accounting, never charge Ctx
// time, and never touch another rank's buffers — so a run with an Observer
// attached is byte-identical to the same run without one.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "pgas/engine.hpp"
#include "stats/stats.hpp"

namespace upcws::obs {

/// A half-open [begin_ns, end_ns) slice of one rank's time.
struct Interval {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One Figure-1 state transition on a rank.
struct StateEvent {
  std::uint64_t t_ns = 0;
  stats::State state = stats::State::kWorking;
};

class Observer final : public pgas::ObsSink {
 public:
  Observer() = default;

  /// Reset all streams for a run of `nranks` ranks, sampling every
  /// `sample_ns` of Ctx time (0 disables sampling; everything else still
  /// records). ws::run_search calls this before the engine starts.
  void start_run(int nranks, std::uint64_t sample_ns);

  int nranks() const { return static_cast<int>(ranks_.size()); }
  std::uint64_t sample_ns() const { return cadence_; }

  // ---- instrumentation surface (engine hooks + workers) ------------------

  Registry& registry(int rank) { return ranks_[rank].reg; }
  const Registry& registry(int rank) const { return ranks_[rank].reg; }

  SpanLog& spans() { return spans_; }
  const SpanLog& spans() const { return spans_; }

  /// Record a state transition at Ctx time `t_ns` (workers call this from
  /// set_state, alongside the trace).
  void state(int rank, std::uint64_t t_ns, stats::State s) {
    ranks_[rank].states.push_back({t_ns, s});
  }

  /// Close rank's timeline at `t_ns`.
  void finish(int rank, std::uint64_t t_ns) { ranks_[rank].end_ns = t_ns; }

  /// Bracket a crash-recovery action (salvage / replay) for attribution.
  void recovery_interval(int rank, std::uint64_t begin_ns,
                         std::uint64_t end_ns) {
    if (end_ns > begin_ns) ranks_[rank].recoveries.push_back({begin_ns, end_ns});
  }

  // ---- pgas::ObsSink -----------------------------------------------------

  void on_tick(int rank, std::uint64_t now_ns) override;
  void on_lock_wait(int rank, std::uint64_t now_ns,
                    std::uint64_t wait_ns) override;
  void on_stall(int rank, std::uint64_t t_ns, std::uint64_t stall_ns) override;
  void on_remote_op(int rank, int owner, OpKind kind,
                    std::uint64_t now_ns) override;
  void on_psim_window(const PsimWindow& w) override;
  void on_psim_fallback(const char* reason) override;

  // ---- post-run readout --------------------------------------------------

  const SampleStore& samples() const { return samples_; }
  const std::vector<StateEvent>& state_log(int rank) const {
    return ranks_[rank].states;
  }
  std::uint64_t end_ns(int rank) const { return ranks_[rank].end_ns; }
  const std::vector<Interval>& lock_waits(int rank) const {
    return ranks_[rank].lock_waits;
  }
  const std::vector<Interval>& stalls(int rank) const {
    return ranks_[rank].stalls;
  }
  const std::vector<Interval>& recoveries(int rank) const {
    return ranks_[rank].recoveries;
  }

  /// Cross-rank counter totals / distribution merges.
  std::map<std::string, std::uint64_t> merged_counters() const;
  std::map<std::string, stats::LogHistogram> merged_histograms() const;

  /// Engine-level (not per-rank) registry: psim window/event counters live
  /// here. Mutated only from the psim barrier completion (single-threaded;
  /// every worker is blocked at the barrier) or post-run.
  Registry& engine_registry() { return engine_reg_; }
  const Registry& engine_registry() const { return engine_reg_; }

  /// Every conservative-PDES window the engine closed, in order (empty for
  /// non-psim runs and serial-lane fallbacks).
  const std::vector<pgas::ObsSink::PsimWindow>& psim_windows() const {
    return psim_windows_;
  }

  /// Serial-lane fallback tallies by reason (see PsimEngine::fallback_reason);
  /// accumulates across runs between start_run calls so a soak attaching one
  /// Observer to many psim attempts sees the full attribution.
  const std::map<std::string, std::uint64_t>& psim_fallbacks() const {
    return psim_fallbacks_;
  }

  /// Stream all sampled points as JSONL (obs::read_jsonl parses it back).
  void write_metrics_jsonl(std::ostream& os) const {
    samples_.write_jsonl(os);
  }

  /// One sparkline per sampled metric (rank-summed; counters are shown as
  /// per-sample deltas so bursts read as spikes, gauges as raw values).
  std::string sparklines(int width = 60) const;

 private:
  static constexpr std::size_t kOpKinds =
      static_cast<std::size_t>(OpKind::kBulkPut) + 1;
  struct PerRank {
    alignas(64) Registry reg;
    // on_remote_op's counters in `reg`, looked up on their first op (a
    // counter exists only once its kind has happened).
    std::uint64_t* remote_ops = nullptr;
    std::array<std::uint64_t*, kOpKinds> remote_by_kind{};
    std::uint64_t next_sample_ns = 0;
    std::uint64_t end_ns = 0;
    std::vector<StateEvent> states;
    std::vector<Interval> lock_waits;
    std::vector<Interval> stalls;
    std::vector<Interval> recoveries;
  };
  std::vector<PerRank> ranks_;
  SampleStore samples_;
  SpanLog spans_;
  std::uint64_t cadence_ = 0;
  Registry engine_reg_;
  std::uint64_t engine_next_sample_ns_ = 0;
  std::vector<pgas::ObsSink::PsimWindow> psim_windows_;
  std::map<std::string, std::uint64_t> psim_fallbacks_;
};

}  // namespace upcws::obs
