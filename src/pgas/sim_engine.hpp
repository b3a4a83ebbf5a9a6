// SimEngine: runs the SPMD body on cooperative fibers with virtual time.
//
// Each rank is one fiber in a sim::Scheduler. charge() advances the rank's
// virtual clock; yield() returns to the scheduler, which resumes the rank
// with the smallest clock, approximating true parallel interleaving. When
// every cross-rank access is mediated, a rank runs ahead of the smallest
// clock by the lookahead, where no other rank can tell (lead_ns). The
// run's elapsed time is the simulated makespan — this is how speedup at
// 2..512 "processors" is measured on a single physical core (DESIGN.md §1).
#pragma once

#include "pgas/engine.hpp"
#include "sim/scheduler.hpp"

namespace upcws::pgas {

class SimEngine final : public Engine {
 public:
  RunResult run(const RunConfig& cfg,
                const std::function<void(Ctx&)>& body) override;
  const char* name() const override { return "sim"; }

  /// The run-ahead lead run() gives its scheduler for `cfg`: the lookahead
  /// with one rank per block, or 0 (the min-vt order) under a schedule
  /// policy, a fault plan, a watchdog, or unmediated cross-rank access.
  /// See docs/simulator.md, "Run-ahead on SimEngine".
  static std::uint64_t lead_ns(const RunConfig& cfg);

  /// The scheduler set-up run() uses for `cfg`; psim's shards start from
  /// it too.
  static sim::Scheduler::Config scheduler_config(const RunConfig& cfg);
};

/// The rank context of a fiber task in a sim::Scheduler: its clock is the
/// task's virtual clock. SimEngine gives every rank one; PsimEngine's
/// PsimCtx (src/psim) derives from it, so both engines share these bodies.
class SimCtx : public Ctx {
 public:
  /// `task` is the rank's task id in `sched` (the rank itself on SimEngine).
  SimCtx(sim::Scheduler& sched, int task, int rank, const RunConfig& cfg,
         const RunFaults& faults)
      : Ctx(rank, cfg, faults), sched_(sched), task_(task) {}

  std::uint64_t now_ns() final { return sched_.now(task_); }
  // The current slice began when the accumulated quantum was last reset:
  // everything charged since then belongs to the slice keyed at now - acc.
  std::uint64_t slice_now_ns() final { return sched_.now(task_) - acc_; }
  void charge(std::uint64_t ns) final { charge_for(ns, -1); }
  /// A charge that ends the quantum yields before op() runs, so the op
  /// begins the next slice; when `owner` is another rank that yield is an
  /// op yield on the owner's task (on SimEngine a rank is its task).
  void mediated_op(int owner, std::uint64_t cost_ns, OpRef op) override {
    charge_for(cost_ns, owner != rank() ? owner : -1);
    op();
  }
  void yield() final;
  void lock(Lock& l) final;
  void skip_idle_passes(std::uint64_t pass_ns, std::uint64_t until_ns,
                        std::uint64_t lead_ns) final;

 protected:
  void note_progress() override { sched_.note_progress(); }

  /// The end of a charge quantum, short of its yield: reset the quantum,
  /// apply a due fault stall, report the tick.
  void end_quantum();

  sim::Scheduler& sched_;
  const int task_;

 private:
  /// charge(), whose quantum yield passes `op_owner` to the scheduler.
  void charge_for(std::uint64_t ns, int op_owner);
  void maybe_stall();
  /// Account, in closed form, the coming spins of lock() on `l` that no
  /// other rank can interrupt (see the definition).
  void skip_spins(const Lock& l);

  std::uint64_t acc_ = 0;
};

}  // namespace upcws::pgas
