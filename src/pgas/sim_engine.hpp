// SimEngine: runs the SPMD body on cooperative fibers with virtual time.
//
// Each rank is one fiber in a sim::Scheduler. charge() advances the rank's
// virtual clock; yield() returns to the scheduler, which always resumes the
// rank with the smallest clock, approximating true parallel interleaving.
// The run's elapsed time is the simulated makespan — this is how speedup at
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
  void charge(std::uint64_t ns) final;
  void yield() final;
  void lock(Lock& l) final;

 protected:
  void note_progress() final { sched_.note_progress(); }

  /// The end of a charge quantum, short of its yield: reset the quantum,
  /// apply a due fault stall, report the tick.
  void end_quantum();

  sim::Scheduler& sched_;
  const int task_;

 private:
  void maybe_stall();
  /// Account, in closed form, the coming spins of lock() on `l` that no
  /// other rank can interrupt (see the definition).
  void skip_spins(const Lock& l);

  std::uint64_t acc_ = 0;
};

}  // namespace upcws::pgas
