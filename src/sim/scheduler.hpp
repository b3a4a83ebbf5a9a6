// Deterministic discrete-event scheduler with a per-task virtual clock.
//
// Each task (one simulated UPC thread) is a fiber with its own virtual time.
// The scheduler always resumes the runnable task with the smallest virtual
// time (ties broken by task id), so the simulated interleaving approximates
// a real parallel execution: a task that performs a long remote operation
// falls behind in virtual time and the others overtake it.
//
// Tasks interact with the clock through:
//   advance(ns)  — charge local time (no context switch; cheap)
//   yield()      — interaction point: let tasks with earlier clocks run
//
// Algorithms model blocking as poll loops (advance + yield until a shared
// flag changes) — which is exactly how the paper's UPC threads block, by
// spinning on shared variables.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/ready_queue.hpp"
#include "sim/schedule_policy.hpp"

namespace upcws::sim {

/// Thrown by run() when any task's virtual clock exceeds the configured
/// limit — the simulator's last-resort guard. Carries the offending task,
/// its clock, and the limit so the failure is diagnosable.
class TimeLimitExceeded : public std::runtime_error {
 public:
  TimeLimitExceeded(int task, std::uint64_t clock_ns, std::uint64_t limit_ns);
  int task;                 ///< task (rank) whose clock crossed the limit
  std::uint64_t clock_ns;   ///< that task's virtual clock at the abort
  std::uint64_t limit_ns;   ///< the configured limit
};

/// Thrown by run() when the progress watchdog trips: no task reported
/// progress (Scheduler::note_progress) for Config::watchdog_ns of virtual
/// time. what() is a structured multi-line hang report — per-task clocks
/// and run state, plus whatever Config::hang_report contributed (the ws
/// driver adds held locks, outstanding steal requests, and recent trace
/// events).
class HangDetected : public std::runtime_error {
 public:
  HangDetected(std::string report, std::uint64_t window_ns,
               std::uint64_t last_progress_ns, std::uint64_t stuck_at_ns)
      : std::runtime_error(std::move(report)),
        window_ns(window_ns),
        last_progress_ns(last_progress_ns),
        stuck_at_ns(stuck_at_ns) {}
  std::uint64_t window_ns;         ///< configured watchdog window
  std::uint64_t last_progress_ns;  ///< virtual time of the last progress
  std::uint64_t stuck_at_ns;       ///< virtual time when the watchdog fired
};

class Scheduler {
 public:
  struct Config {
    /// Abort the simulation if any virtual clock passes this (ns).
    std::uint64_t vt_limit_ns = UINT64_MAX;
    /// Fiber call-stack size.
    std::size_t stack_bytes = 256 * 1024;
    /// Progress watchdog: abort with HangDetected when no task calls
    /// note_progress() for this much virtual time. 0 disables.
    std::uint64_t watchdog_ns = 0;
    /// Optional extra text appended to the watchdog's hang report.
    std::function<std::string()> hang_report{};
    /// Scheduling-decision hook (not owned; must outlive run()). When null
    /// the scheduler runs its original min-vt loop, byte-identical to
    /// pre-policy builds. When set, every scheduling step is routed through
    /// the policy and multi-candidate decisions are recorded in decisions().
    SchedulePolicy* policy = nullptr;
    /// Fairness bound for policy runs: only tasks whose virtual clock is
    /// within this many ns of the global minimum are offered as candidates.
    /// 0 = no bound (every runnable task is a candidate). Without a bound an
    /// adversarial policy can starve the min-vt task behind a busy-wait
    /// spinner forever (the spinner stays runnable at ever-growing vt).
    std::uint64_t policy_window_ns = 0;
  };

  Scheduler() : Scheduler(Config{}) {}
  explicit Scheduler(Config cfg);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a task; all tasks start at virtual time 0. Must be called
  /// before run(). Returns the task id (0-based, dense).
  int spawn(std::function<void()> body);

  /// Run all tasks to completion. Throws TimeLimitExceeded on livelock.
  void run();

  // --- callable from inside tasks ---

  /// The scheduler driving the currently running fiber on this OS thread.
  static Scheduler& current();

  /// Id of the task currently executing (valid inside run()).
  int current_task() const { return current_; }

  /// Virtual time of the current task (ns).
  std::uint64_t now() const { return clocks_[current_]; }

  /// Virtual time of an arbitrary task.
  std::uint64_t now(int task) const { return clocks_[task]; }

  /// Charge `ns` of virtual time to the current task without yielding.
  void advance(std::uint64_t ns) { clocks_[current_] += ns; }

  /// Report forward progress (a unit of real work, e.g. one tree-node
  /// visit) at the current task's clock; arms the progress watchdog.
  void note_progress() { progress_ns_ = clocks_[current_]; }

  /// Interaction point: end this scheduling step. The task resumes when it
  /// once again holds the minimum virtual time. Under the default min-vt
  /// order the step goes straight to its successor — inline when that is
  /// the caller, else one fiber-to-fiber switch — unless a guard, the
  /// stepping bound, a policy or teardown needs the scheduler loop.
  void yield();

  /// Account in one step for up to `max` consecutive interaction points of
  /// the current task that would each continue inline: its clock advances
  /// by `step_ns`, then it yields and is still the minimum. Adds exactly
  /// their clock and switches, under exactly the guards yield() applies —
  /// a running scheduler with no policy, the task's (vt, id) key staying
  /// below both the ready-queue head and the stepping bound, and neither
  /// the vt limit nor the watchdog firing — and returns how many it
  /// accounted. The caller guarantees that nothing else those steps would
  /// do can differ (SimCtx::lock's constant-cost spins, docs/simulator.md).
  std::uint64_t skip_inline_yields(std::uint64_t step_ns, std::uint64_t max);

  /// Largest virtual clock over all tasks after run() — the simulated
  /// makespan of the parallel execution.
  std::uint64_t makespan_ns() const;

  /// Number of scheduler context switches performed (diagnostic).
  std::uint64_t switches() const { return switches_; }

  /// Decision trail of the last run (empty unless Config::policy was set).
  /// One entry per scheduling step that offered >= 2 candidates.
  const std::vector<Decision>& decisions() const { return decisions_; }

  // --- windowed stepping (the parallel PDES engine's shard driver) --------
  //
  // Instead of run()-to-completion, a driver may bracket the scheduler with
  // begin_stepping()/end_stepping() on its own OS thread and advance it one
  // resume at a time with step(), bounded by a (vt, task) key — the
  // conservative-window / next-external-event horizon. Tasks may leave the
  // ready queue with park_current() (awaiting a cross-shard reply) and are
  // re-armed with wake(). Config::policy must be null in this mode.

  /// Enter stepping mode on the calling thread (installs this scheduler as
  /// Scheduler::current() and marks it running).
  void begin_stepping();
  /// Leave stepping mode. Must be called on the same thread.
  void end_stepping();

  /// Resume the ready task with the smallest (vt, id) key if that key is
  /// lexicographically below (bound_vt, bound_task); otherwise do nothing.
  /// Returns true when a task was resumed. Throws TimeLimitExceeded exactly
  /// as run() would.
  bool step(std::uint64_t bound_vt, int bound_task);

  /// Smallest ready (vt, task) key, or nullopt when the queue is empty.
  std::optional<ReadyQueue::Entry> peek() const;

  /// Called from inside the running fiber: suspend without re-queueing; the
  /// task returns to the ready set only via wake(). The park stands in for
  /// the quantum yield the sequential engine takes at a mediating charge,
  /// so the eventual wake-resume is a normally counted scheduling step —
  /// switch totals stay identical to the sequential engine.
  void park_current();

  /// Re-arm a parked task at virtual time `vt_ns` (its clock at the park).
  void wake(int task, std::uint64_t vt_ns);

  /// Number of currently parked tasks.
  std::size_t parked() const { return parked_count_; }

  /// Virtual time of the last note_progress() (watchdog bookkeeping; the
  /// parallel driver aggregates this across shards).
  std::uint64_t progress_ns() const { return progress_ns_; }

  /// Has `task` run to completion?
  bool finished(int task) const { return fibers_[task]->finished(); }

  /// Cancel-unwind every started-but-unfinished fiber. Public so the
  /// parallel driver can tear a shard down on the worker thread that ran
  /// its fibers; also performed by ~Scheduler for anything left over.
  void cancel_unfinished() { unwind_all(); }

 private:
  [[noreturn]] void throw_hang(std::uint64_t stuck_at_ns) const;

  /// True when the least-advanced ready task, at `vt`, is past the
  /// progress window: the watchdog must fire before it runs.
  bool hang_due(std::uint64_t vt) const {
    return cfg_.watchdog_ns > 0 && vt > progress_ns_ &&
           vt - progress_ns_ > cfg_.watchdog_ns;
  }

  /// Back in scheduler context after resume(): current_ is the task that
  /// gave control back (the last of any handoff chain). Enforce the vt
  /// limit on it and re-queue it unless it finished or parked.
  void requeue_current();

  /// Policy-driven variant of the run loop (Config::policy != nullptr).
  void run_policy();

  /// Cancel-unwind every started-but-unfinished fiber (abnormal teardown)
  /// so objects on fiber stacks are destroyed, not leaked.
  void unwind_all();

  Config cfg_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::uint64_t> clocks_;
  ReadyQueue rq_;
  int current_ = -1;
  bool running_ = false;
  std::uint64_t switches_ = 0;
  std::uint64_t progress_ns_ = 0;
  std::vector<Decision> decisions_;
  // Stepping-mode state (see begin_stepping); the bound also gates the
  // handoff in yield() so a fiber cannot overrun the window horizon. Inert
  // under run(): no key reaches (UINT64_MAX, 0).
  ReadyQueue::Entry bound_{UINT64_MAX, 0};
  std::vector<bool> parked_;
  std::size_t parked_count_ = 0;
};

}  // namespace upcws::sim
