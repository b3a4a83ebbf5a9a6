// Deterministic discrete-event scheduler with a per-task virtual clock.
//
// Each task (one simulated UPC thread) is a fiber with its own virtual time.
// The scheduler always resumes the runnable task with the smallest virtual
// time (ties broken by task id), so the simulated interleaving approximates
// a real parallel execution: a task that performs a long remote operation
// falls behind in virtual time and the others overtake it. With a lead
// (Config::lead_ns) a task may run ahead of the minimum where no other
// task can observe the difference.
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
  TimeLimitExceeded(int task, std::uint64_t clock_ns, std::uint64_t limit_ns,
                    std::uint64_t slice_ns = 0);
  int task;                 ///< task (rank) whose clock crossed the limit
  std::uint64_t clock_ns;   ///< that task's virtual clock at the abort
  std::uint64_t limit_ns;   ///< the configured limit
  /// Key of the slice that crossed (the virtual time it was resumed at):
  /// run() throws at the first crossing slice in (key, task) order.
  std::uint64_t slice_ns;
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

  /// The report's first line, newline included: how long no task made
  /// progress, the window, and the two clocks.
  static std::string headline(std::uint64_t window_ns,
                              std::uint64_t last_progress_ns,
                              std::uint64_t stuck_at_ns);
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
    /// Run-ahead lead L of run(): a yield whose key stays below the ready
    /// head's plus L continues inline, unless it is an op yield or another
    /// task holds a pending op on the yielder (see yield(int)). Sound only
    /// when every cross-task access is an op charged at least L plus a
    /// quantum and no watchdog is armed; the engine decides
    /// (pgas::SimEngine::lead_ns). 0 keeps the min-vt order. Inert under a
    /// policy; stepping mode requires 0.
    std::uint64_t lead_ns = 0;
  };

  Scheduler() : Scheduler(Config{}) {}
  explicit Scheduler(Config cfg);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a task; all tasks start at virtual time 0. Must be called
  /// before run(). Returns the task id (0-based, dense).
  int spawn(std::function<void()> body);

  /// Run all tasks to completion: step() until it declines. Throws
  /// TimeLimitExceeded on livelock, the held crossing (see held()) once no
  /// key below it is left.
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
  ///
  /// With a lead (Config::lead_ns) the caller also continues inline while
  /// its key stays below the ready head's plus the lead and below the
  /// bound, counted as one switch with its own key as the slice key. An
  /// op yield never runs ahead: `op_owner` >= 0 names the task whose memory
  /// the op that begins the caller's next slice touches, and until the
  /// caller resumes that owner does not run ahead either.
  void yield(int op_owner = -1);

  /// Account in one step for up to `max` consecutive interaction points of
  /// the current task: each advances its clock by `step_ns`, then yields.
  /// Adds exactly their clock and one switch each (the step that begins
  /// the slice after each yield) and returns how many it accounted.
  ///
  /// Let M be the least key another task can still run at: the ready-queue
  /// head and, with a lead, the earliest parked task's key. With
  /// `lead_ns` 0 it accounts yields that would each continue inline, the
  /// task's (vt, id) key staying below M; with a lead, yields whose clock
  /// stays below M.vt + lead_ns, so the slices they begin may run ahead of
  /// other tasks' earlier ones. Either way a yield is accounted only under
  /// the guards yield() applies: a running scheduler with no policy, the
  /// key below the stepping bound, and neither the vt limit nor the
  /// watchdog firing. The vt limit is held one step early, so the caller's
  /// first real yield after the skip cannot cross it from a slice keyed
  /// past another task's, and the watchdog window is measured from
  /// min(progress, M), the least progress clock another task could still
  /// leave behind. The caller guarantees that nothing else those steps
  /// would do can differ, and with a lead that nothing another task does
  /// below M.vt + lead_ns can reach them (SimCtx::lock's constant-cost
  /// spins, mp::Comm::idle_wait; docs/simulator.md).
  std::uint64_t skip_inline_yields(std::uint64_t step_ns, std::uint64_t max,
                                   std::uint64_t lead_ns);

  /// Largest virtual clock over all tasks after run() — the simulated
  /// makespan of the parallel execution.
  std::uint64_t makespan_ns() const;

  /// Number of scheduler context switches performed (diagnostic).
  std::uint64_t switches() const { return switches_; }

  /// Decision trail of the last run (empty unless Config::policy was set).
  /// One entry per scheduling step that offered >= 2 candidates.
  const std::vector<Decision>& decisions() const { return decisions_; }

  /// A key above every key a task can hold: no bound, no parked task.
  static constexpr ReadyQueue::Entry kNoKey{UINT64_MAX, 0};

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
  /// lexicographically below (bound_vt, bound_task) and below the held
  /// crossing, if any; otherwise do nothing. Returns true when a task was
  /// resumed. A slice that crosses the vt limit is held, not thrown (see
  /// held()); the watchdog throws HangDetected before the resume.
  bool step(std::uint64_t bound_vt, int bound_task);

  /// The earliest time-limit crossing found so far in (slice key, task)
  /// order, or null. Once a crossing is held its task stays out of the
  /// ready queue and only keys below its (slice key, task) run: a slice
  /// that ran ahead of it, or a parked task's continuation, may still
  /// cross at a lower key and replace it. run() throws it.
  const TimeLimitExceeded* held() const { return held_ ? &*held_ : nullptr; }

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

  /// Is `task` parked? Its clock is then its resume key.
  bool is_parked(int task) const { return parked_[task]; }

  /// Least (clock, task) resume key of a parked task, or kNoKey.
  ReadyQueue::Entry earliest_parked();

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
  /// gave control back (the last of any handoff chain). Hold it if it
  /// crossed the vt limit, else re-queue it unless it finished or parked.
  void requeue_current();

  /// yield()'s handoff with a lead: run ahead of `next`, the ready head,
  /// when the rule allows, else hand it the step.
  void yield_ahead(ReadyQueue::Entry self, ReadyQueue::Entry next,
                   int op_owner);

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
  /// Key (virtual time) of the slice the current task runs.
  std::uint64_t slice_vt_ = 0;
  std::uint64_t progress_ns_ = 0;
  std::vector<Decision> decisions_;
  /// The bound of the current step: step()'s argument or the held
  /// crossing's key, whichever is lower. It also gates the handoff in
  /// yield(), so a fiber cannot overrun the window horizon. Under run() it
  /// is kNoKey until a crossing is held.
  ReadyQueue::Entry bound_ = kNoKey;
  /// Pending op yields per owner task (touched only with a lead).
  std::vector<int> pending_ops_;
  std::optional<TimeLimitExceeded> held_;
  std::vector<bool> parked_;
  /// The resume key of every park, earliest on top. A key whose task has
  /// since been woken is stale, and earliest_parked() drops it when it
  /// reaches the top.
  ReadyQueue parked_keys_;
};

}  // namespace upcws::sim
