// Cooperative fibers: a small assembly stack switch on x86-64, POSIX
// ucontext (with sanitizer annotations) under sanitizers and elsewhere.
//
// The discrete-event engine (src/sim/scheduler.hpp) runs every simulated UPC
// thread as a fiber on one OS thread. Fibers make the simulator able to run
// ordinary imperative algorithm code (the same sources the real-thread
// engine runs) instead of hand-written state machines: a fiber simply calls
// yield() at interaction points and the scheduler decides, by virtual time,
// who runs next.
//
// Because all fibers share one OS thread, their interleaving is cooperative
// and deterministic — no data races, fully reproducible runs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

// First-activation entry point of the fast (assembly) switch backend;
// declared here so it can be befriended below.
extern "C" void upcws_fiber_entry(void* fiber);

namespace upcws::sim {

/// A single cooperative fiber. Not thread-safe: a Fiber and its owning
/// scheduler must live on one OS thread.
class Fiber {
 public:
  using Fn = std::function<void()>;

  /// Create a fiber that will run `fn` when first resumed.
  /// `stack_bytes` is the fiber's private call stack; the work-stealing
  /// algorithms use explicit DFS stacks so the default is ample.
  explicit Fiber(Fn fn, std::size_t stack_bytes = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller (scheduler) into the fiber. Returns when the
  /// fiber, or a fiber it handed control to with switch_to, yields or
  /// finishes. Must not be called on a finished fiber.
  void resume();

  /// Switch from inside the currently running fiber back to its resumer.
  /// Must be called from fiber context.
  static void yield_current();

  /// Switch from inside the currently running fiber straight to `next`
  /// (unstarted, or suspended in yield_current/switch_to), handing it the
  /// caller's resumer: a later yield or finish in `next` returns to the
  /// context that resumed the caller. Returns when the caller is resumed
  /// or switched to again. Like yield_current, a no-op while a cancel
  /// unwinds the caller.
  static void switch_to(Fiber& next);

  /// Unwind a suspended fiber: resume it one last time with a cancellation
  /// pending, so its next (historical) yield point rethrows as stack
  /// unwinding, destructors on the fiber stack run, and the fiber finishes.
  /// Yields hit *during* that unwinding return immediately instead of
  /// suspending (throwing again would terminate inside a destructor).
  /// No-op on unstarted or finished fibers. Caller must be the resumer.
  void cancel();

  /// True once the fiber's function has returned.
  bool finished() const { return finished_; }

  /// True once the fiber has been resumed at least once (its stack may
  /// hold live objects until it finishes).
  bool started() const { return started_; }

  /// Mark the current fiber's yields as cancellation-unsafe (e.g. a lock
  /// release reached from a noexcept destructor): a cancel() that lands
  /// while shielded stays pending and throws at the next unshielded yield
  /// instead of terminating inside the destructor. No-op off-fiber.
  static void shield_current(bool on);

  /// RAII form of shield_current for the duration of a scope.
  class CancelShield {
   public:
    CancelShield() { shield_current(true); }
    ~CancelShield() { shield_current(false); }
    CancelShield(const CancelShield&) = delete;
    CancelShield& operator=(const CancelShield&) = delete;
  };

 private:
  struct Impl;
  struct Cancelled {};  // unwinding token thrown by cancel(); never escapes
  static void trampoline(unsigned hi, unsigned lo);
  friend void ::upcws_fiber_entry(void* fiber);

  /// Body of the first activation (both backends): run fn_, mark
  /// finished, switch back to the resumer for good.
  void entry();

  /// Make this the running fiber; the first activation builds its frame.
  /// `uncaught` is std::uncaught_exceptions() at the switch.
  void enter(int uncaught);
  /// Bookkeeping before the running fiber suspends; false while a cancel
  /// unwinds it (destructors must not suspend).
  bool may_suspend(int uncaught);
  /// Back on this fiber's stack after a suspend: deliver a pending cancel
  /// if throwing is safe here.
  void woke();

  std::unique_ptr<Impl> impl_;
  Fn fn_;
  bool finished_ = false;
  bool started_ = false;
  bool cancel_ = false;     // set by cancel(); checked in woke()
  bool unwinding_ = false;  // Cancelled is in flight on this fiber's stack
  bool shield_ = false;     // yields are cancellation-unsafe (see above)
  // Exception-unwind attribution: eh_base_ snapshots the thread's
  // uncaught-exception count when this fiber is switched in (parked
  // exceptions of OTHER suspended fibers stay in the thread-wide count);
  // unwind_depth_ records, at each suspend, how many exceptions are in
  // flight on THIS fiber's own stack. A cancel() that lands while the
  // fiber is suspended mid-unwind must not throw Cancelled on wake —
  // a second in-flight exception terminates — so it stays pending.
  int eh_base_ = 0;
  int unwind_depth_ = 0;
};

}  // namespace upcws::sim
