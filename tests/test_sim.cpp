// Fiber and discrete-event-scheduler tests: determinism, virtual-time
// ordering, livelock guard, cooperative interleaving semantics, the
// fiber-to-fiber handoff checked against a physically switching reference,
// and skip_inline_yields checked against the yields it stands for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/scheduler.hpp"

namespace {

using upcws::sim::Candidate;
using upcws::sim::Fiber;
using upcws::sim::HangDetected;
using upcws::sim::SchedulePolicy;
using upcws::sim::Scheduler;
using upcws::sim::TimeLimitExceeded;

/// Counts live instances: shows which fiber-stack destructors ran.
struct Counted {
  explicit Counted(int& live) : live(live) { ++live; }
  ~Counted() { --live; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  int& live;
};

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield_current();
    trace.push_back(2);
    Fiber::yield_current();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(10);
  f.resume();
  trace.push_back(20);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, NestedFibers) {
  std::string log;
  Fiber inner([&] { log += "I"; });
  Fiber outer([&] {
    log += "a";
    inner.resume();
    log += "b";
  });
  outer.resume();
  EXPECT_EQ(log, "aIb");
}

TEST(Fiber, ResumeFinishedThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, YieldOutsideFiberThrows) {
  EXPECT_THROW(Fiber::yield_current(), std::logic_error);
}

TEST(Fiber, HandoffChainYieldsToOriginalResumer) {
  // a -> b -> c by handoff; c's yield returns to whoever resumed a, here a
  // fiber, not to b or to the test body.
  std::string log;
  Fiber c([&] {
    log += "c";
    Fiber::yield_current();
    log += "C";
  });
  Fiber b([&] {
    log += "b";
    Fiber::switch_to(c);
    log += "B";
  });
  Fiber a([&] {
    log += "a";
    Fiber::switch_to(b);
    log += "A";
  });
  Fiber outer([&] {
    a.resume();
    log += "|";
  });
  outer.resume();
  EXPECT_EQ(log, "abc|");
  EXPECT_TRUE(outer.finished());
  EXPECT_FALSE(a.finished() || b.finished() || c.finished());
  // Each suspended fiber wakes where it left: c in yield, b and a inside
  // switch_to; each finish returns to its own resumer (the test body).
  c.resume();
  b.resume();
  a.resume();
  EXPECT_EQ(log, "abc|CBA");
  EXPECT_TRUE(a.finished() && b.finished() && c.finished());
}

TEST(Fiber, FirstActivationByHandoff) {
  // b's first activation comes from a's switch_to, not from resume(); a
  // later resume() of b continues it normally.
  std::vector<int> trace;
  Fiber b([&] {
    trace.push_back(2);
    Fiber::yield_current();
    trace.push_back(4);
  });
  Fiber a([&] {
    trace.push_back(1);
    Fiber::switch_to(b);
    trace.push_back(5);
  });
  a.resume();
  EXPECT_TRUE(b.started());
  trace.push_back(3);
  b.resume();
  EXPECT_TRUE(b.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, FinishAfterHandoffReturnsToResumer) {
  // b runs to completion after a handed off to it: b's finish returns to
  // a's resumer while a stays suspended inside switch_to.
  std::string log;
  Fiber b([&] { log += "b"; });
  Fiber a([&] {
    log += "a";
    Fiber::switch_to(b);
    log += "A";
  });
  a.resume();
  EXPECT_EQ(log, "ab");
  EXPECT_TRUE(b.finished());
  EXPECT_FALSE(a.finished());
  a.resume();
  EXPECT_EQ(log, "abA");
  EXPECT_TRUE(a.finished());
}

TEST(Fiber, CancelSuspendedInSwitchTo) {
  // cancel() wakes a fiber inside switch_to and unwinds it from there.
  int live = 0;
  bool a_continued = false;
  Fiber b([&] {
    const Counted guard(live);
    for (;;) Fiber::yield_current();
  });
  Fiber a([&] {
    const Counted guard(live);
    Fiber::switch_to(b);
    a_continued = true;
  });
  a.resume();
  EXPECT_EQ(live, 2);
  a.cancel();
  EXPECT_TRUE(a.finished());
  EXPECT_FALSE(a_continued);
  EXPECT_EQ(live, 1);
  b.cancel();
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(live, 0);
}

TEST(Fiber, SwitchToMisuseThrows) {
  Fiber done([] {});
  done.resume();
  EXPECT_THROW(Fiber::switch_to(done), std::logic_error);  // off-fiber
  bool to_self = false;
  bool to_finished = false;
  Fiber f([&] {
    try {
      Fiber::switch_to(f);
    } catch (const std::logic_error&) {
      to_self = true;
    }
    try {
      Fiber::switch_to(done);
    } catch (const std::logic_error&) {
      to_finished = true;
    }
  });
  f.resume();
  EXPECT_TRUE(to_self);
  EXPECT_TRUE(to_finished);
}

TEST(Scheduler, RunsAllTasks) {
  Scheduler s;
  int done = 0;
  for (int i = 0; i < 10; ++i) s.spawn([&] { ++done; });
  s.run();
  EXPECT_EQ(done, 10);
}

TEST(Scheduler, MinClockRunsFirst) {
  // Task 0 charges big time slices; task 1 small ones. After each yield the
  // scheduler must pick the task with the smaller clock.
  Scheduler s;
  std::vector<int> order;
  s.spawn([&] {
    auto& sc = Scheduler::current();
    order.push_back(0);
    sc.advance(1000);
    sc.yield();
    order.push_back(0);
  });
  s.spawn([&] {
    auto& sc = Scheduler::current();
    order.push_back(1);
    sc.advance(10);
    sc.yield();
    order.push_back(1);
    sc.advance(10);
    sc.yield();
    order.push_back(1);
  });
  s.run();
  // t0 runs first (tie at 0, lower id), charges 1000, yields. t1 runs at 0,
  // 10, 20 before t0's 1000 comes up again.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 1, 1, 0}));
}

TEST(Scheduler, MakespanIsMaxClock) {
  Scheduler s;
  s.spawn([] { Scheduler::current().advance(500); });
  s.spawn([] { Scheduler::current().advance(1500); });
  s.run();
  EXPECT_EQ(s.makespan_ns(), 1500u);
}

TEST(Scheduler, DeterministicTieBreakById) {
  for (int rep = 0; rep < 3; ++rep) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
      s.spawn([&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

TEST(Scheduler, TimeLimitGuardsLivelock) {
  Scheduler::Config cfg;
  cfg.vt_limit_ns = 10'000;
  Scheduler s(cfg);
  s.spawn([] {
    auto& sc = Scheduler::current();
    for (;;) {  // never terminates on its own
      sc.advance(100);
      sc.yield();
    }
  });
  EXPECT_THROW(s.run(), TimeLimitExceeded);
}

TEST(Scheduler, PingPongThroughSharedFlag) {
  // Two tasks alternate through a shared variable, each advancing its
  // clock; the virtual-time order forces strict alternation.
  Scheduler s;
  int turn = 0;
  std::vector<int> seq;
  auto body = [&](int id) {
    auto& sc = Scheduler::current();
    for (int i = 0; i < 5; ++i) {
      while (turn != id) {
        sc.advance(10);
        sc.yield();
      }
      seq.push_back(id);
      turn = 1 - id;
      sc.advance(10);
      sc.yield();
    }
  };
  s.spawn([&] { body(0); });
  s.spawn([&] { body(1); });
  s.run();
  ASSERT_EQ(seq.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seq[i], i % 2);
}

TEST(Scheduler, SwitchCountIsTracked) {
  Scheduler s;
  s.spawn([] {
    for (int i = 0; i < 3; ++i) {
      Scheduler::current().advance(1);
      Scheduler::current().yield();
    }
  });
  s.run();
  EXPECT_GE(s.switches(), 4u);  // 3 yields + final completion resume
}

TEST(Scheduler, ManyFibers) {
  Scheduler::Config cfg;
  cfg.stack_bytes = 64 * 1024;
  Scheduler s(cfg);
  const int n = 512;
  std::uint64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    s.spawn([&sum, i] {
      auto& sc = Scheduler::current();
      sc.advance(static_cast<std::uint64_t>(i));
      sc.yield();
      sum += static_cast<std::uint64_t>(i);
    });
  }
  s.run();
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(s.makespan_ns(), static_cast<std::uint64_t>(n - 1));
}

// --- Handoff vs. a physically switching reference -------------------------
//
// The reference is a SchedulePolicy that always picks candidate 0, the
// default min-(vt, id) choice. With a policy installed the scheduler takes
// neither the inline continuation nor the handoff: every step switches back
// through its loop. The default loop must produce the same slices, the same
// switch count and the same guard exceptions.

struct FirstCandidate : SchedulePolicy {
  std::size_t pick(const std::vector<Candidate>&) override { return 0; }
};

struct Slice {
  int task;
  std::uint64_t vt;
  bool operator==(const Slice&) const = default;
};

struct Outcome {
  std::vector<Slice> log;  // one (task, vt) entry per slice start
  std::uint64_t switches = 0;
  std::uint64_t makespan = 0;
};

/// A task of random slices: each charges a few random amounts (often 0, so
/// keys tie) and yields; the task finishes after 1..40 slices. Each slice
/// must start below `bound`, the step() bound in force (if any).
std::function<void()> random_body(std::uint64_t seed, int id,
                                  std::vector<Slice>& log,
                                  const Slice* bound = nullptr) {
  return [seed, id, &log, bound] {
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(id));
    auto& sc = Scheduler::current();
    const int slices = 1 + static_cast<int>(rng() % 40);
    for (int i = 1;; ++i) {
      EXPECT_EQ(sc.current_task(), id);
      if (bound != nullptr) {
        EXPECT_TRUE(sc.now() < bound->vt ||
                    (sc.now() == bound->vt && id < bound->task))
            << "task " << id << " ran at vt " << sc.now()
            << " past the step bound";
      }
      log.push_back({id, sc.now()});
      for (int k = static_cast<int>(rng() % 3); k > 0; --k)
        sc.advance(rng() % 4 == 0 ? 0 : rng() % 40);
      if (i == slices) return;
      sc.yield();
    }
  };
}

Scheduler::Config small_stacks(SchedulePolicy* policy = nullptr) {
  Scheduler::Config cfg;
  cfg.stack_bytes = 64 * 1024;
  cfg.policy = policy;
  return cfg;
}

Outcome run_random(std::uint64_t seed, int ntasks, SchedulePolicy* policy) {
  Outcome o;
  Scheduler s(small_stacks(policy));
  for (int i = 0; i < ntasks; ++i) s.spawn(random_body(seed, i, o.log));
  s.run();
  o.switches = s.switches();
  o.makespan = s.makespan_ns();
  return o;
}

/// The same tasks driven through step() with random bounds, about a
/// quarter of them at or below the head key (the step declines).
Outcome step_random(std::uint64_t seed, int ntasks) {
  Outcome o;
  Slice bound{};
  Scheduler s(small_stacks());
  for (int i = 0; i < ntasks; ++i)
    s.spawn(random_body(seed, i, o.log, &bound));
  std::mt19937_64 rng(seed);
  s.begin_stepping();
  while (const auto head = s.peek()) {
    bound.vt = head->vt - std::min<std::uint64_t>(head->vt, 16) + rng() % 64;
    bound.task = static_cast<int>(rng() % static_cast<std::uint64_t>(ntasks));
    s.step(bound.vt, bound.task);
  }
  s.end_stepping();
  o.switches = s.switches();
  o.makespan = s.makespan_ns();
  return o;
}

void expect_same(const Outcome& got, const Outcome& ref) {
  EXPECT_EQ(got.log, ref.log);
  EXPECT_EQ(got.switches, ref.switches);
  EXPECT_EQ(got.makespan, ref.makespan);
}

TEST(Scheduler, HandoffMatchesPhysicalReference) {
  FirstCandidate ref;
  for (const int ntasks : {1, 2, 5, 16}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE(testing::Message() << ntasks << " tasks, seed " << seed);
      const Outcome want = run_random(seed, ntasks, &ref);
      ASSERT_GT(want.log.size(), 0u);
      expect_same(run_random(seed, ntasks, nullptr), want);
    }
  }
}

// --- skip_inline_yields vs. the yields it stands for -----------------------
//
// A spin unit is advance(step) then yield(). The skipping run asks the
// scheduler to account its coming units in one step at the top of every
// unit, as SimCtx::lock does, and runs the rest; the reference runs every
// unit. Only slices that begin after another task ran are logged, so the
// two logs, switch counts, clocks and guard exceptions must match exactly.

struct SpinOutcome {
  std::vector<Slice> log;  // slice starts where the running task changed
  std::vector<std::uint64_t> clocks;
  std::uint64_t switches = 0;
  std::uint64_t skipped = 0;
  std::string error;  // "limit task/clock" or "hang progress/stuck_at"
};

/// Task `id` of a random spin program: a few segments, each a random local
/// charge then 1..300 spin units of a step from {1, 2, 3, 5} (so keys tie
/// often), skipped with a cap that is sometimes 0 or 1. Task 0 reports
/// progress while its clock is below 300. Each slice must start below
/// `bound`, the step() bound in force (if any).
std::function<void()> spin_body(std::uint64_t seed, int id, bool skip,
                                SpinOutcome& o, int& last,
                                const Slice* bound = nullptr) {
  return [seed, id, skip, &o, &last, bound] {
    static constexpr std::uint64_t kSteps[] = {1, 2, 3, 5};
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(id));
    auto& sc = Scheduler::current();
    const auto start_slice = [&] {
      if (bound != nullptr) {
        EXPECT_TRUE(sc.now() < bound->vt ||
                    (sc.now() == bound->vt && id < bound->task))
            << "task " << id << " ran at vt " << sc.now()
            << " past the step bound";
      }
      if (last != id) o.log.push_back({id, sc.now()});
      last = id;
    };
    start_slice();
    for (int seg = 1 + static_cast<int>(rng() % 6); seg > 0; --seg) {
      if (id == 0 && sc.now() < 300) sc.note_progress();
      sc.advance(rng() % 50);
      const std::uint64_t step = kSteps[rng() % 4];
      const std::uint64_t cap = rng() % 4 == 0 ? rng() % 2 : UINT64_MAX;
      for (std::uint64_t units = 1 + rng() % 300; units > 0; --units) {
        if (skip) {
          const std::uint64_t n =
              sc.skip_inline_yields(step, std::min(cap, units));
          EXPECT_LE(n, std::min(cap, units));
          o.skipped += n;
          units -= n;
          if (units == 0) break;
          if (n > 0) start_slice();  // the last skipped yield's key
        }
        sc.advance(step);
        sc.yield();
        start_slice();
      }
    }
  };
}

/// Run `ntasks` spin programs under `cfg`, through run() or, with
/// `stepping`, through step() with random bounds as in step_random().
SpinOutcome run_spin(std::uint64_t seed, int ntasks, bool skip,
                     Scheduler::Config cfg, bool stepping = false) {
  SpinOutcome o;
  int last = -1;
  Slice bound{};
  Scheduler s(cfg);
  for (int i = 0; i < ntasks; ++i)
    s.spawn(spin_body(seed, i, skip, o, last, stepping ? &bound : nullptr));
  try {
    if (stepping) {
      std::mt19937_64 rng(seed);
      s.begin_stepping();
      while (const auto head = s.peek()) {
        bound.vt = head->vt - std::min<std::uint64_t>(head->vt, 16) +
                   rng() % 64;
        bound.task =
            static_cast<int>(rng() % static_cast<std::uint64_t>(ntasks));
        s.step(bound.vt, bound.task);
      }
      s.end_stepping();
    } else {
      s.run();
    }
  } catch (const TimeLimitExceeded& e) {
    o.error = "limit " + std::to_string(e.task) + "/" +
              std::to_string(e.clock_ns);
  } catch (const HangDetected& h) {
    o.error = "hang " + std::to_string(h.last_progress_ns) + "/" +
              std::to_string(h.stuck_at_ns);
  }
  for (int i = 0; i < ntasks; ++i) o.clocks.push_back(s.now(i));
  o.switches = s.switches();
  return o;
}

void expect_same_spin(const SpinOutcome& got, const SpinOutcome& ref) {
  EXPECT_EQ(got.log, ref.log);
  EXPECT_EQ(got.clocks, ref.clocks);
  EXPECT_EQ(got.switches, ref.switches);
  EXPECT_EQ(got.error, ref.error);
}

/// Skip vs. every unit run, over 100 programs each for 1, 2, 5 and 16
/// tasks under `cfg`; returns the units skipped in all.
std::uint64_t check_skip_matches_yields(const Scheduler::Config& cfg,
                                        bool stepping = false) {
  std::uint64_t skipped = 0;
  for (const int ntasks : {1, 2, 5, 16}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE(testing::Message() << ntasks << " tasks, seed " << seed);
      const SpinOutcome ref = run_spin(seed, ntasks, false, cfg, stepping);
      const SpinOutcome got = run_spin(seed, ntasks, true, cfg, stepping);
      expect_same_spin(got, ref);
      skipped += got.skipped;
    }
  }
  return skipped;
}

TEST(SchedulerSkip, MatchesTheYieldsItStandsFor) {
  EXPECT_GT(check_skip_matches_yields(small_stacks()), 10'000u);
}

TEST(SchedulerSkip, StopsAtTheVtLimit) {
  Scheduler::Config cfg = small_stacks();
  cfg.vt_limit_ns = 1000;
  EXPECT_GT(check_skip_matches_yields(cfg), 0u);
}

TEST(SchedulerSkip, StopsAtTheWatchdog) {
  Scheduler::Config cfg = small_stacks();
  cfg.watchdog_ns = 500;
  EXPECT_GT(check_skip_matches_yields(cfg), 0u);
}

TEST(SchedulerSkip, StopsAtTheSteppingBound) {
  EXPECT_GT(check_skip_matches_yields(small_stacks(), /*stepping=*/true), 0u);
}

/// Task `skipper` of tasks {0, 1} asks to skip up to `max` units of 5 ns
/// from vt 50 while the other task waits at vt 100; returns the units
/// granted. The reference runs the same units and counts those that
/// continued inline, before a slice of the other task ran.
std::uint64_t skip_beside_waiter(int skipper, bool skip, std::uint64_t max,
                                 SchedulePolicy* policy = nullptr) {
  Scheduler s(small_stacks(policy));
  std::uint64_t granted = 0;
  bool waiter_ran = false;
  for (int i = 0; i < 2; ++i) {
    s.spawn([&, i] {
      auto& sc = Scheduler::current();
      if (i != skipper) {
        sc.advance(100);
        sc.yield();
        waiter_ran = true;
        return;
      }
      sc.advance(50);
      sc.yield();  // the waiter reaches vt 100 first
      if (skip) {
        granted = sc.skip_inline_yields(5, max);
        return;
      }
      for (; granted < max; ++granted) {
        sc.advance(5);
        sc.yield();
        if (waiter_ran) return;
      }
    });
  }
  s.run();
  return granted;
}

TEST(SchedulerSkip, TieAtEqualVtGoesByTaskId) {
  // Task 0 yielding at vt 100 is still ahead of task 1's (100, 1) and
  // skips through the tie; task 1 at (100, 1) is behind task 0's (100, 0)
  // and stops one unit short.
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skip" : "yields");
    EXPECT_EQ(skip_beside_waiter(0, skip, 1000), 10u);
    EXPECT_EQ(skip_beside_waiter(1, skip, 1000), 9u);
  }
}

TEST(SchedulerSkip, MaxCapsTheUnits) {
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skip" : "yields");
    EXPECT_EQ(skip_beside_waiter(0, skip, 4), 4u);
    EXPECT_EQ(skip_beside_waiter(0, skip, 0), 0u);
  }
}

TEST(SchedulerSkip, PolicySkipsNothing) {
  // Under a policy every yield is a scheduling decision; the skip declines
  // and the run still matches the reference unit for unit.
  FirstCandidate ref;
  EXPECT_EQ(skip_beside_waiter(0, true, 1000, &ref), 0u);
  EXPECT_EQ(check_skip_matches_yields(small_stacks(&ref)), 0u);
}

TEST(Scheduler, SteppingMatchesRun) {
  for (const int ntasks : {1, 2, 5, 16}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE(testing::Message() << ntasks << " tasks, seed " << seed);
      expect_same(step_random(seed, ntasks), run_random(seed, ntasks, nullptr));
    }
  }
}

/// Three spinners: task i charges 7, 11 or 13 ns per slice; task 0 reports
/// progress while its clock is below 300 ns. They finish only after 10k
/// slices (> 70 us), so a guard that fails to fire ends the run normally.
void spawn_spinners(Scheduler& s, std::vector<Slice>& log, int* live) {
  static constexpr std::uint64_t kCharge[] = {7, 11, 13};
  for (int i = 0; i < 3; ++i) {
    s.spawn([i, &log, live] {
      const Counted guard(*live);
      auto& sc = Scheduler::current();
      for (int n = 0; n < 10'000; ++n) {
        log.push_back({i, sc.now()});
        if (i == 0 && sc.now() < 300) sc.note_progress();
        sc.advance(kCharge[i]);
        sc.yield();
      }
    });
  }
}

TEST(Scheduler, WatchdogOnNextTaskMidChainMatchesReference) {
  FirstCandidate ref;
  Outcome o[2];
  HangDetected hang[2] = {{"", 0, 0, 0}, {"", 0, 0, 0}};
  int yielder = -1;
  int stuck = -1;
  for (int k = 0; k < 2; ++k) {
    int live = 0;
    Scheduler::Config cfg = small_stacks(k == 0 ? nullptr : &ref);
    cfg.watchdog_ns = 500;
    Scheduler s(cfg);
    spawn_spinners(s, o[k].log, &live);
    try {
      s.run();
      ADD_FAILURE() << "watchdog did not fire";
    } catch (const HangDetected& h) {
      hang[k] = h;
    }
    o[k].switches = s.switches();
    o[k].makespan = s.makespan_ns();
    if (k == 0) {
      // The trip is on the next key, not the yielder's: the loop caught it
      // while the handoff chain was still passing steps between fibers.
      yielder = o[0].log.back().task;
      stuck = 0;
      for (int t = 1; t < 3; ++t)
        if (s.now(t) < s.now(stuck)) stuck = t;
      EXPECT_EQ(s.now(stuck), hang[0].stuck_at_ns);
    }
  }
  expect_same(o[0], o[1]);
  EXPECT_NE(stuck, yielder);
  EXPECT_EQ(hang[0].window_ns, hang[1].window_ns);
  EXPECT_EQ(hang[0].last_progress_ns, hang[1].last_progress_ns);
  EXPECT_EQ(hang[0].stuck_at_ns, hang[1].stuck_at_ns);
}

TEST(Scheduler, TimeLimitMidChainMatchesReference) {
  FirstCandidate ref;
  Outcome o[2];
  TimeLimitExceeded tle[2] = {{-1, 0, 0}, {-1, 0, 0}};
  for (int k = 0; k < 2; ++k) {
    int live = 0;
    Scheduler::Config cfg = small_stacks(k == 0 ? nullptr : &ref);
    cfg.vt_limit_ns = 1000;
    Scheduler s(cfg);
    spawn_spinners(s, o[k].log, &live);
    try {
      s.run();
      ADD_FAILURE() << "vt limit did not fire";
    } catch (const TimeLimitExceeded& e) {
      tle[k] = e;
    }
    o[k].switches = s.switches();
    o[k].makespan = s.makespan_ns();
  }
  expect_same(o[0], o[1]);
  EXPECT_EQ(tle[0].task, tle[1].task);
  EXPECT_EQ(tle[0].clock_ns, tle[1].clock_ns);
  EXPECT_EQ(tle[0].limit_ns, tle[1].limit_ns);
}

TEST(Scheduler, DestroyAfterTimeLimitUnwindsFibersInSwitchTo) {
  // The spinners hand steps to each other from the first resume on, so when
  // the vt limit fires every fiber but the thrower is suspended inside
  // switch_to. Destroying the scheduler must still unwind them all.
  int live = 0;
  std::vector<Slice> log;
  {
    Scheduler::Config cfg = small_stacks();
    cfg.vt_limit_ns = 1000;
    Scheduler s(cfg);
    spawn_spinners(s, log, &live);
    EXPECT_THROW(s.run(), TimeLimitExceeded);
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
