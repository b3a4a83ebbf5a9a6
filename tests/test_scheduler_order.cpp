// Differential property test for the scheduler's binary-heap ready queue.
//
// The scheduler's pop order — including the (vt, task-id) tie-break — is
// part of its deterministic output (switch counts and traces depend on it).
// This test drives the ReadyQueue and a std::priority_queue reference model
// through identical randomized sequences of push, pop and the fused
// push_pop the scheduler's handoff uses, and requires identical observable
// behavior at every step: top/pop/push_pop results and size.
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/ready_queue.hpp"

namespace upcws::sim {
namespace {

struct RefEntry {
  std::uint64_t vt;
  int task;
};

struct RefGreater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    return a.vt != b.vt ? a.vt > b.vt : a.task > b.task;
  }
};

/// Reference model: the scheduler's original std::priority_queue, with
/// push_pop spelled as a push followed by a pop.
class RefQueue {
 public:
  bool empty() const { return pq_.empty(); }
  std::size_t size() const { return pq_.size(); }
  void push(std::uint64_t vt, int task) { pq_.push({vt, task}); }
  RefEntry top() const { return pq_.top(); }

  RefEntry pop() {
    const RefEntry e = pq_.top();
    pq_.pop();
    return e;
  }

  RefEntry push_pop(std::uint64_t vt, int task) {
    push(vt, task);
    return pop();
  }

 private:
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefGreater> pq_;
};

/// The queue's entry equals the reference model's.
::testing::AssertionResult same(const ReadyQueue::Entry& a,
                                const RefEntry& b) {
  if (a.vt == b.vt && a.task == b.task) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "(vt " << a.vt << ", task " << a.task << ") vs reference (vt "
         << b.vt << ", task " << b.task << ")";
}

/// One randomized run: `ops` operations over `ntasks` task ids, each task
/// queued at most once, vt drawn from [0, vt_range]; every observable of
/// ReadyQueue is compared against the reference model.
void differential_run(std::uint64_t seed, int ntasks, int ops,
                      std::uint64_t vt_range) {
  std::mt19937_64 rng(seed);
  ReadyQueue rq;
  RefQueue ref;
  std::vector<bool> queued(static_cast<std::size_t>(ntasks), false);

  for (int step = 0; step < ops; ++step) {
    ASSERT_EQ(rq.empty(), ref.empty()) << "step " << step;
    ASSERT_EQ(rq.size(), ref.size()) << "step " << step;
    if (!rq.empty()) {
      ASSERT_TRUE(same(rq.top(), ref.top())) << "step " << step;
    }

    std::vector<int> free;
    for (int t = 0; t < ntasks; ++t)
      if (!queued[static_cast<std::size_t>(t)]) free.push_back(t);
    const int op = static_cast<int>(rng() % 100);
    if (!free.empty() && (op < 70 || ref.empty())) {
      // Push or push_pop a currently-unqueued task. push_pop may hand the
      // new entry straight back (it is the minimum) or pop an older one.
      const int task = free[rng() % free.size()];
      const std::uint64_t vt = rng() % (vt_range + 1);
      if (op < 40) {
        rq.push(vt, task);
        ref.push(vt, task);
        queued[static_cast<std::size_t>(task)] = true;
      } else {
        const ReadyQueue::Entry a = rq.push_pop(vt, task);
        const RefEntry b = ref.push_pop(vt, task);
        ASSERT_TRUE(same(a, b)) << "push_pop diverged at step " << step;
        queued[static_cast<std::size_t>(task)] = true;
        queued[static_cast<std::size_t>(a.task)] = false;
      }
    } else if (!ref.empty()) {
      const ReadyQueue::Entry a = rq.pop();
      const RefEntry b = ref.pop();
      ASSERT_TRUE(same(a, b)) << "pop order diverged at step " << step;
      queued[static_cast<std::size_t>(a.task)] = false;
    }
  }

  // Drain: the remaining pop order must match exactly.
  while (!ref.empty()) {
    ASSERT_FALSE(rq.empty());
    ASSERT_TRUE(same(rq.pop(), ref.pop())) << "drain";
  }
  ASSERT_TRUE(rq.empty());
  ASSERT_EQ(rq.size(), 0u);
}

TEST(SchedulerOrder, DifferentialRandomOps) {
  // ~10k ops per seed, wide vt range: general-position behavior.
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    differential_run(seed, /*ntasks=*/64, /*ops=*/10'000,
                     /*vt_range=*/1'000'000);
}

TEST(SchedulerOrder, DifferentialTieHeavy) {
  // vt drawn from {0..3}: nearly every comparison is decided by the task-id
  // tie-break, the part of the order the engine's determinism depends on.
  for (std::uint64_t seed = 100; seed <= 104; ++seed)
    differential_run(seed, /*ntasks=*/32, /*ops=*/10'000, /*vt_range=*/3);
}

TEST(SchedulerOrder, DifferentialSmallAndDegenerate) {
  // 0-, 1- and 2-task queues: push_pop into an empty queue, the single
  // root, and one sift step.
  differential_run(6, /*ntasks=*/0, /*ops=*/100, /*vt_range=*/10);
  differential_run(7, /*ntasks=*/1, /*ops=*/2'000, /*vt_range=*/10);
  differential_run(8, /*ntasks=*/2, /*ops=*/2'000, /*vt_range=*/2);

  ReadyQueue rq;
  const ReadyQueue::Entry own = rq.push_pop(5, 3);  // empty: straight back
  EXPECT_EQ(own.vt, 5u);
  EXPECT_EQ(own.task, 3);
  EXPECT_TRUE(rq.empty());
  rq.push(5, 1);
  EXPECT_EQ(rq.push_pop(5, 0).task, 0);  // tie on vt, smaller id wins
  EXPECT_EQ(rq.push_pop(5, 2).task, 1);  // larger id: the root pops
  EXPECT_EQ(rq.size(), 1u);
  EXPECT_EQ(rq.top().task, 2);
}

/// The engine's access pattern over `ntasks` tasks: the running task
/// yields with a non-decreasing key and the minimum runs next (push_pop,
/// the handoff); when it finishes, the run loop pops the next one.
void step_pattern(std::uint64_t seed, int ntasks) {
  std::mt19937_64 rng(seed);
  ReadyQueue rq;
  RefQueue ref;
  auto spawn_all = [&](std::uint64_t vt) {
    for (int t = 0; t < ntasks; ++t) {
      rq.push(vt, t);
      ref.push(vt, t);
    }
  };
  spawn_all(0);
  ReadyQueue::Entry cur = rq.pop();
  ASSERT_TRUE(same(cur, ref.pop())) << "first pop";
  for (int step = 0; step < 10'000; ++step) {
    ASSERT_EQ(rq.size(), ref.size()) << "step " << step;
    if (rng() % 50 == 0) {
      // The task finished; when none is left, a fresh run spawns everyone
      // at the drained clock.
      if (rq.empty()) spawn_all(cur.vt);
      cur = rq.pop();
      ASSERT_TRUE(same(cur, ref.pop())) << "pop diverged at step " << step;
      continue;
    }
    // Charge, then yield; a zero charge (a tie with the old key) is common.
    const std::uint64_t nvt = cur.vt + (rng() % 3 == 0 ? 0 : rng() % 1000);
    const ReadyQueue::Entry a = rq.push_pop(nvt, cur.task);
    ASSERT_TRUE(same(a, ref.push_pop(nvt, cur.task)))
        << "push_pop diverged at step " << step;
    cur = a;
  }
}

TEST(SchedulerOrder, SchedulerStepPattern) {
  for (const int ntasks : {2, 16, 128}) {
    SCOPED_TRACE(ntasks);
    step_pattern(42, ntasks);
  }
}

}  // namespace
}  // namespace upcws::sim
