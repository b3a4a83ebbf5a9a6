// Ready queue for the discrete-event scheduler: an implicit binary
// min-heap over (virtual time, task id).
//
// The scheduler's step is "the running task yields with a larger key and
// the minimum runs next", so besides push and pop the heap offers a fused
// push_pop: when the pushed key is not the minimum it takes the root's
// place and sifts down once — one pass instead of a pop's sift-down plus a
// push's sift-up. Each task has at most one entry, so the array never
// outgrows the task count. A binary heap rather than the pairing heap it
// replaced: with unequal charges the pairing heap's pop + push cost 3-4x a
// push_pop (docs/simulator.md, "Unit costs").
//
// Ordering is EXACTLY the scheduler's historical tie-break: smaller vt
// first, ties broken by smaller task id. This total order is pinned by the
// differential test in tests/test_scheduler_order.cpp, which drives this
// queue and a std::priority_queue reference model side by side.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace upcws::sim {

class ReadyQueue {
 public:
  struct Entry {
    std::uint64_t vt;
    int task;

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.vt != b.vt ? a.vt < b.vt : a.task < b.task;
    }
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The minimum entry. Queue must be non-empty.
  Entry top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Insert an entry for `task` at time `vt`. In the ready queue a task
  /// has at most one entry; the scheduler's parked keys may hold stale
  /// ones beside it (Scheduler::earliest_parked).
  void push(std::uint64_t vt, int task) {
    heap_.push_back({vt, task});
    sift_up(heap_.size() - 1, heap_.back());
  }

  /// Remove and return the minimum entry. Queue must be non-empty.
  Entry pop() {
    const Entry min = top();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return min;
  }

  /// push(vt, task) then pop(), fused: returns the new entry itself, with
  /// the heap untouched, when it is the minimum; otherwise returns the
  /// old minimum and sifts the new entry down from the root.
  Entry push_pop(std::uint64_t vt, int task) {
    const Entry e{vt, task};
    if (heap_.empty() || e < heap_.front()) return e;
    const Entry min = heap_.front();
    sift_down(e);
    return min;
  }

 private:
  /// Fill the root slot with `e` and restore the heap order below it.
  /// Bottom-up: walk the hole to a leaf along the smaller children (one
  /// compare per level), then let `e` climb back. The entries sifted here
  /// (a yielder's new key, the last leaf) are usually among the largest,
  /// so the climb is short.
  void sift_down(Entry e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
      heap_[i] = heap_[c];
      i = c;
    }
    sift_up(i, e);
  }

  /// Place `e` at hole `i` or above it, moving larger parents down.
  void sift_up(std::size_t i, Entry e) {
    while (i > 0) {
      const std::size_t p = (i - 1) / 2;
      if (!(e < heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

}  // namespace upcws::sim
