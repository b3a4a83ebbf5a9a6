// A shared word with affinity: UPC's `shared` scalar.
//
// In the paper's UPC program every shared variable lives at one thread
// (§3.1, §3.3): a steal stack, its lock and its work_avail word at their
// owner, the barrier words at thread 0. Shared<T> carries that owner in
// the word itself, so an access cannot name the wrong one. Ranks reach a
// word through pgas::Ctx: get/put/add/cas are mediated by the owner's
// affinity (charged, and shipped to the owner's worker on psim), and the
// owner's own accessors (peek, poll, put_local, ...) throw unless the
// calling rank is the owner. The one raw path is unmediated(), for code
// outside a run's ordered steps: set-up before the ranks start,
// diagnostics read after they stop, and the crash and membership recovery
// paths, which psim runs on its serial lane.
#pragma once

#include <atomic>

namespace upcws::pgas {

class Ctx;

template <typename T>
class Shared {
 public:
  explicit Shared(T init = T{}) : v_(init) {}
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  /// The rank the word lives at: rank 0 until set_owner() moves it.
  int owner() const { return owner_; }
  /// Give the word its affinity; run set-up only, before any rank runs.
  void set_owner(int rank) { owner_ = rank; }

  /// The raw word, bypassing the owner and the cost model.
  std::atomic<T>& unmediated() { return v_; }
  const std::atomic<T>& unmediated() const { return v_; }

 private:
  friend class Ctx;
  std::atomic<T> v_;
  int owner_ = 0;
};

/// Place every one of `words` at `rank` (run set-up).
template <typename... Words>
void set_owner(int rank, Words&... words) {
  (words.set_owner(rank), ...);
}

}  // namespace upcws::pgas
