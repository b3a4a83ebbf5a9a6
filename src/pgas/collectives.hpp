// Tree-based collective operations over the PGAS engines — the UPC
// runtime's collective layer (upc_barrier / upc_all_reduce / broadcast
// analogues), with every hop paying the cost model.
//
// Built entirely from shared words and spinning (like everything else in
// the UPC programs the paper describes), so the same code runs under the
// simulator and under real threads. Collectives are reusable: each call
// advances a per-object generation, so a Coll object supports any number of
// successive operations by the full rank set.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pgas/engine.hpp"

namespace upcws::pgas {

/// A set of collective operations over a fixed number of ranks.
/// Construct once (outside the SPMD body); every rank then calls the same
/// sequence of member functions with its Ctx. Mixing different operations
/// in the same program order on different ranks is undefined (as in MPI).
class Coll {
 public:
  explicit Coll(int nranks);

  int nranks() const { return nranks_; }

  /// Tree barrier: gather up a binomial tree rooted at rank 0, release
  /// down the same tree. O(log n) remote hops on the critical path.
  void barrier(Ctx& c);

  /// All-reduce sum: reduce up the tree, broadcast the total down.
  /// Every rank returns the sum of all contributions.
  std::int64_t allreduce_sum(Ctx& c, std::int64_t v);

  /// All-reduce max.
  std::int64_t allreduce_max(Ctx& c, std::int64_t v);

  /// Broadcast `v` from `root` to all ranks; every rank returns it.
  std::int64_t broadcast(Ctx& c, std::int64_t v, int root);

 private:
  enum class Op { kSum, kMax };
  std::int64_t allreduce(Ctx& c, std::int64_t v, Op op);

  // Tree helpers over ranks relabelled so that `root` maps to position 0.
  static int pos_of(int rank, int root, int n) {
    return (rank - root + n) % n;
  }
  static int rank_of(int pos, int root, int n) { return (root + pos) % n; }

  /// Rank r's slot; every word lives at r.
  struct alignas(64) Slot {
    /// Generation counters: a child publishes into its parent by bumping
    /// arrive[child_slot]; the parent publishes downward by bumping ready.
    Shared<std::uint64_t> arrive0;
    Shared<std::uint64_t> arrive1;
    Shared<std::uint64_t> ready;
    /// Consumption ack for the down channel: the slot's owner bumps this
    /// after reading `down` for a generation. Because consecutive
    /// operations may use different tree shapes (broadcast roots vary), a
    /// parent must not overwrite `down`/`ready` for generation g until the
    /// owner acknowledged g-1.
    Shared<std::uint64_t> down_ack;
    Shared<std::int64_t> val0;
    Shared<std::int64_t> val1;
    Shared<std::int64_t> down;
  };

  /// Wait until `child`'s down channel is free for `gen` (each check reads
  /// the child's ack remotely), then deliver value + generation flag (two
  /// remote writes, as one-sided puts).
  void send_down(Ctx& c, int child, std::uint64_t gen, std::int64_t value);

  int nranks_;
  std::vector<Slot> slots_;
  /// Per-rank local generation counters (indexed by rank; each rank only
  /// touches its own — no sharing).
  struct alignas(64) Gen {
    std::uint64_t g = 0;
  };
  std::vector<Gen> gens_;
};

}  // namespace upcws::pgas
