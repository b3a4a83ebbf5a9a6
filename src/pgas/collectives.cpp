#include "pgas/collectives.hpp"

#include <algorithm>

namespace upcws::pgas {

Coll::Coll(int nranks) : nranks_(nranks), slots_(nranks), gens_(nranks) {
  for (int r = 0; r < nranks; ++r) {
    Slot& s = slots_[r];
    set_owner(r, s.arrive0, s.arrive1, s.ready, s.down_ack, s.val0, s.val1,
              s.down);
  }
}

void Coll::barrier(Ctx& c) { (void)allreduce(c, 0, Op::kSum); }

std::int64_t Coll::allreduce_sum(Ctx& c, std::int64_t v) {
  return allreduce(c, v, Op::kSum);
}

std::int64_t Coll::allreduce_max(Ctx& c, std::int64_t v) {
  return allreduce(c, v, Op::kMax);
}

void Coll::send_down(Ctx& c, int child, std::uint64_t gen,
                     std::int64_t value) {
  Slot& cs = slots_[child];
  while (c.get(cs.down_ack) + 1 < gen) c.yield();
  c.put(cs.down, value);
  c.put(cs.ready, gen);
}

std::int64_t Coll::allreduce(Ctx& c, std::int64_t v, Op op) {
  const int me = c.rank();
  const int n = c.nranks();
  const std::uint64_t gen = ++gens_[me].g;
  if (n == 1) return v;

  // Binary tree over positions (root fixed at rank 0 for reductions).
  const int pos = pos_of(me, 0, n);
  const int c0 = 2 * pos + 1, c1 = 2 * pos + 2;

  std::int64_t acc = v;
  auto combine = [&](std::int64_t x) {
    acc = op == Op::kSum ? acc + x : std::max(acc, x);
  };

  // Gather: wait for children, combine their partial values.
  if (c0 < n) {
    Slot& s = slots_[me];
    while (c.peek(s.arrive0) < gen) {
      c.charge_poll();
      c.yield();
    }
    combine(c.peek(s.val0));
  }
  if (c1 < n) {
    Slot& s = slots_[me];
    while (c.peek(s.arrive1) < gen) {
      c.charge_poll();
      c.yield();
    }
    combine(c.peek(s.val1));
  }

  if (pos != 0) {
    // Publish my partial into the parent's slot: one remote write of the
    // value plus one of the generation flag.
    const int parent = rank_of((pos - 1) / 2, 0, n);
    Slot& ps = slots_[parent];
    const bool left = (pos - 1) % 2 == 0;
    if (left) {
      c.put(ps.val0, acc);
      c.put(ps.arrive0, gen);
    } else {
      c.put(ps.val1, acc);
      c.put(ps.arrive1, gen);
    }
    // Wait for the total to come back down (spin on my own slot: local).
    Slot& mine = slots_[me];
    while (c.peek(mine.ready) < gen) {
      c.charge_poll();
      c.yield();
    }
    acc = c.peek(mine.down);
    c.put_local(mine.down_ack, gen);
  } else {
    // The root consumes nothing but must keep its ack generation moving so
    // it can be a child of a later (differently rooted) operation.
    c.put_local(slots_[me].down_ack, gen);
  }

  // Release downward: push the total to my children.
  for (int child_pos : {c0, c1}) {
    if (child_pos < n) send_down(c, rank_of(child_pos, 0, n), gen, acc);
  }
  return acc;
}

std::int64_t Coll::broadcast(Ctx& c, std::int64_t v, int root) {
  const int me = c.rank();
  const int n = c.nranks();
  const std::uint64_t gen = ++gens_[me].g;
  if (n == 1) return v;

  const int pos = pos_of(me, root, n);
  std::int64_t out = v;
  if (pos != 0) {
    Slot& mine = slots_[me];
    while (c.peek(mine.ready) < gen) {
      c.charge_poll();
      c.yield();
    }
    out = c.peek(mine.down);
    c.put_local(mine.down_ack, gen);
  } else {
    c.put_local(slots_[me].down_ack, gen);
  }
  for (int child_pos : {2 * pos + 1, 2 * pos + 2}) {
    if (child_pos < n) send_down(c, rank_of(child_pos, root, n), gen, out);
  }
  return out;
}

}  // namespace upcws::pgas
