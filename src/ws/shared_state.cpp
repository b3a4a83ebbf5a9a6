#include "ws/shared_state.hpp"

namespace upcws::ws {

SharedState::SharedState(int nranks_, std::size_t node_bytes_)
    : nranks(nranks_),
      node_bytes(node_bytes_),
      stacks(nranks_),
      slots(nranks_) {
  for (int r = 0; r < nranks; ++r) {
    stacks[r].init(node_bytes, r);
    RankSlots& s = slots[r];
    pgas::set_owner(r, s.steal_request, s.resp_amount, s.term_flag, s.park,
                    s.distress);
    s.outbox.resize(nranks);
  }
  // The barrier words and their lock stay at rank 0, Shared's and Lock's
  // default affinity.
}

}  // namespace upcws::ws
