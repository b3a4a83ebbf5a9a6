#include "ws/algo_push.hpp"

#include <vector>

#include "ws/token_worker.hpp"

namespace upcws::ws {
namespace {

using stats::State;

/// Received transfers count as steals (ThreadStats, obs and trace alike),
/// pushes and drain relays as releases. Work-push has no crash recovery
/// and runs the unhardened ring (1-byte token) whatever the steal timeout
/// says: it has no seq/ack message layer to harden.
class PushWorker final : public TokenWorker {
 public:
  PushWorker(pgas::Ctx& ctx, mp::Comm& comm, StealStack& stack,
             const Problem& prob, const WsConfig& cfg)
      : TokenWorker(ctx, comm, stack, prob, cfg, /*board=*/nullptr,
                    /*crash_mode=*/false, /*drains=*/true,
                    /*hardened=*/false) {}

 private:
  void search() override {
    for (;;) {
      do_work();
      if (drained_) break;
      if (!wait_for_work()) break;
    }
    if (drained_) drain_leave();
  }

  void do_work() {
    int since_poll = 0;
    int since_push = 0;
    while (next_node()) {
      visit();
      ++since_push;
      if (++since_poll >= cfg_.poll_interval) {
        since_poll = 0;
        drain_inbox();
      }
      // A cancelled worker never pushes: unsolicited work would only be
      // bled by the target (or bounce between cancelled ranks).
      if (!cancelled_ && since_push >= cfg_.push_interval &&
          my_.local_size() >= 2 * k_ + 1 && n_ > 1) {
        since_push = 0;
        push_chunk();
      }
    }
  }

  // ---- elastic membership (no-ops unless the plan drains/joins ranks) ----
  //
  // A joiner parks in run() until its join instant; the static token ring
  // keeps it in rotation meanwhile, so a token sent to it buffers in its
  // mailbox until the join — delayed termination, never false termination.
  // Rank 0 (ring leader, TERM broadcaster) never joins; if it drains, it
  // keeps the leader rules in its drain loops.

  /// A uniformly random push/relay target that is currently a member
  /// (joined and not drained), or -1 when no such rank exists. Without
  /// membership this is the classic uniform pick, byte-identical to before.
  int pick_target() {
    std::uniform_int_distribution<int> pick(0, n_ - 2);
    int t = pick(ctx_.rng());
    if (t >= me_) ++t;
    if (!member_mode_) return t;
    for (int i = 0; i < n_; ++i) {
      if (t != me_ && !ctx_.rank_absent(t)) return t;
      t = (t + 1) % n_;
    }
    return -1;
  }

  /// Graceful leave for the pushing policy, which has no recovery board to
  /// salvage from — so the leaver hands its work off on the wire instead:
  ///
  ///  1. Flush: every node still on our stack leaves as one payload to a
  ///     live member (black, +1 outstanding ack).
  ///  2. Drain service: work that keeps arriving (pushers with a lagging
  ///     view) is *relayed* onward — relay first, then remember the debt;
  ///     the original pusher is acked only when our relay target acks us.
  ///     This chain of custody keeps the global outstanding-ack count
  ///     covering every chunk for its whole journey, so no token round can
  ///     go white around work in flight through a leaving rank.
  ///  3. Once nothing is outstanding, nothing owed, and the stack is empty,
  ///     mark ourselves departed on the liveness board (pushers stop
  ///     picking us) and park — still relaying and passing tokens, so
  ///     the static ring never stalls — until TERM.
  void drain_leave() {
    set_state(State::kTermination);
    flush_all();
    for (;;) {
      relay_inbox();
      if (term_seen_) return;
      if (!awaiting_acks() && owed_.empty() && my_.depth() == 0) break;
      if (pass_token()) return;
      ctx_.yield();
    }
    ctx_.leave();
    for (;;) {
      relay_inbox();
      if (term_seen_ || pass_token()) return;
      ctx_.yield();
    }
  }

  /// Step 1 of the drain: ship the whole stack to one live member.
  void flush_all() {
    const std::size_t loc = my_.local_size();
    if (loc > 0) my_.release(loc);
    const std::size_t total = my_.shared_size();
    if (total == 0) return;
    const int target = pick_target();
    if (target < 0) return;  // no member target; salvageless backstop
    const std::size_t begin = my_.reserve(total);
    comm_.send(ctx_, target, kTagWork, my_.slot(begin), total * nb_);
    my_.maybe_compact();
    shipped();
    released(total);
  }

  /// Drain-mode inbox: relay arriving work instead of absorbing it, settle
  /// relay debts as acks come back, buffer tokens, notice TERM.
  void relay_inbox() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagWork, m)) {
      const int target = pick_target();
      if (target < 0) {
        // No member to relay to (cannot happen while rank 0 lives, and
        // rank 0 never drains): absorb-and-ack is the only safe fallback.
        const std::size_t take = m.payload.size() / nb_;
        my_.push_n(reinterpret_cast<const std::byte*>(m.payload.data()),
                   take);
        comm_.send(ctx_, m.src, kTagAck);
        continue;
      }
      comm_.send(ctx_, target, kTagWork, m.payload.data(), m.payload.size());
      shipped();
      owed_.push_back(m.src);
      released(m.payload.size() / nb_);
    }
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) {
      acked();
      if (!owed_.empty()) {
        comm_.send(ctx_, owed_.front(), kTagAck);
        owed_.erase(owed_.begin());
      }
    }
    take_token();
    if (term_arrived()) term_seen_ = true;
  }

  /// Ship the oldest local chunk to a uniformly random other rank,
  /// solicited by nobody — the defining move of the pushing policy.
  void push_chunk() {
    const int target = pick_target();
    if (target < 0) return;  // no live member to push to right now
    my_.release(k_);
    const std::size_t begin = my_.reserve(k_);
    comm_.send(ctx_, target, kTagWork, my_.slot(begin), k_ * nb_);
    my_.maybe_compact();
    shipped();
    released(k_);
  }

  /// Absorb any pushed work that has arrived; ack it. Also buffers the
  /// token and counts acks.
  void drain_inbox() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagWork, m)) {
      const std::size_t take = m.payload.size() / nb_;
      my_.push_n(reinterpret_cast<const std::byte*>(m.payload.data()), take);
      comm_.send(ctx_, m.src, kTagAck);
      stole(m.src, take);
    }
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) acked();
    take_token();
  }

  /// Idle loop: poll for pushed work; run the token protocol meanwhile.
  /// Returns true when work arrived, false on termination.
  bool wait_for_work() {
    set_state(State::kSearching);
    mp::IdleWait idle;
    for (;;) {
      if (drain_check()) return false;
      cancel_check();  // arriving pushes are still absorbed, then bled
      drain_inbox();
      if (my_.local_size() > 0) {
        set_state(State::kWorking);
        return true;
      }
      if (term_arrived() || pass_token()) {
        set_state(State::kTermination);
        return false;
      }
      ctx_.yield();
      comm_.idle_wait(ctx_, idle, cancel_horizon());
    }
  }

  /// TERM arrived while in the drain loops.
  bool term_seen_ = false;
  /// Sources of relayed chunks we have not yet acked (chain of custody).
  std::vector<int> owed_;
};

}  // namespace

stats::ThreadStats run_push_rank(pgas::Ctx& ctx, mp::Comm& comm,
                                 StealStack& stack, const Problem& prob,
                                 const WsConfig& cfg) {
  PushWorker w(ctx, comm, stack, prob, cfg);
  return w.run();
}

}  // namespace upcws::ws
