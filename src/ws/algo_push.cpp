#include "ws/algo_push.hpp"

#include <vector>

#include "ws/rank_worker.hpp"

namespace upcws::ws {
namespace {

using stats::State;

enum Tag : int {
  kTagWork = 2,   ///< pusher -> target: payload of chunk nodes
  kTagToken = 4,  ///< termination token (1-byte color payload)
  kTagTerm = 5,   ///< rank 0 -> all: terminate
  kTagAck = 6,    ///< target -> pusher: work payload received
};

enum Color : std::uint8_t { kWhite = 0, kBlack = 1 };

/// Received transfers count as steals (ThreadStats, obs and trace alike),
/// pushes and drain relays as releases. Work-push has no crash recovery.
class PushWorker final : public RankWorker {
 public:
  PushWorker(pgas::Ctx& ctx, mp::Comm& comm, StealStack& stack,
             const Problem& prob, const WsConfig& cfg)
      : RankWorker(ctx, stack, prob, cfg, /*board=*/nullptr,
                   /*crash_mode=*/false, /*drains=*/true),
        comm_(comm) {
    if (me_ == 0) {
      has_token_ = true;
      token_color_ = kWhite;
    }
  }

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
  // Rank 0 (ring leader, TERM broadcaster) never joins or drains.

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
  ///     picking us) and park — still relaying and forwarding tokens, so
  ///     the static ring never stalls — until rank 0 broadcasts TERM.
  void drain_leave() {
    set_state(State::kTermination);
    flush_all();
    for (;;) {
      relay_inbox();
      if (term_seen_) return;
      if (outstanding_acks_ == 0 && owed_.empty() && my_.depth() == 0) break;
      maybe_forward_token();
      ctx_.yield();
    }
    ctx_.leave();
    for (;;) {
      relay_inbox();
      if (term_seen_) return;
      maybe_forward_token();
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
    color_ = kBlack;
    ++outstanding_acks_;
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
      color_ = kBlack;
      ++outstanding_acks_;
      owed_.push_back(m.src);
      released(m.payload.size() / nb_);
    }
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) {
      --outstanding_acks_;
      if (!owed_.empty()) {
        comm_.send(ctx_, owed_.front(), kTagAck);
        owed_.erase(owed_.begin());
      }
    }
    if (comm_.try_recv(ctx_, mp::kAny, kTagToken, m)) {
      has_token_ = true;
      token_color_ = static_cast<Color>(m.payload.at(0));
    }
    if (comm_.try_recv(ctx_, mp::kAny, kTagTerm, m)) term_seen_ = true;
  }

  /// Non-leader EWD840 forwarding rule, used by the drain loops (a leaver
  /// is never rank 0).
  void maybe_forward_token() {
    if (!has_token_ || outstanding_acks_ != 0) return;
    const std::uint8_t c = (color_ == kBlack) ? kBlack : token_color_;
    color_ = kWhite;
    has_token_ = false;
    comm_.send(ctx_, ring_next(), kTagToken, &c, 1);
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
    color_ = kBlack;
    ++outstanding_acks_;
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
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) --outstanding_acks_;
    if (comm_.try_recv(ctx_, mp::kAny, kTagToken, m)) {
      has_token_ = true;
      token_color_ = static_cast<Color>(m.payload.at(0));
    }
  }

  int ring_next() const { return me_ == 0 ? n_ - 1 : me_ - 1; }

  /// Idle loop: poll for pushed work; run the token protocol meanwhile.
  /// Returns true when work arrived, false on termination.
  bool wait_for_work() {
    set_state(State::kSearching);
    for (;;) {
      if (drain_check()) return false;
      cancel_check();  // arriving pushes are still absorbed, then bled
      drain_inbox();
      if (my_.local_size() > 0) {
        set_state(State::kWorking);
        return true;
      }
      mp::Message m;
      if (comm_.try_recv(ctx_, mp::kAny, kTagTerm, m)) {
        set_state(State::kTermination);
        return false;
      }
      if (has_token_ && outstanding_acks_ == 0) {
        if (me_ == 0) {
          if (round_started_ && token_color_ == kWhite && color_ == kWhite) {
            for (int r = 1; r < n_; ++r) comm_.send(ctx_, r, kTagTerm);
            set_state(State::kTermination);
            return false;
          }
          round_started_ = true;
          color_ = kWhite;
          has_token_ = false;
          const std::uint8_t c = kWhite;
          comm_.send(ctx_, ring_next(), kTagToken, &c, 1);
        } else {
          const std::uint8_t c = (color_ == kBlack) ? kBlack : token_color_;
          color_ = kWhite;
          has_token_ = false;
          comm_.send(ctx_, ring_next(), kTagToken, &c, 1);
        }
      }
      ctx_.yield();
    }
  }

  mp::Comm& comm_;

  Color color_ = kWhite;
  Color token_color_ = kWhite;
  bool has_token_ = false;
  bool round_started_ = false;
  int outstanding_acks_ = 0;

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
