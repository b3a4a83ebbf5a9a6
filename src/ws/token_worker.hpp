// The token family's termination, written once: Dijkstra's EWD840 token
// ring (paper §3.2) with per-transfer acknowledgements, under both mpi-ws
// (algo_mpi.cpp) and work-push (algo_push.cpp).
//
// A rank that ships work turns black and waits for one ack; only a passive
// rank with no ack outstanding may handle the token, so a white token
// returning to the leader proves that no work is in flight anywhere. The
// leader (rank 0; under crash injection the lowest live rank) starts the
// rounds and broadcasts TERM; every other rank forwards the token down the
// ring, blackening it if it shipped work since it last forwarded.
//
// Hardened rings (mpi-ws with a steal timeout) number their rounds: each
// receiver accepts a round once, the leader regenerates an overdue token
// under a fresh round, and under crash injection a new leader takes over
// when every rank below it died. Unhardened rings keep the 1-byte token.
//
// A worker derives from TokenWorker, reports its transfers through the ack
// ledger (shipped / acked), and calls take_token, term_arrived and
// pass_token from its polling loops in its own order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "mp/comm.hpp"
#include "ws/rank_worker.hpp"

namespace upcws::ws {

class TokenWorker : public RankWorker {
 protected:
  enum Tag : int {
    kTagRequest = 1,  ///< thief -> victim: give me work (mpi-ws)
    kTagWork = 2,     ///< victim or pusher -> receiver: chunk nodes
    kTagNone = 3,     ///< victim -> thief: request denied (mpi-ws)
    kTagToken = 4,    ///< termination token
    kTagTerm = 5,     ///< leader -> all: terminate
    kTagAck = 6,      ///< receiver -> sender: work payload received
  };

  /// Hardened wire format: REQUEST/NONE/ACK carry a u32 sequence number;
  /// WORK carries the u32 followed by the node payload; the token carries its
  /// color byte followed by a u32 round number. The legacy (unhardened)
  /// format — empty control payloads, raw WORK, 1-byte token — is preserved
  /// bit-for-bit when the worker is not hardened.
  static std::uint32_t get_u32(const mp::SmallBuf& p, std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, p.data() + off, sizeof v);
    return v;
  }
  static void put_u32(std::uint8_t* dst, std::uint32_t v) {
    std::memcpy(dst, &v, sizeof v);
  }

  /// `hardened` numbers the token's rounds (see the file comment).
  TokenWorker(pgas::Ctx& ctx, mp::Comm& comm, StealStack& stack,
              const Problem& prob, const WsConfig& cfg, RecoveryBoard* board,
              bool crash_mode, bool drains, bool hardened)
      : RankWorker(ctx, stack, prob, cfg, board, crash_mode, drains),
        comm_(comm),
        hardened_(hardened) {
    // Rank 0 starts holding a token so it can initiate the first round
    // once it goes idle.
    if (me_ == 0) {
      has_token_ = true;
      leading_ = true;
    }
  }

  // ---- the ack ledger ---------------------------------------------------

  /// We shipped a chunk: the current round is invalid, and the token stays
  /// with us until the receiver acks it.
  void shipped() {
    color_ = kBlack;
    ++outstanding_acks_;
  }
  void acked() { --outstanding_acks_; }
  /// We re-activated ourselves some other way (crash recovery).
  void blacken() { color_ = kBlack; }
  bool awaiting_acks() const { return outstanding_acks_ != 0; }

  // ---- the ring ---------------------------------------------------------

  /// Crash mode: adopt the leader rules when every rank below us died, and
  /// start a fresh round that obsoletes anything the dead leader left
  /// circulating on the ring. Call before take_token(): the round filter
  /// reads who leads.
  void take_lead() {
    if (!crash_mode_ || leading_ || leader() != me_) return;
    leading_ = true;
    round_ = max_round_seen_ + 1;
    round_started_ = false;
    has_token_ = true;
    token_color_ = kBlack;  // force one full clean round before deciding
    color_ = kBlack;
  }

  /// Buffer an arrived token.
  void take_token() {
    mp::Message m;
    if (!hardened_) {
      if (comm_.try_recv(ctx_, mp::kAny, kTagToken, m)) {
        has_token_ = true;
        token_color_ = static_cast<Color>(m.payload.at(0));
      }
      return;
    }
    while (comm_.try_recv(ctx_, mp::kAny, kTagToken, m)) {
      const auto c = static_cast<Color>(m.payload.at(0));
      const std::uint32_t rd = get_u32(m.payload, 1);
      // Round filter: the leader accepts only the round it is waiting on
      // (its own regenerations obsolete older rounds); other ranks accept
      // each round once, in increasing order — duplicated or superseded
      // tokens are dropped, so at most one token per round circulates
      // usefully.
      const bool fresh = leading_ ? rd == round_ : rd > max_round_seen_;
      if (!fresh) {
        ++st_.c.dups_suppressed;
        continue;
      }
      has_token_ = true;
      token_color_ = c;
      token_round_ = rd;
      if (!leading_) max_round_seen_ = rd;
    }
  }

  /// TERM arrived.
  bool term_arrived() {
    mp::Message m;
    return comm_.try_recv(ctx_, mp::kAny, kTagTerm, m);
  }

  /// The passive rank's token rules. Only a rank with no ack outstanding
  /// handles the token: the leader declares termination after a clean
  /// round (returning true once TERM is out) or starts the next round;
  /// any other rank forwards it. Under crash injection the leader also
  /// requires that the round raced with no death or recovery (epoch
  /// snapshot) and that no recoverable work remains — a salvage or replay
  /// re-activates work the token never saw.
  bool pass_token() {
    if (has_token_ && outstanding_acks_ == 0) {
      if (leading_) {
        if (round_started_ && token_color_ == kWhite && color_ == kWhite &&
            (!crash_mode_ ||
             (recovery_epoch() == round_epoch_ && recovery_clean()))) {
          broadcast_term();
          return true;
        }
        round_started_ = true;
        color_ = kWhite;
        has_token_ = false;
        send_token(kWhite, hardened_ ? ++round_ : 0);
      } else {
        const Color c = color_ == kBlack ? kBlack : token_color_;
        color_ = kWhite;
        has_token_ = false;
        send_token(c, token_round_);
      }
    } else if (hardened_ && leading_ && !has_token_ && round_started_ &&
               outstanding_acks_ == 0 &&
               ctx_.now_ns() - token_sent_ns_ >= token_rto_ns()) {
      // The round's token is overdue — presumed dropped somewhere on the
      // ring. Regenerate under a fresh round number; any late survivor of
      // the old round is filtered out by every receiver.
      color_ = kWhite;
      send_token(kWhite, ++round_);
      retransmitted(ring_next());
    }
    return false;
  }

  mp::Comm& comm_;
  const bool hardened_;

 private:
  enum Color : std::uint8_t { kWhite = 0, kBlack = 1 };

  /// Token travels "down": 0 -> n-1 -> n-2 -> ... -> 1 -> 0. In crash mode
  /// dead ranks are skipped, so the ring always spans exactly the ranks the
  /// sender sees alive.
  int ring_next() const {
    int nxt = me_ == 0 ? n_ - 1 : me_ - 1;
    if (!crash_mode_) return nxt;
    for (int i = 0; i < n_; ++i) {
      if (!ctx_.rank_dead(nxt)) return nxt;
      nxt = nxt == 0 ? n_ - 1 : nxt - 1;
    }
    return me_;
  }

  /// Failure-aware leadership: the lowest live rank runs the leader rules
  /// (rank 0 until it dies).
  int leader() const {
    if (!crash_mode_) return 0;
    for (int r = 0; r < n_; ++r)
      if (r == me_ || !ctx_.rank_dead(r)) return r;
    return me_;
  }

  void send_token(Color c, std::uint32_t round) {
    if (crash_mode_ && leading_) round_epoch_ = recovery_epoch();
    if (!hardened_) {
      const std::uint8_t b = c;
      comm_.send(ctx_, ring_next(), kTagToken, &b, 1);
      return;
    }
    std::uint8_t buf[5];
    buf[0] = c;
    put_u32(buf + 1, round);
    const int to = ring_next();
    for (int i = copies(); i > 0; --i)
      comm_.send(ctx_, to, kTagToken, buf, sizeof buf);
    if (leading_) token_sent_ns_ = ctx_.now_ns();
  }

  /// A full ring traversal plus slack; after this long without the round's
  /// token returning, the leader assumes it was dropped.
  std::uint64_t token_rto_ns() const {
    return cfg_.steal_timeout_ns * static_cast<std::uint64_t>(2 * n_);
  }

  /// Copies of each control message (a hardened token hop, TERM). Under
  /// message drops a round sent one copy per hop crosses n ranks with
  /// probability (1-p)^n, so at scale the leader's regenerations rarely
  /// get through; with copies a hop is lost only if every copy is.
  /// Receivers drop the extras (the round filter; TERM ends the rank).
  /// Delivery stays probabilistic; the watchdog is the backstop.
  int copies() const {
    pgas::FaultInjector* fi = ctx_.faults();
    return fi != nullptr && fi->plan().drop_prob > 0.0 ? 16 : 1;
  }

  void broadcast_term() {
    for (int rep = copies(); rep > 0; --rep)
      for (int r = 0; r < n_; ++r) {
        if (r == me_ || (crash_mode_ && ctx_.rank_dead(r))) continue;
        comm_.send(ctx_, r, kTagTerm);
      }
  }

  /// Snapshot of (deaths I have detected, recoveries completed). The
  /// leader records it when a round's token leaves and refuses to declare
  /// termination if it changed — a death or recovery mid-round may have
  /// re-activated work the token never saw.
  std::uint64_t recovery_epoch() const {
    std::uint64_t dead = 0;
    for (int r = 0; r < n_; ++r)
      if (r != me_ && ctx_.rank_dead(r)) ++dead;
    return (dead << 32) | board_->recoveries();
  }

  bool leading_ = false;  ///< currently running the leader rules
  Color color_ = kWhite;
  Color token_color_ = kWhite;
  bool has_token_ = false;
  bool round_started_ = false;
  int outstanding_acks_ = 0;
  // hardened rounds
  std::uint32_t round_ = 0;           ///< leader: current round
  std::uint32_t max_round_seen_ = 0;  ///< others: newest round accepted
  std::uint32_t token_round_ = 0;     ///< round carried by the held token
  std::uint64_t token_sent_ns_ = 0;   ///< leader: when the round's token left
  std::uint64_t round_epoch_ = 0;     ///< leader: recovery_epoch at round start
};

}  // namespace upcws::ws
