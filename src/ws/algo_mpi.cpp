#include "ws/algo_mpi.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "ws/rank_worker.hpp"

namespace upcws::ws {
namespace {

using stats::State;

enum Tag : int {
  kTagRequest = 1,  ///< thief -> victim: give me work
  kTagWork = 2,     ///< victim -> thief: payload of chunk nodes
  kTagNone = 3,     ///< victim -> thief: request denied
  kTagToken = 4,    ///< termination token (1-byte color payload)
  kTagTerm = 5,     ///< rank 0 -> all: terminate
  kTagAck = 6,      ///< thief -> victim: work payload received
};

enum Color : std::uint8_t { kWhite = 0, kBlack = 1 };

/// Hardened wire format: REQUEST/NONE/ACK carry a u32 sequence number;
/// WORK carries the u32 followed by the node payload; the token carries its
/// color byte followed by a u32 round number. The legacy (unhardened)
/// format — empty control payloads, raw WORK, 1-byte token — is preserved
/// bit-for-bit when WsConfig::steal_timeout_ns == 0.
std::uint32_t get_u32(const mp::SmallBuf& p, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, p.data() + off, sizeof v);
  return v;
}

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  std::memcpy(dst, &v, sizeof v);
}

class MpiWorker final : public RankWorker {
 public:
  /// Planned drains ride the crash-recovery machinery (lineage records,
  /// token regeneration, leader takeover), so they are honoured only in
  /// crash mode: an unhardened run ignores its drain plan rather than
  /// losing work.
  MpiWorker(pgas::Ctx& ctx, mp::Comm& comm, StealStack& stack,
            const Problem& prob, const WsConfig& cfg, RecoveryBoard* board,
            bool crash_mode)
      : RankWorker(ctx, stack, prob, cfg, board, crash_mode,
                   /*drains=*/crash_mode),
        comm_(comm),
        hardened_(cfg.hardened()) {
    if (hardened_) cache_.resize(n_);
    // Rank 0 starts holding a token so it can initiate the first probe
    // round once it goes idle. Under crash injection leadership is dynamic
    // (lowest live rank); leading_ tracks whether we currently run the
    // leader rules.
    if (me_ == 0) {
      has_token_ = true;
      token_color_ = kWhite;
      leading_ = true;
    }
  }

 private:
  /// The token ring deliberately does NOT skip unjoined ranks: a token
  /// sent to a joiner still parked in run() buffers in its mailbox until
  /// the join — delayed termination, never false termination under a
  /// lagging membership view.
  void search() override {
    for (;;) {
      do_work();
      if (drained_) break;
      if (!find_work()) break;
    }
    // A graceful leave is a clean fail-stop at a safe point (no popped
    // node in flight, no steal request outstanding): everything still on
    // our stack — and any unacked grant — rides the crash-recovery
    // machinery of the hardened protocol.
    if (drained_) ctx_.leave();
  }

  void do_work() {
    int since_poll = 0;
    while (next_node()) {
      visit();
      if (++since_poll >= cfg_.poll_interval) {
        since_poll = 0;
        poll_while_working();
      }
    }
  }

  /// Working-state servicing: answer steal requests from the bottom of the
  /// stack, collect acks, and buffer the token (active ranks hold it).
  void poll_while_working() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagRequest, m)) {
      if (hardened_) {
        // A cancelled victim load-sheds: the chunk would only be bled by
        // the thief anyway.
        handle_request(m, /*can_grant=*/!cancelled_, /*trace_denial=*/true);
        continue;
      }
      if (!cancelled_ && my_.local_size() >= 2 * k_) {
        // Carve the oldest k local nodes and ship them.
        my_.release(k_);
        const std::size_t begin = my_.reserve(k_);
        comm_.send(ctx_, m.src, kTagWork, my_.slot(begin), k_ * nb_);
        my_.maybe_compact();
        color_ = kBlack;  // we re-activated someone: current round invalid
        ++outstanding_acks_;
        granted(m.src, k_, thief_span(m.src));
      } else {
        comm_.send(ctx_, m.src, kTagNone);
        denied(m.src, thief_span(m.src));
      }
    }
    if (hardened_) drain_stray_replies();
    drain_acks_and_token();
  }

  void drain_acks_and_token() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) {
      if (!hardened_) {
        --outstanding_acks_;
        continue;
      }
      // Count each grant's ack exactly once; re-acks of nudged duplicates
      // and acks for superseded grants are suppressed.
      GrantCache& gc = cache_[m.src];
      if (gc.seq != 0 && gc.seq == get_u32(m.payload, 0) && !gc.acked) {
        gc.acked = true;
        --outstanding_acks_;
      } else {
        ++st_.c.dups_suppressed;
      }
    }
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

  /// Idle-state message handling: deny requests, process acks, and run the
  /// token-ring termination rules. Returns true when TERMINATE arrives (or
  /// rank 0 decides termination).
  bool idle_comm() {
    if (crash_mode_ && !leading_ && leader() == me_) {
      // Leader takeover: every rank below us died. Adopt the leader rules
      // and start a fresh round that obsoletes anything the dead leader
      // left circulating on the ring.
      leading_ = true;
      round_ = max_round_seen_ + 1;
      round_started_ = false;
      has_token_ = true;
      token_color_ = kBlack;  // force one full clean round before deciding
      color_ = kBlack;
    }
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagRequest, m)) {
      if (hardened_) {
        handle_request(m, /*can_grant=*/false, /*trace_denial=*/false);
        continue;
      }
      comm_.send(ctx_, m.src, kTagNone);
      denied(m.src, thief_span(m.src), /*row=*/false);
    }
    if (hardened_ && wait_victim_ < 0) drain_stray_replies();
    drain_acks_and_token();
    if (hardened_) nudge_unacked();
    if (comm_.try_recv(ctx_, mp::kAny, kTagTerm, m)) return true;

    // Token rules (EWD840 with the ack hardening): only a passive rank with
    // no unacknowledged transfers may handle the token. Under crash
    // injection the leader additionally requires that the finished round
    // raced with no death or recovery (epoch snapshot) and that no
    // recoverable work remains — a salvage or replay re-activates work the
    // token never saw.
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
        const std::uint8_t c = (color_ == kBlack) ? kBlack : token_color_;
        color_ = kWhite;
        has_token_ = false;
        send_token(static_cast<Color>(c), token_round_);
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

  /// Failure-aware leadership: the lowest live rank runs the EWD840 leader
  /// rules (rank 0 until it dies).
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
    comm_.send(ctx_, ring_next(), kTagToken, buf, sizeof buf);
    if (leading_) token_sent_ns_ = ctx_.now_ns();
  }

  /// A full ring traversal plus slack; after this long without the round's
  /// token returning, rank 0 assumes it was dropped.
  std::uint64_t token_rto_ns() const {
    return cfg_.steal_timeout_ns * static_cast<std::uint64_t>(2 * n_);
  }

  void broadcast_term() {
    // Under message drops the TERM broadcast is repeated: each rank must
    // miss every copy to hang, which the repetition makes vanishingly
    // unlikely (documented as probabilistic delivery; the watchdog is the
    // backstop). Without drops one copy suffices.
    pgas::FaultInjector* fi = ctx_.faults();
    const int reps = (fi != nullptr && fi->plan().drop_prob > 0.0) ? 16 : 1;
    for (int rep = 0; rep < reps; ++rep)
      for (int r = 0; r < n_; ++r) {
        if (r == me_ || (crash_mode_ && ctx_.rank_dead(r))) continue;
        comm_.send(ctx_, r, kTagTerm);
      }
  }

  // ---- hardened victim side: per-thief reply cache -----------------------

  /// Last reply sent to each thief. A duplicate REQUEST (same seq — the
  /// thief timed out, or the wire duplicated it) is answered by resending
  /// the cached reply, never by granting twice; a newer seq implicitly acks
  /// the previous grant (the thief only moves on after absorbing it).
  struct GrantCache {
    std::uint32_t seq = 0;  ///< 0 = no history (thief seqs start at 1)
    bool acked = true;
    bool is_work = false;
    std::vector<std::uint8_t> reply;
    std::uint64_t last_send_ns = 0;
  };

  void handle_request(const mp::Message& m, bool can_grant,
                      bool trace_denial) {
    if (crash_mode_ && ctx_.rank_dead(m.src)) return;  // requester died
    const std::uint32_t seq = get_u32(m.payload, 0);
    GrantCache& gc = cache_[m.src];
    if (gc.seq != 0) {
      if (seq < gc.seq) return;  // ancient duplicate: drop silently
      if (seq == gc.seq) {
        ++st_.c.dups_suppressed;
        resend_cached(m.src, gc);
        return;
      }
      if (!gc.acked) {  // newer request: the old grant was consumed
        gc.acked = true;
        --outstanding_acks_;
      }
    }
    answer_request(m.src, seq, can_grant, trace_denial);
  }

  void answer_request(int src, std::uint32_t seq, bool can_grant,
                      bool trace_denial) {
    GrantCache& gc = cache_[src];
    gc.seq = seq;
    gc.last_send_ns = ctx_.now_ns();
    if (can_grant && my_.local_size() >= 2 * k_) {
      // The grant is the mpi-ws "mid-steal" window: from here until the ack
      // arrives the chunk is in flight, so CrashSpec::kMidSteal can target
      // the charges inside this block.
      pgas::StealScope scope(ctx_);
      my_.release(k_);
      const std::size_t begin = my_.reserve(k_);
      // Lineage record directly after the reservation (no interaction point
      // between): once the chunk has left the stack it is always reachable
      // through the record, whichever endpoint dies next.
      if (crash_mode_)
        board_->publish(me_, src, me_, src, my_.slot(begin),
                        static_cast<std::uint32_t>(k_));
      gc.is_work = true;
      gc.acked = false;
      gc.reply.resize(4 + k_ * nb_);
      put_u32(gc.reply.data(), seq);
      std::memcpy(gc.reply.data() + 4, my_.slot(begin), k_ * nb_);
      comm_.send(ctx_, src, kTagWork, gc.reply.data(), gc.reply.size());
      my_.maybe_compact();
      color_ = kBlack;
      ++outstanding_acks_;
      granted(src, k_, thief_span(src));
    } else {
      gc.is_work = false;
      gc.acked = true;
      gc.reply.resize(4);
      put_u32(gc.reply.data(), seq);
      comm_.send(ctx_, src, kTagNone, gc.reply.data(), gc.reply.size());
      denied(src, thief_span(src), trace_denial);
    }
  }

  void resend_cached(int src, GrantCache& gc) {
    gc.last_send_ns = ctx_.now_ns();
    comm_.send(ctx_, src, gc.is_work ? kTagWork : kTagNone, gc.reply.data(),
               gc.reply.size());
    retransmitted(src);
  }

  /// Idle victim: re-push any unacknowledged grant whose ack is overdue
  /// (the WORK or its ACK may have been dropped). Without this, a lost ACK
  /// would pin outstanding_acks_ above zero forever and block the token.
  void nudge_unacked() {
    if (outstanding_acks_ == 0) return;
    const std::uint64_t now = ctx_.now_ns();
    for (int t = 0; t < n_; ++t) {
      GrantCache& gc = cache_[t];
      if (gc.seq == 0 || !gc.is_work || gc.acked) continue;
      if (crash_mode_ && ctx_.rank_dead(t)) {
        // The thief died with our grant unacknowledged. The chunk's
        // lineage record now owns it (a survivor replays it if the thief
        // never absorbed); stop waiting so the token is not pinned by a
        // ghost.
        gc.acked = true;
        --outstanding_acks_;
        continue;
      }
      if (now - gc.last_send_ns >= cfg_.steal_timeout_ns)
        resend_cached(t, gc);
    }
  }

  // ---- hardened thief side ----------------------------------------------

  void send_ack(int dst, std::uint32_t seq) {
    std::uint8_t buf[4];
    put_u32(buf, seq);
    comm_.send(ctx_, dst, kTagAck, buf, sizeof buf);
  }

  /// With no steal request outstanding, every WORK in the mailbox is a
  /// nudged duplicate of a grant we already absorbed — re-ack it so the
  /// victim stops resending — and every NONE is stale. Never called while
  /// a request is outstanding (it would swallow the awaited reply).
  void drain_stray_replies() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagWork, m)) {
      send_ack(m.src, get_u32(m.payload, 0));
      ++st_.c.dups_suppressed;
    }
    while (comm_.try_recv(ctx_, mp::kAny, kTagNone, m))
      ++st_.c.dups_suppressed;
  }

  bool find_work() {
    if (n_ == 1) {
      // Sole rank: run the token protocol to completion for uniformity.
      set_state(State::kTermination);
      while (!idle_comm()) ctx_.yield();
      return false;
    }
    set_state(State::kSearching);
    std::uniform_int_distribution<int> pick(0, n_ - 2);
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (idle_comm()) return false;
      if (maybe_recover()) {
        // We re-activated ourselves with a dead rank's work: turn black so
        // any in-flight token round is invalidated.
        color_ = kBlack;
        set_state(State::kWorking);
        return true;
      }
      if (cancelled_) {
        // No new steals after the deadline: stay on the ring (idle_comm
        // keeps denying, forwarding the token, and nudging unacked grants)
        // until the token protocol declares termination.
        ctx_.yield();
        continue;
      }
      // Choose a random victim (skip self; in crash mode, skip the dead;
      // with membership, skip ranks that are not yet — or no longer —
      // members).
      int v = pick(ctx_.rng());
      if (v >= me_) ++v;
      if (crash_mode_ && ctx_.rank_dead(v)) {
        ctx_.yield();
        continue;
      }
      if (member_mode_ && ctx_.rank_absent(v)) {
        ctx_.yield();
        continue;
      }
      probed();
      ++st_.c.steal_attempts;
      bool got;
      if (hardened_) {
        set_state(State::kStealing);
        got = await_steal_hardened(v);
      } else {
        begin_span(v, /*publish=*/true);
        comm_.send(ctx_, v, kTagRequest);
        set_state(State::kStealing);
        got = await_steal(v);
      }
      if (got) {
        set_state(State::kWorking);
        return true;
      }
      if (term_seen_) return false;
      set_state(State::kSearching);
      ctx_.yield();
    }
  }

  /// Legacy steal round-trip: the bare request was already sent; await
  /// that victim's answer, staying responsive meanwhile.
  bool await_steal(int v) {
    for (;;) {
      cancel_check();  // flag-flip only: the reply must still be consumed
      mp::Message m;
      if (comm_.try_recv(ctx_, v, kTagWork, m)) {
        absorb(m);
        return true;
      }
      if (comm_.try_recv(ctx_, v, kTagNone, m)) {
        drop_span(v);  // the victim recorded the terminal kDeny
        steal_failed(v, /*row=*/false);
        return false;
      }
      if (idle_comm()) {
        abandon_span(v);
        term_seen_ = true;
        return false;
      }
      ctx_.yield();
    }
  }

  /// Hardened steal round-trip: the request carries a fresh sequence
  /// number and is retransmitted (with exponential backoff) until the
  /// victim answers with a matching WORK or NONE. The request is never
  /// abandoned — a grant could already be committed or in flight, and
  /// walking away from one would lose its nodes. Exactly-once absorption
  /// holds because only a reply matching the outstanding seq is absorbed;
  /// anything else is re-acked and dropped.
  bool await_steal_hardened(int v) {
    ++req_seq_;
    wait_victim_ = v;
    begin_span(v, /*publish=*/true);
    std::uint8_t req[4];
    put_u32(req, req_seq_);
    comm_.send(ctx_, v, kTagRequest, req, sizeof req);
    std::uint64_t rto = cfg_.steal_timeout_ns;
    std::uint64_t deadline = ctx_.now_ns() + rto;
    for (;;) {
      cancel_check();  // flag-flip only: a committed grant is never orphaned
      mp::Message m;
      while (comm_.try_recv(ctx_, v, kTagWork, m)) {
        const std::uint32_t seq = get_u32(m.payload, 0);
        if (seq == req_seq_) {
          wait_victim_ = -1;
          absorb(m);
          return true;
        }
        send_ack(v, seq);  // duplicate of an earlier absorbed grant
        ++st_.c.dups_suppressed;
      }
      bool denied = false;
      while (comm_.try_recv(ctx_, v, kTagNone, m)) {
        if (get_u32(m.payload, 0) == req_seq_) {
          denied = true;
          break;
        }
        ++st_.c.dups_suppressed;
      }
      if (denied) {
        wait_victim_ = -1;
        drop_span(v);  // the victim recorded the terminal kDeny
        steal_failed(v, /*row=*/false);
        return false;
      }
      if (crash_mode_ && ctx_.rank_dead(v)) {
        // The victim died mid-protocol. If it had committed a grant, the
        // chunk survives in its lineage record: retire the record and
        // absorb straight from the payload; otherwise the steal failed.
        wait_victim_ = -1;
        TransferRec& rec = board_->rec(v, me_);
        if (board_->retire(ctx_, rec)) {
          const std::size_t take = rec.nnodes;
          my_.push_n(rec.payload.data(), take);
          ctx_.charge(ctx_.net().bulk_ns(me_, v, take * nb_));
          stole(v, take);
          span_event(obs::SpanPhase::kSalvage, me_, v, take);
          span_event(obs::SpanPhase::kAbsorb, me_, v, take);
          drop_span(v);
          return true;
        }
        abandon_span(v);
        steal_failed(v, /*row=*/false);
        return false;
      }
      if (idle_comm()) {
        wait_victim_ = -1;
        abandon_span(v);
        term_seen_ = true;
        return false;
      }
      if (ctx_.now_ns() >= deadline) {
        comm_.send(ctx_, v, kTagRequest, req, sizeof req);
        retransmitted(v);
        span_event(obs::SpanPhase::kTimeout, me_, v);
        rto = std::min(rto * 2, cfg_.steal_timeout_ns * 8);
        deadline = ctx_.now_ns() + rto;
      }
      ctx_.yield();
    }
  }

  void absorb(const mp::Message& m) {
    const std::size_t off = hardened_ ? 4 : 0;
    const std::size_t take = (m.payload.size() - off) / nb_;
    // Retire the grant's lineage record *before* the pushes, with no
    // interaction point between retire and pushes: "record pending" then
    // means exactly "chunk in no stack". If the sender died after granting,
    // a survivor may have replayed the record already — its claim beat ours
    // and we must not apply the chunk a second time (still ack, so the
    // protocol state stays consistent if the grant resurfaces).
    if (crash_mode_) {
      if (!board_->retire(ctx_, board_->rec(m.src, me_))) {
        if (hardened_)
          send_ack(m.src, get_u32(m.payload, 0));
        else
          comm_.send(ctx_, m.src, kTagAck);
        abandon_span(m.src);  // the chunk was replayed by a survivor
        return;
      }
    }
    my_.push_n(reinterpret_cast<const std::byte*>(m.payload.data()) + off,
               take);
    if (hardened_)
      send_ack(m.src, get_u32(m.payload, 0));
    else
      comm_.send(ctx_, m.src, kTagAck);
    stole(m.src, take);
    span_event(obs::SpanPhase::kTransfer, me_, m.src, take);
    span_event(obs::SpanPhase::kAbsorb, me_, m.src, take);
    drop_span(m.src);
  }

  // ---- crash recovery (crash_mode_ only) --------------------------------

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

  mp::Comm& comm_;
  const bool hardened_;
  bool leading_ = false;   ///< currently running the EWD840 leader rules
  std::uint64_t round_epoch_ = 0;  ///< leader: recovery_epoch at round start

  Color color_ = kWhite;
  Color token_color_ = kWhite;
  bool has_token_ = false;
  bool round_started_ = false;
  int outstanding_acks_ = 0;
  bool term_seen_ = false;

  // hardened-only state
  std::uint32_t req_seq_ = 0;         ///< thief: last issued request seq
  int wait_victim_ = -1;              ///< thief: victim awaited, or -1
  std::vector<GrantCache> cache_;     ///< victim: last reply per thief
  std::uint32_t round_ = 0;           ///< rank 0: current token round
  std::uint32_t max_round_seen_ = 0;  ///< others: newest round accepted
  std::uint32_t token_round_ = 0;     ///< round carried by the held token
  std::uint64_t token_sent_ns_ = 0;   ///< rank 0: when the round's token left
};

}  // namespace

stats::ThreadStats run_mpi_rank(pgas::Ctx& ctx, mp::Comm& comm,
                                StealStack& stack, const Problem& prob,
                                const WsConfig& cfg, RecoveryBoard* board) {
  // Crash-fault tolerance needs a board AND the hardened protocol: lineage
  // records ride on its seq/ack layer.
  const bool crash_mode =
      board != nullptr && ctx.liveness() != nullptr && cfg.hardened();
  MpiWorker w(ctx, comm, stack, prob, cfg, board, crash_mode);
  return w.run();
}

}  // namespace upcws::ws
