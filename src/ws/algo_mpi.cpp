#include "ws/algo_mpi.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "ws/token_worker.hpp"

namespace upcws::ws {
namespace {

using stats::State;

class MpiWorker final : public TokenWorker {
 public:
  /// Planned drains ride the crash-recovery machinery (lineage records,
  /// token regeneration, leader takeover), so they are honoured only in
  /// crash mode: an unhardened run ignores its drain plan rather than
  /// losing work.
  MpiWorker(pgas::Ctx& ctx, mp::Comm& comm, StealStack& stack,
            const Problem& prob, const WsConfig& cfg, RecoveryBoard* board,
            bool crash_mode)
      : TokenWorker(ctx, comm, stack, prob, cfg, board, crash_mode,
                    /*drains=*/crash_mode, /*hardened=*/cfg.hardened()) {
    if (hardened_) cache_.resize(n_);
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
        handle_request(m, /*can_grant=*/!cancelled_);
        continue;
      }
      if (!cancelled_ && my_.local_size() >= 2 * k_) {
        // Carve the oldest k local nodes and ship them.
        my_.release(k_);
        const std::size_t begin = my_.reserve(k_);
        comm_.send(ctx_, m.src, kTagWork, my_.slot(begin), k_ * nb_);
        my_.maybe_compact();
        shipped();
        granted(m.src, k_, thief_span(m.src));
      } else {
        comm_.send(ctx_, m.src, kTagNone);
        denied(m.src, thief_span(m.src));
      }
    }
    if (hardened_) drain_stray_replies();
    drain_acks();
    take_token();
  }

  void drain_acks() {
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagAck, m)) {
      if (!hardened_) {
        acked();
        continue;
      }
      // Count each grant's ack exactly once; re-acks of nudged duplicates
      // and acks for superseded grants are suppressed.
      GrantCache& gc = cache_[m.src];
      if (gc.seq != 0 && gc.seq == get_u32(m.payload, 0) && !gc.acked) {
        gc.acked = true;
        acked();
      } else {
        ++st_.c.dups_suppressed;
      }
    }
  }

  /// Idle-state message handling: deny requests, process acks, and run the
  /// token-ring termination rules. Returns true when TERMINATE arrives (or
  /// this rank, leading, decides termination).
  bool idle_comm() {
    take_lead();
    mp::Message m;
    while (comm_.try_recv(ctx_, mp::kAny, kTagRequest, m)) {
      if (hardened_) {
        handle_request(m, /*can_grant=*/false);
        continue;
      }
      comm_.send(ctx_, m.src, kTagNone);
      denied(m.src, thief_span(m.src));
    }
    if (hardened_ && wait_victim_ < 0) drain_stray_replies();
    drain_acks();
    take_token();
    if (hardened_) nudge_unacked();
    return term_arrived() || pass_token();
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

  void handle_request(const mp::Message& m, bool can_grant) {
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
        acked();
      }
    }
    answer_request(m.src, seq, can_grant);
  }

  void answer_request(int src, std::uint32_t seq, bool can_grant) {
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
      shipped();
      granted(src, k_, thief_span(src));
    } else {
      gc.is_work = false;
      gc.acked = true;
      gc.reply.resize(4);
      put_u32(gc.reply.data(), seq);
      comm_.send(ctx_, src, kTagNone, gc.reply.data(), gc.reply.size());
      denied(src, thief_span(src));
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
  /// would pin the ack ledger above zero forever and block the token.
  void nudge_unacked() {
    if (!awaiting_acks()) return;
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
        acked();
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
        blacken();
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
    mp::IdleWait idle;
    for (;;) {
      cancel_check();  // flag-flip only: the reply must still be consumed
      mp::Message m;
      if (comm_.try_recv(ctx_, v, kTagWork, m)) {
        absorb(m);
        return true;
      }
      if (comm_.try_recv(ctx_, v, kTagNone, m)) {
        drop_span(v);  // the victim recorded the terminal kDeny
        steal_failed(v);
        return false;
      }
      if (idle_comm()) {
        abandon_span(v);
        term_seen_ = true;
        return false;
      }
      ctx_.yield();
      comm_.idle_wait(ctx_, idle, cancel_horizon());
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
        steal_failed(v);
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
        steal_failed(v);
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

  bool term_seen_ = false;

  // hardened-only state
  std::uint32_t req_seq_ = 0;      ///< thief: last issued request seq
  int wait_victim_ = -1;           ///< thief: victim awaited, or -1
  std::vector<GrantCache> cache_;  ///< victim: last reply per thief
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
