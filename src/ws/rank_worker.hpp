// The per-rank core every load-balancing worker is built on.
//
// The paper's algorithms differ only in stack protocol, steal amount and
// termination (§3, Figure 3). Everything else one rank does is the same
// for the UPC family (algo_upc.cpp), mpi-ws (algo_mpi.cpp) and work-push
// (algo_push.cpp), and lives here once:
//
//   * the run prologue and epilogue: join park, state timer, root push, and
//     the fail-stop catch that keeps a popped-but-unexpanded node;
//   * the pop-loop safe points (planned drain, cooperative deadline) and
//     the per-node visit / reclaim;
//   * the crash-recovery sweep: stack salvage and lineage-record replay
//     against the RecoveryBoard, after the relocatable collections of
//     resilient APGAS runtimes (Finnerty & Kamada, PAPERS.md);
//   * steal-span bookkeeping;
//   * one method per protocol event (state, stole, release, grant, deny,
//     timeout, retransmit, recover, probe), each writing the ThreadStats
//     counter, the obs counter and the trace row together.
//
// A worker derives from RankWorker, implements search() — its transport
// and termination protocol — and is driven by run(). mpi-ws and work-push
// derive through TokenWorker (token_worker.hpp), their shared token ring.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/observer.hpp"
#include "pgas/engine.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "ws/config.hpp"
#include "ws/problem.hpp"
#include "ws/recovery.hpp"
#include "ws/shared_state.hpp"
#include "ws/stealstack.hpp"

namespace upcws::ws {

class RankWorker : public NodeSink {
 public:
  /// Run this rank to termination (or to its crash); returns its
  /// statistics.
  stats::ThreadStats run() {
    join_park();
    const std::uint64_t t0 = ctx_.now_ns();
    st_.timer.start(stats::State::kWorking, t0);
    if (trace_ != nullptr) trace_->state(me_, t0, stats::State::kWorking);
    if (obs_ != nullptr) obs_->state(me_, t0, stats::State::kWorking);
    if (me_ == 0) {
      prob_.root(nodebuf_.data());
      my_.push(nodebuf_.data());
    }
    try {
      search();
    } catch (const pgas::RankCrashed&) {
      // This rank fail-stopped. The Ctx is already in dead mode (its
      // remote stores no longer land), so all we do is preserve the node
      // popped-but-not-yet-expanded: re-pushing it locally makes the crash
      // indistinguishable from one that landed just before the pop, and a
      // salvager will pick it up with the rest of the stack. Partial
      // counters are returned as-is — visited-node counts are modeled as
      // durable (monotonic aggregation at a resilient store).
      if (visiting_) my_.push(nodebuf_.data());
    }
    const std::uint64_t t1 = ctx_.now_ns();
    st_.timer.stop(t1);
    if (trace_ != nullptr) trace_->finish(me_, t1);
    if (obs_ != nullptr) obs_->finish(me_, t1);
    return st_;
  }

  // NodeSink: children of the node being visited land on our stack.
  void push(const std::byte* node) final { my_.push(node); }
  void push_n(const std::byte* nodes, std::size_t count,
              std::size_t /*node_bytes*/) final {
    my_.push_n(nodes, count);
  }

 protected:
  /// `board` and `crash_mode` are the worker's crash-tolerance switch
  /// (each family derives its own). `drains` says whether a planned drain
  /// is honoured at the safe points.
  RankWorker(pgas::Ctx& ctx, StealStack& my, const Problem& prob,
             const WsConfig& cfg, RecoveryBoard* board, bool crash_mode,
             bool drains)
      : ctx_(ctx),
        prob_(prob),
        cfg_(cfg),
        me_(ctx.rank()),
        n_(ctx.nranks()),
        k_(static_cast<std::size_t>(cfg.chunk_size)),
        nb_(prob.node_bytes()),
        my_(my),
        board_(board),
        crash_mode_(crash_mode),
        member_mode_(ctx.faults() != nullptr &&
                     ctx.faults()->plan().membership_enabled()),
        drains_(drains),
        idle_avail_(cfg.termination == Termination::kProbeBarrier
                        ? kNoWorkAtAll
                        : 0),
        salvage_locks_(cfg.termination != Termination::kToken &&
                       cfg.protocol == StackProtocol::kLocked),
        trace_(cfg.trace),
        obs_(cfg.obs) {
    nodebuf_.resize(nb_);
    if (obs_ == nullptr) return;
    obs::Registry& reg = obs_->registry(me_);
    m_steals_ = &reg.counter("steals");
    m_probes_ = &reg.counter("probes");
    m_releases_ = &reg.counter("releases");
    m_services_ = &reg.counter("requests_serviced");
    if (cfg.victim_policy == VictimPolicy::kLifeline && n_ > 1) {
      m_parks_ = &reg.counter("lifeline_parks");
      m_wakes_ = &reg.counter("lifeline_wakes");
    }
    // Gauges are polled from this rank's own fiber/thread at sample
    // boundaries, so owner-only reads are safe; they must not charge.
    reg.gauge("queue_depth",
              [this] { return static_cast<std::int64_t>(my_.depth()); });
    if (crash_mode_)
      reg.gauge("recovery_backlog", [this] {
        // Raw atomic scan — orphan_pending(ctx) would charge Ctx time.
        std::int64_t pending = 0;
        for (int w = 0; w < n_; ++w)
          for (int p = 0; p < n_; ++p)
            if (w != p && board_->rec(w, p).state.load(
                              std::memory_order_relaxed) ==
                              TransferRec::kPending)
              ++pending;
        return pending;
      });
  }

  /// The worker's own loop — work, find more, terminate — including its
  /// graceful leave after a drain. Runs between run()'s prologue and
  /// epilogue; a RankCrashed thrown from it ends the rank.
  virtual void search() = 0;

  // ---- protocol events: ThreadStats, obs counter and trace row at once --

  void set_state(stats::State s) {
    const std::uint64_t t = ctx_.now_ns();
    st_.timer.transition(s, t);
    if (trace_ != nullptr) trace_->state(me_, t, s);
    if (obs_ != nullptr) obs_->state(me_, t, s);
  }

  /// A victim's load was examined (a work_avail read, or an mpi-ws steal
  /// request).
  void probed() {
    ++st_.c.probes;
    if (m_probes_ != nullptr) ++*m_probes_;
  }

  /// `nodes` left our stack: released to the shared region, or pushed or
  /// relayed on the wire (work-push).
  void released(std::size_t nodes) {
    ++st_.c.releases;
    if (m_releases_ != nullptr) ++*m_releases_;
    if (trace_ != nullptr)
      trace_->release(me_, ctx_.now_ns(), static_cast<std::int64_t>(nodes));
  }

  /// A steal from `victim` landed `nodes` on our stack.
  void stole(int victim, std::size_t nodes) {
    count_stolen(nodes);
    steal_row(victim, nodes, true);
  }

  /// stole() in two halves, for the UPC family: its counters precede the
  /// charge that republishes work_avail, its trace row follows it.
  void count_stolen(std::size_t nodes) {
    ++st_.c.steals;
    if (m_steals_ != nullptr) ++*m_steals_;
    st_.steal_sizes.add(nodes);
    st_.c.chunks_stolen += nodes / k_;
    st_.c.nodes_stolen += nodes;
  }
  void steal_row(int victim, std::size_t nodes, bool ok) {
    if (trace_ != nullptr)
      trace_->steal(me_, ctx_.now_ns(), victim,
                    static_cast<std::int64_t>(nodes), ok);
  }

  /// A steal attempt on `victim` got nothing.
  void steal_failed(int victim) {
    ++st_.c.failed_steals;
    steal_row(victim, 0, false);
  }

  /// We answered `thief`'s steal request with `nodes`; `sid` is the span
  /// the thief published (0 = none).
  void granted(int thief, std::size_t nodes, std::uint64_t sid) {
    ++st_.c.requests_serviced;
    if (m_services_ != nullptr) ++*m_services_;
    const auto n = static_cast<std::int64_t>(nodes);
    if (trace_ != nullptr) trace_->service(me_, ctx_.now_ns(), thief, n, true);
    if (sid != 0) record_span(sid, obs::SpanPhase::kService, me_, thief, n);
  }

  /// We refused `thief`'s steal request; `sid` is the span the thief
  /// published (0 = none).
  void denied(int thief, std::uint64_t sid) {
    ++st_.c.requests_denied;
    if (trace_ != nullptr)
      trace_->service(me_, ctx_.now_ns(), thief, 0, false);
    if (sid != 0) record_span(sid, obs::SpanPhase::kDeny, me_, thief);
  }

  /// The span id `thief` published for its request to us (0 = none, or no
  /// observer attached).
  std::uint64_t thief_span(int thief) const {
    return obs_ != nullptr ? obs_->spans().active(thief, me_) : 0;
  }

  /// We withdrew an unanswered steal request to `victim`.
  void timed_out(int victim) {
    ++st_.c.steal_timeouts;
    if (trace_ != nullptr) trace_->timeout(me_, ctx_.now_ns(), victim);
  }

  /// We resent a request, reply or token to `peer`.
  void retransmitted(int peer) {
    ++st_.c.retransmits;
    if (trace_ != nullptr) trace_->retransmit(me_, ctx_.now_ns(), peer);
  }

  /// `nodes` of dead rank `from`'s work landed on our stack.
  void recovered(int from, std::size_t nodes) {
    st_.c.recovered_nodes += nodes;
    if (trace_ != nullptr)
      trace_->recover(me_, ctx_.now_ns(), from,
                      static_cast<std::int64_t>(nodes));
  }

  /// Lifeline victim policy: we parked on our lifelines / woke a neighbor.
  void parked() {
    if (m_parks_ != nullptr) ++*m_parks_;
  }
  void woke() {
    if (m_wakes_ != nullptr) ++*m_wakes_;
  }

  // ---- thief-side steal spans (no-ops without an observer) --------------

  /// Open a steal span toward `v`. `publish` makes its id visible to the
  /// victim before the request is: request/response protocols, where the
  /// victim records its own service step under the same id.
  void begin_span(int v, bool publish) {
    if (obs_ == nullptr) return;
    span_ = obs_->spans().begin(me_, v);
    if (publish) obs_->spans().publish_active(me_, v, span_);
    record_span(span_, obs::SpanPhase::kRequest, me_, v);
  }

  /// One step of the outstanding span, on rank `track`'s timeline.
  void span_event(obs::SpanPhase phase, int track, int peer,
                  std::size_t nodes = 0) {
    if (span_ != 0)
      record_span(span_, phase, track, peer, static_cast<std::int64_t>(nodes));
  }

  /// Close the outstanding span as abandoned (the thief walked away). The
  /// id stays published: the victim may read it later in host order yet
  /// earlier in virtual time, and span assembly drops whatever the victim
  /// records after the abandon (obs/spans.hpp).
  void abandon_span(int v) {
    span_event(obs::SpanPhase::kAbandon, me_, v);
    span_ = 0;
  }

  /// Close the outstanding span without a terminal event of our own.
  void drop_span(int v) {
    if (span_ == 0) return;
    obs_->spans().clear_active(me_, v);
    span_ = 0;
  }

  /// Append one step of span `id` to our own buffer, keyed by our slice.
  void record_span(std::uint64_t id, obs::SpanPhase phase, int track, int peer,
                   std::int64_t nodes = 0) {
    obs_->spans().event(me_, id, phase, ctx_.now_ns(), track, peer, nodes,
                        ctx_.slice_now_ns());
  }

  // ---- elastic membership and the pop-loop safe points ------------------

  /// A JoinSpec'd rank parks (its clock advancing, its joined flag down so
  /// barrier targets exclude it) until its join instant, then raises the
  /// flag with a release store *before* touching any shared protocol state
  /// or the wire. Rank 0 is never a joiner (it seeds the root).
  void join_park() {
    pgas::FaultInjector* fi = ctx_.faults();
    const std::uint64_t jt = fi != nullptr ? fi->join_at_ns() : 0;
    if (jt == 0) return;
    const std::uint64_t now = ctx_.now_ns();
    if (now < jt) ctx_.charge(jt - now);
    while (ctx_.now_ns() < jt) ctx_.yield();
    ctx_.note_joined();
  }

  /// Safe-point probe for a planned drain: only called at the top of the
  /// pop loop and the search-cycle tops, never while a lock is held, a
  /// popped node is in flight, or our +1 stands in a barrier count.
  bool drain_check() {
    pgas::FaultInjector* fi = ctx_.faults();
    if (fi == nullptr || !drains_ || !fi->drain_due(ctx_.now_ns()))
      return false;
    drained_ = true;
    return true;
  }

  /// Cooperative-deadline probe (cfg_.cancel_at_ns). Only ever raises the
  /// flag — each call site decides what a cancelled rank skips. One clock
  /// read, no charge: cancel-off runs are bit-for-bit untouched.
  void cancel_check() {
    if (cfg_.cancel_at_ns == 0 || cancelled_) return;
    if (ctx_.now_ns() >= cfg_.cancel_at_ns) {
      cancelled_ = true;
      st_.c.cancels = 1;
    }
  }

  /// The instant cancel_check() would next raise the flag at, or never
  /// (UINT64_MAX): an idle wait must not skip a pass past it.
  std::uint64_t cancel_horizon() const {
    return cfg_.cancel_at_ns == 0 || cancelled_ ? UINT64_MAX
                                                : cfg_.cancel_at_ns;
  }

  /// Pop-loop top: the drain and deadline safe points, then pop the next
  /// node into nodebuf_. False when draining or the stack is empty.
  bool next_node() {
    if (drain_check()) return false;
    cancel_check();
    return my_.pop(nodebuf_.data());
  }

  /// Expand the node in nodebuf_; its children land on our stack.
  void expand_node() {
    // `visiting_` brackets the window where nodebuf_ holds a node that is
    // on no stack and not yet counted: a crash inside charge_node_work()
    // re-pushes it (see run()). It is cleared the instant the node is
    // counted and its children pushed — both without interaction points —
    // so the re-push can never duplicate a visited node.
    visiting_ = true;
    ctx_.charge_node_work();
    ++st_.c.nodes;
    st_.c.max_depth = std::max(st_.c.max_depth, prob_.depth(nodebuf_.data()));
    const int nc = prob_.expand(nodebuf_.data(), *this);
    st_.c.spawned += static_cast<std::uint64_t>(nc);
    if (nc == 0) ++st_.c.leaves;
    visiting_ = false;
    st_.c.max_stack = std::max<std::uint64_t>(st_.c.max_stack, my_.depth());
  }

  /// Visit the popped node — or, past the deadline, reclaim it.
  void visit() {
    if (cancelled_) {
      reclaim();
      return;
    }
    expand_node();
    ctx_.yield();
  }

  /// Post-deadline replacement for a visit: the popped node is discarded
  /// and tallied instead of expanded. Counting strictly precedes the charge
  /// (the only interaction point), so a crash mid-reclaim never loses or
  /// double-counts the node — `nodes + reclaimed == 1 + spawned` holds.
  void reclaim() {
    ++st_.c.reclaimed;
    ctx_.charge_poll();
    ctx_.yield();
  }

  /// Victims worth probing: skip ranks that are not (yet) members. Gated on
  /// membership so pure-crash schedules keep their exact probe sequence.
  bool skip_victim(int v) { return member_mode_ && ctx_.rank_absent(v); }

  /// Record a work-source status flip of `stk` (paper §3.3.2 analysis).
  void note_avail(StealStack& stk, std::int64_t avail) {
    const bool src = avail >= static_cast<std::int64_t>(k_);
    if (stk.set_source_flag(src)) source_flipped(src);
  }
  /// A stack's source flag flipped to `src`.
  void source_flipped(bool src) {
    st_.source_events.push_back({ctx_.now_ns(), src ? +1 : -1});
  }

  // ---- crash recovery (crash_mode_ only) --------------------------------

  /// Survivor-side recovery sweep, called from the search loops: salvage
  /// any dead rank's stack (exactly once, arbitrated by the board) and
  /// replay any lineage record with a dead endpoint — a dead thief can no
  /// longer absorb its chunk, and a dead victim may have died before
  /// completing a grant its (live) thief has already given up on. The
  /// pending->claimed/done CAS arbitrates against a live thief that does
  /// still absorb, so the chunk lands exactly once either way. Returns
  /// true when nodes landed on our stack — the caller then has work again.
  bool maybe_recover() {
    if (!crash_mode_) return false;
    bool got = false;
    for (int r = 0; r < n_; ++r) {
      if (r == me_ || !ctx_.rank_dead(r) || board_->salvage_done(r)) continue;
      const std::uint64_t rb = ctx_.now_ns();
      if (salvage_stack(r)) got = true;
      if (obs_ != nullptr) obs_->recovery_interval(me_, rb, ctx_.now_ns());
    }
    for (int w = 0; w < n_; ++w) {
      for (int p = 0; p < n_; ++p) {
        if (w == p) continue;
        TransferRec& rec = board_->rec(w, p);
        if (rec.state.load(std::memory_order_acquire) != TransferRec::kPending)
          continue;
        const int victim = rec.victim.load(std::memory_order_relaxed);
        const int thief = rec.thief.load(std::memory_order_relaxed);
        const bool victim_dead = victim >= 0 && ctx_.rank_dead(victim);
        const bool thief_dead = thief >= 0 && ctx_.rank_dead(thief);
        if (!victim_dead && !thief_dead) continue;
        const std::uint64_t rb = ctx_.now_ns();
        if (replay_record(rec)) got = true;
        if (obs_ != nullptr) obs_->recovery_interval(me_, rb, ctx_.now_ns());
      }
    }
    return got;
  }

  /// Take over a dead rank's entire stack interval [shared_base, top).
  /// The mutation block runs with no interaction point, so a salvage is
  /// all-or-nothing even though the salvager itself may crash; the claim
  /// word makes it exactly-once across salvagers.
  bool salvage_stack(int r) {
    StealStack& ds = (*board_->stacks)[r];
    // Locked family: acquire the dead owner's stack lock — revoking its
    // lease if it died inside the critical section — to exclude thieves
    // that are still legitimately stealing from the stale stack.
    std::optional<pgas::LockGuard> guard;
    if (salvage_locks_) guard.emplace(ctx_, ds.lock());
    if (!board_->claim_salvage(r)) return false;
    const std::size_t b = ds.salvage_begin();
    const std::size_t e = ds.salvage_end();
    const std::size_t taken = e > b ? e - b : 0;
    if (taken > 0) my_.push_n(ds.slot(b), taken);
    ds.clear_after_salvage();
    // The emptied stack advertises no work to the UPC family's probes
    // (the token-ring workers never read work_avail).
    ds.work_avail().unmediated().store(idle_avail_, std::memory_order_release);
    note_avail(ds, 0);
    board_->finish_salvage(r);
    // Post-pay the transfer cost: the nodes are already safe on our stack,
    // so a crash landing in this charge cannot lose them (our own death
    // hands them to the next salvager).
    ctx_.charge(ctx_.net().bulk_ns(me_, r, taken * nb_));
    ++st_.c.salvages;
    recovered(r, taken);
    return taken > 0;
  }

  /// Replay one orphaned transfer: an endpoint died mid-protocol, so the
  /// chunk may exist only in the record payload. The claim CAS against the
  /// (possibly live) thief's retire makes the replay exactly-once, and
  /// every replayed node is kept. Descriptor-level dedup would be wrong
  /// here: a node can legitimately flow through recovery more than once in
  /// its lifetime (recovered, released back into circulation unvisited,
  /// re-stolen, then orphaned by a second death), so "seen in a recovery
  /// before" does not mean "safe on some stack" — dropping it loses the
  /// node's whole subtree.
  bool replay_record(TransferRec& rec) {
    if (!board_->claim_rec(ctx_, rec)) return false;  // raced; other won
    // Bump the recovery counter immediately after the claim: the mpi-ws
    // leader's recovery_epoch must change before any window in which the
    // board can read as clean, or it could certify a token round that
    // never saw the replayed nodes.
    board_->note_replay();
    my_.push_n(rec.payload.data(), rec.nnodes);
    const int victim = rec.victim.load(std::memory_order_relaxed);
    ctx_.charge(ctx_.net().bulk_ns(me_, victim, rec.nnodes * nb_));
    ++st_.c.replays;
    recovered(victim, rec.nnodes);
    return rec.nnodes > 0;
  }

  /// A detected-dead rank whose stack is not yet salvaged?
  bool salvage_pending() {
    for (int r = 0; r < n_; ++r)
      if (r != me_ && ctx_.rank_dead(r) && !board_->salvage_done(r))
        return true;
    return false;
  }

  /// No recoverable work may remain before termination is declared: every
  /// detected-dead rank salvaged and no orphaned lineage record pending.
  bool recovery_clean() {
    return !salvage_pending() && !board_->orphan_pending(ctx_);
  }

  /// Cheap pre-check (no charges, no claims): recoverable work may exist.
  /// Barrier waiters use it to cancel out *before* touching that work — a
  /// rank must never claim a chunk while its +1 still stands in a barrier
  /// count, or a peer could see the board clean and the count full and
  /// declare termination with the chunk unvisited.
  bool recovery_possible() {
    return crash_mode_ && (salvage_pending() || board_->orphan_pending(ctx_));
  }

  pgas::Ctx& ctx_;
  const Problem& prob_;
  const WsConfig& cfg_;
  const int me_;
  const int n_;
  const std::size_t k_;
  const std::size_t nb_;
  StealStack& my_;
  stats::ThreadStats st_;
  std::vector<std::byte> nodebuf_;
  /// Crash-fault tolerance (null / false unless the plan injects crashes).
  RecoveryBoard* const board_;
  const bool crash_mode_;
  /// Elastic membership (false unless the plan drains or joins ranks).
  const bool member_mode_;
  /// Planned drains are honoured (see drain_check()).
  const bool drains_;
  /// work_avail of a rank with no work: "no work at all" under the probe
  /// barrier (§3.3.1), else 0.
  const std::int64_t idle_avail_;
  /// Salvagers take the dead owner's stack lock (the locked UPC family).
  const bool salvage_locks_;
  /// This rank hit its planned drain point and is leaving gracefully.
  bool drained_ = false;
  /// This rank passed cfg_.cancel_at_ns: bleed instead of expand.
  bool cancelled_ = false;
  /// nodebuf_ holds a popped-but-uncounted node (see expand_node()).
  bool visiting_ = false;

 private:
  /// Telemetry sinks (null when not attached); written only through the
  /// event methods above.
  trace::Trace* const trace_;
  obs::Observer* const obs_;
  std::uint64_t* m_steals_ = nullptr;
  std::uint64_t* m_probes_ = nullptr;
  std::uint64_t* m_releases_ = nullptr;
  std::uint64_t* m_services_ = nullptr;
  std::uint64_t* m_parks_ = nullptr;
  std::uint64_t* m_wakes_ = nullptr;
  /// Id of this thief's outstanding steal span (0 = none).
  std::uint64_t span_ = 0;
};

}  // namespace upcws::ws
