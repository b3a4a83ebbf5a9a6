#include "ws/algo_upc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "ws/rank_worker.hpp"

namespace upcws::ws {
namespace {

using stats::State;

/// Release a chunk to the shared region once the local region holds at
/// least this many chunks (paper: 2k, "a comfortable stack depth").
constexpr std::size_t kReleaseChunks = 2;
/// Hardened only: backoff after an abandoned steal attempt, doubling per
/// consecutive timeout up to the cap.
constexpr std::uint64_t kStealBackoffNs = 20'000;
constexpr std::uint64_t kStealBackoffMaxNs = 1'000'000;

class UpcWorker final : public RankWorker {
 public:
  UpcWorker(pgas::Ctx& ctx, SharedState& g, const Problem& prob,
            const WsConfig& cfg)
      : RankWorker(ctx, g.stacks[ctx.rank()], prob, cfg, g.recovery,
                   ctx.liveness() != nullptr && g.recovery != nullptr,
                   /*drains=*/true),
        g_(g),
        // The victim policies ride the probe barrier (§3.3.1); under the
        // cancelable barrier (§3.1) the sweep is the paper's random one.
        sweep_(cfg.termination == Termination::kProbeBarrier
                   ? cfg.victim_policy
                   : VictimPolicy::kRandom) {
    backoff_ns_ = kStealBackoffNs;
    if (cfg.obs != nullptr)
      cfg.obs->registry(me_).gauge("release_region", [this] {
        return static_cast<std::int64_t>(my_.shared_size());
      });
    perm_.resize(n_ > 1 ? n_ - 1 : 0);
    int v = 0;
    for (int i = 0; i < n_; ++i)
      if (i != me_) perm_[v++] = i;
    if (cfg.victim_policy == VictimPolicy::kLifeline && n_ > 1) {
      // Hypercube lifelines: neighbors me ^ (1 << d) for each dimension d,
      // skipping partners past the machine edge when n is not a power of
      // two. cfg.lifeline_dim caps the dimensionality (0 = all).
      int dims = 0;
      while (dims < 30 && (1 << dims) < n_) ++dims;
      if (cfg.lifeline_dim > 0) dims = std::min(dims, cfg.lifeline_dim);
      for (int d = 0; d < dims; ++d)
        if ((me_ ^ (1 << d)) < n_) lifeline_dims_.push_back(d);
    }
    switch (sweep_) {
      case VictimPolicy::kRandom: sweep_len_ = n_ - 1; break;
      case VictimPolicy::kLifeline:
        sweep_len_ = static_cast<int>(lifeline_dims_.size());
        break;
      case VictimPolicy::kSampling:
        sweep_len_ = std::max(
            1, static_cast<int>(std::lround(cfg.sample_frac * (n_ - 1))));
        break;
    }
  }

 private:
  void search() override {
    for (;;) {
      do_work();
      if (drained_) break;
      publish_idle();
      if (!find_work()) break;
    }
    // A graceful leave is a clean fail-stop at a safe point: everything
    // still on our stack rides the crash-recovery machinery — survivors
    // detect the death, salvage the stack interval exactly once, replay
    // any orphaned lineage records, and the barrier target shrinks to the
    // remaining membership.
    if (drained_) ctx_.leave();
  }

  bool lockless() const {
    return cfg_.protocol == StackProtocol::kRequestResponse;
  }
  bool steal_half() const { return cfg_.steal_amount == StealAmount::kHalf; }
  bool probe_term() const {
    return cfg_.termination == Termination::kProbeBarrier;
  }
  bool lifeline() const {
    return cfg_.victim_policy == VictimPolicy::kLifeline;
  }

  // ---- work_avail publication (owner-local stores) ----

  void publish_avail() {
    const auto v = static_cast<std::int64_t>(my_.shared_size());
    ctx_.put_local(my_.work_avail(), v);
    note_avail(my_, v);
  }

  void publish_idle() {
    // In the locked family a thief may concurrently write our work_avail
    // (it updates the count under our stack lock when it reserves a chunk).
    // The idle marker must serialize through the same lock, or a stale "0"
    // from a thief could overwrite our "-1" and convince every searcher
    // that someone is still working — a termination livelock.
    std::optional<pgas::LockGuard> guard;
    if (!lockless()) guard.emplace(ctx_, my_.lock());
    ctx_.put_local(my_.work_avail(), idle_avail_);
    note_avail(my_, 0);
  }

  // ---- working state ----

  void do_work() {
    int since_poll = 0;
    for (;;) {
      if (!next_node()) {
        if (drained_ || !reacquire_chunk()) break;  // or stack fully empty
        continue;
      }
      if (cancelled_) {
        reclaim();
      } else {
        expand_node();
        while (my_.local_size() >= kReleaseChunks * k_) do_release();
        ctx_.yield();
      }
      if (lockless() && ++since_poll >= cfg_.poll_interval) {
        since_poll = 0;
        service_requests();
        // Lifeline victims also close the missed-wake window here: a
        // neighbor that parked just after our last release is woken on the
        // next poll as long as we still hold surplus.
        if (lifeline() && my_.shared_size() >= k_) maybe_wake_lifeline();
      }
    }
  }

  void do_release() {
    {
      // In the lock-less protocol the owner exclusively manages its stack;
      // otherwise the boundary move must exclude concurrent thieves.
      std::optional<pgas::LockGuard> guard;
      if (!lockless()) guard.emplace(ctx_, my_.lock());
      my_.release(k_);
      publish_avail();
      my_.maybe_compact();
    }
    released(k_);
    if (cfg_.termination == Termination::kCancelableBarrier)
      cancel_barrier_reset();
    // Fresh stealable surplus: hand it to a distressed lifeline neighbor.
    if (lifeline()) maybe_wake_lifeline();
  }

  bool reacquire_chunk() {
    if (my_.shared_size() < k_) return false;
    {
      std::optional<pgas::LockGuard> guard;
      if (!lockless()) guard.emplace(ctx_, my_.lock());
      // Re-check under the lock: a thief may have taken the chunk between
      // the unlocked pre-check and the acquisition.
      if (my_.shared_size() >= k_) {
        my_.reacquire(k_);
        publish_avail();
      }
    }
    ++st_.c.reacquires;
    return my_.local_size() > 0;
  }

  /// §3.1: "After each release() operation, the cancelable barrier is reset
  /// by the thread releasing work. This is a remote operation, and it delays
  /// a thread that might otherwise be doing useful work. Furthermore,
  /// barrier operations are performed under lock" — the very overhead
  /// §3.3.1 eliminates. Faithfully unconditional: every release pays the
  /// remote lock cycle on rank 0's barrier lock.
  void cancel_barrier_reset() {
    pgas::LockGuard guard(ctx_, g_.cb_lock);
    if (ctx_.get(g_.cb_count) > 0) ctx_.put(g_.cb_cancel, 1);
  }

  // ---- lock-less request servicing (victim side, §3.3.3) ----

  void service_requests() {
    pgas::Shared<int>& request = g_.slots[me_].steal_request;
    const int req = ctx_.poll(request);
    if (req < 0) return;  // no request, or one we already claimed
    if (crash_mode_ && ctx_.rank_dead(req)) {
      // The requester died waiting. Granting would strand the chunk in a
      // lineage record until someone replays it; just drop the request.
      ctx_.put_local(request, kNoRequest);
      return;
    }
    if (cfg_.hardened()) {
      // Claim the request before answering it. A timed-out thief abandons
      // its request by CASing thief->kNoRequest; this CAS and that one are
      // mutually exclusive, so either the thief withdrew (we do nothing) or
      // we are now committed and its cancellation will fail — the granted
      // chunk can never be orphaned.
      int expect = req;
      if (!ctx_.cas_local(request, expect, kServicing))
        return;  // thief gave up first
    }
    // The thief published its span id before the request CAS, so this read
    // is ordered by the protocol's own acquire of steal_request (0 when no
    // observer is attached or the thief predates this run's spans).
    const std::uint64_t sid = thief_span(req);
    // A cancelled victim load-sheds: granting would only hand the thief
    // nodes it (or we) must bleed anyway, and could bounce work between
    // cancelled ranks indefinitely.
    const std::int64_t chunks =
        cancelled_ ? 0 : static_cast<std::int64_t>(my_.shared_size() / k_);
    if (chunks < 1) {
      denied(req, sid);
      // One remote write tells the thief it was denied.
      ctx_.put(g_.slots[req].resp_amount, std::int64_t{0});
    } else {
      const std::int64_t take_chunks =
          steal_half() ? std::max<std::int64_t>(1, chunks / 2) : 1;
      const std::size_t take = static_cast<std::size_t>(take_chunks) * k_;
      const std::size_t begin = my_.reserve(take);
      // Lineage record first, directly after the reservation with no
      // interaction point between: once the chunk has left the stack it is
      // always reachable through the record, whichever side dies next.
      if (crash_mode_)
        board_->publish(me_, req, me_, req, my_.slot(begin),
                        static_cast<std::uint32_t>(take));
      publish_avail();
      auto& box = g_.slots[me_].outbox[req];
      box.resize(take * nb_);
      std::memcpy(box.data(), my_.slot(begin), take * nb_);
      ctx_.charge(ctx_.net().local_ref_ns);  // local staging copy
      my_.maybe_compact();
      granted(req, take, sid);
      // Two remote writes: the amount granted and the work's location.
      ctx_.put(g_.slots[req].resp_amount, static_cast<std::int64_t>(take));
      ctx_.charge_ref(req);
    }
    ctx_.put_local(request, kNoRequest);
  }

  // ---- searching / stealing ----

  std::int64_t probe(int v) {
    probed();
    return ctx_.get(g_.stacks[v].work_avail());
  }

  bool attempt_steal(int v) {
    ++st_.c.steal_attempts;
    pgas::StealScope scope(ctx_);  // kMidSteal crash specs land in here
    const bool ok = lockless() ? steal_reqresp(v) : steal_locked(v);
    if (ok)
      steal_row(v, last_take_, true);  // after absorb()'s publish_avail()
    else
      steal_failed(v);
    return ok;
  }

  /// §3.1 steal: lock the victim's stack, reserve a chunk run, unlock, then
  /// transfer outside the critical section with a one-sided get. Every
  /// touch of the victim's stack is an op at the victim.
  bool steal_locked(int v) {
    StealStack& vs = g_.stacks[v];
    // Under the locked protocol the victim never executes steal code, so
    // the thief records the whole span itself — the service step lands on
    // the victim's timeline via the event's track field.
    begin_span(v, /*publish=*/false);
    std::size_t take = 0;
    const std::byte* chunk = nullptr;
    {
      pgas::LockGuard guard(ctx_, vs.lock());
      // One reference reads the victim's region bookkeeping and reserves.
      std::int64_t left = 0;
      ctx_.ref_op(v, [&] {
        const auto chunks = static_cast<std::int64_t>(vs.shared_size() / k_);
        if (chunks < 1) return;
        const std::int64_t take_chunks =
            steal_half() ? std::max<std::int64_t>(1, chunks / 2) : 1;
        take = static_cast<std::size_t>(take_chunks) * k_;
        chunk = vs.slot(vs.reserve(take));
        left = static_cast<std::int64_t>(vs.shared_size());
      });
      if (take > 0) {
        // Lineage record immediately after the reservation (no interaction
        // point between): if we die before the chunk lands on our stack, a
        // survivor replays it from the record.
        if (crash_mode_)
          board_->publish(me_, v, v, me_, chunk,
                          static_cast<std::uint32_t>(take));
        // The new count lands with the victim's source flag and the
        // in-flight mark, so the victim cannot compact under our copy.
        const bool src = left >= static_cast<std::int64_t>(k_);
        bool flipped = false;
        ctx_.put(vs.work_avail(), left, [&] {
          flipped = vs.set_source_flag(src);
          vs.begin_transfer();
        });
        if (flipped) source_flipped(src);
        span_event(obs::SpanPhase::kService, v, me_, take);
      }
    }
    if (take == 0) {
      span_event(obs::SpanPhase::kDeny, v, me_);
      drop_span(v);
      return false;
    }
    xfer_.resize(take * nb_);
    ctx_.bulk_get(xfer_.data(), chunk, take * nb_, v,
                  [&] { vs.end_transfer(); });
    ctx_.charge_ref(v);  // remote completion notice for the in-flight count
    span_event(obs::SpanPhase::kTransfer, me_, v, take);
    const bool landed =
        absorb(take, crash_mode_ ? &board_->rec(me_, v) : nullptr);
    drop_span(v);
    return landed;
  }

  /// §3.3.3 steal: CAS our id into the victim's request word, spin on our
  /// own (local) response word, then one-sided-get the granted run.
  ///
  /// Hardened variant (cfg_.steal_timeout_ns > 0): if the victim does not
  /// answer within the timeout (it may be stalled, possibly inside a
  /// critical section), withdraw the request with a CAS me->kNoRequest and
  /// back off exponentially before re-probing. The victim's claim-CAS
  /// (kServicing) in service_requests() makes withdrawal and grant mutually
  /// exclusive; once withdrawal fails the response is committed and we must
  /// consume it — exactly-once chunk transfer either way.
  bool steal_reqresp(int v) {
    auto& mine = g_.slots[me_];
    ctx_.put_local(mine.resp_amount, kRespPending);
    // Publish the span id before the request CAS makes it visible: the
    // victim reads it when servicing and records its side under this id.
    begin_span(v, /*publish=*/true);
    int expect = kNoRequest;
    if (!ctx_.cas(g_.slots[v].steal_request, expect, me_)) {
      abandon_span(v);
      return false;  // another thief got there first; move on
    }
    const bool hardened = cfg_.hardened();
    const std::uint64_t deadline =
        hardened ? ctx_.now_ns() + cfg_.steal_timeout_ns : 0;
    bool cancelable = hardened;
    for (;;) {
      cancel_check();  // flag-flip only: an in-flight steal always completes
      const std::int64_t a = ctx_.poll(mine.resp_amount);
      if (a == 0) {
        // Denied; the victim recorded the span's kDeny when it answered.
        drop_span(v);
        backoff_ns_ = kStealBackoffNs;  // the victim answered in time
        return false;                   // denied
      }
      if (a > 0) {
        const std::size_t take = static_cast<std::size_t>(a);
        xfer_.resize(take * nb_);
        ctx_.bulk_get(xfer_.data(), g_.slots[v].outbox[me_].data(), take * nb_,
                      v);
        span_event(obs::SpanPhase::kTransfer, me_, v, take);
        const bool landed =
            absorb(take, crash_mode_ ? &board_->rec(v, me_) : nullptr);
        drop_span(v);
        backoff_ns_ = kStealBackoffNs;
        return landed;
      }
      if (crash_mode_ && ctx_.rank_dead(v)) {
        // The victim died mid-protocol. If it had committed a grant, the
        // chunk survives in its lineage record: retire the record and
        // absorb straight from the payload. Otherwise the steal failed
        // (a parked request in a dead rank's slot is harmless).
        ctx_.charge_ref(v);
        TransferRec& rec = board_->rec(v, me_);
        if (board_->retire(ctx_, rec)) {
          const std::size_t take = rec.nnodes;
          xfer_.assign(rec.payload.begin(), rec.payload.end());
          span_event(obs::SpanPhase::kSalvage, me_, v, take);
          absorb(take);
          drop_span(v);
          backoff_ns_ = kStealBackoffNs;
          return true;
        }
        abandon_span(v);
        return false;
      }
      if (cancelable && ctx_.now_ns() >= deadline) {
        int still_me = me_;
        if (ctx_.cas(g_.slots[v].steal_request, still_me, kNoRequest)) {
          // Withdrawn before the victim claimed it; no response will come.
          timed_out(v);
          span_event(obs::SpanPhase::kTimeout, me_, v);
          abandon_span(v);
          ctx_.charge(backoff_ns_);
          backoff_ns_ = std::min(backoff_ns_ * 2, kStealBackoffMaxNs);
          return false;
        }
        // The victim already claimed (kServicing) or answered: a response
        // is committed, so stop trying to cancel and wait it out.
        span_event(obs::SpanPhase::kTimeout, me_, v);
        cancelable = false;
      }
      // Pending. Keep global liveness while we wait: deny steal requests
      // aimed at us, and abandon the wait if termination was announced
      // (the victim may have exited without seeing our request).
      service_requests();
      if (probe_term() && ctx_.peek(mine.term_flag)) {
        abandon_span(v);
        return false;  // caller re-checks the flag and exits
      }
      ctx_.yield();
    }
  }

  /// Returns false when the lineage record was already replayed by a
  /// recoverer — the copied chunk must be discarded and the steal reported
  /// as failed (nothing landed on our stack).
  bool absorb(std::size_t take, TransferRec* rec = nullptr) {
    // Retire the lineage record *before* the pushes, with no interaction
    // point between retire and pushes: "record pending" is then exactly
    // "chunk in no stack". The claim CAS fails only if a survivor already
    // replayed this chunk after detecting our victim dead — then the chunk
    // is on the replayer's stack and we must not apply it a second time.
    if (rec != nullptr && !board_->retire(ctx_, *rec)) {
      span_event(obs::SpanPhase::kAbandon, me_, -1);
      // Nothing landed: we are still a searcher, and must advertise as
      // one — leaving a stale "working, no surplus" here would keep every
      // peer out of the termination barrier forever.
      publish_idle();
      return false;
    }
    last_take_ = take;
    my_.push_n(xfer_.data(), take);
    count_stolen(take);
    span_event(obs::SpanPhase::kAbsorb, me_, -1, take);
    // We are working again; shared region is empty. A crash in this charge
    // returns the steal counted but without its trace row.
    publish_avail();
    return true;
  }

  void shuffle_perm() {
    std::shuffle(perm_.begin(), perm_.end(), ctx_.rng());
    if (cfg_.locality_first) {
      // Stable partition keeps each group's random order while trying
      // same-node victims (cheap refs) before off-node ones.
      std::stable_partition(perm_.begin(), perm_.end(), [&](int v) {
        return ctx_.net().same_node(me_, v);
      });
    }
  }

  // ---- lifeline victim policy (docs/protocols.md "Lifeline stealing") ----
  //
  // Distress/wake protocol: an idle thief sets its own park word to kParked,
  // raises its distress bit at every live hypercube neighbor, and waits in
  // the probe barrier polling only its *own* park word (a cheap local read —
  // no spin-probing). A victim that gains surplus scans its own distress
  // word at release/poll points and wakes ONE distressed neighbor by CASing
  // that thief's park word kParked -> its own rank; the woken thief leaves
  // the barrier FIRST and then pulls through the ordinary request/response
  // steal, so transfers, lineage records, and steal conservation are exactly
  // the upc-distmem machinery. A lost wake (victim died, bit raced) only
  // costs latency: the thief stays parked in the barrier and termination
  // stays exact, because parking requires an empty stack.

  /// Thief side: mark ourselves parked and distress all live lifelines.
  void park_lifelines() {
    ctx_.put_local(g_.slots[me_].park, kParked);
    for (int d : lifeline_dims_) {
      const int v = me_ ^ (1 << d);
      if (skip_victim(v) || (crash_mode_ && ctx_.rank_dead(v))) continue;
      raise_distress(v, d);
    }
    parked();
  }

  void unpark() { ctx_.put_local(g_.slots[me_].park, kUnparked); }

  /// Set bit `d` in the neighbor's distress word (remote CAS loop; the
  /// owner is the only clearer, so the loop is one iteration in practice).
  void raise_distress(int v, int d) {
    const std::uint64_t bit = std::uint64_t{1} << d;
    for (;;) {
      const std::uint64_t cur = ctx_.get(g_.slots[v].distress);
      if ((cur & bit) != 0) return;
      std::uint64_t expect = cur;
      if (ctx_.cas(g_.slots[v].distress, expect, cur | bit)) return;
    }
  }

  /// Victim side: wake the lowest-dimension distressed lifeline neighbor
  /// that is still parked. Stale bits (dead, drained, or already-woken
  /// neighbors) are cleared along the way; a cleared thief re-raises its
  /// bit if it re-parks.
  void maybe_wake_lifeline() {
    std::uint64_t d = ctx_.poll(g_.slots[me_].distress);
    while (d != 0) {
      const int bit = std::countr_zero(d);
      d &= d - 1;
      const int t = me_ ^ (1 << bit);
      bool hit = false;
      if (t < n_ && !skip_victim(t) && !(crash_mode_ && ctx_.rank_dead(t))) {
        int expect = kParked;
        hit = ctx_.cas(g_.slots[t].park, expect, me_);
      }
      // Clear the bit either way: on a wake the hand-off is complete, on a
      // failed CAS the thief is no longer parked (stale distress).
      ctx_.and_local(g_.slots[me_].distress, ~(std::uint64_t{1} << bit));
      if (hit) {
        woke();
        return;  // one wake per surplus event; the thief pulls half and
                 // re-releases, propagating further wakes down the graph
      }
    }
  }

  // ---- termination barriers ----

  /// Crash-mode membership invariants for the termination barriers.
  ///
  /// The entry count at which the barrier means global termination: every
  /// rank we currently see as a present member, plus one ghost entry per
  /// dead rank that died *while counted in* (its in_barrier mirror is set —
  /// and a rank can only die in-barrier with an empty stack, so its ghost
  /// entry is as good as a live one). A not-yet-joined rank is excluded via
  /// its monotonic joined flag, never via a clocked view: the joiner raises
  /// the flag (release) before its first shared-protocol store, so any rank
  /// that could have granted it work already sees it as a member — a lagging
  /// view can therefore never declare termination around a working joiner.
  int barrier_target() {
    int absent = 0, ghosts = 0;
    for (int r = 0; r < n_; ++r) {
      if (r == me_ || !ctx_.rank_absent(r)) continue;
      ++absent;
      if (ctx_.rank_dead(r) &&
          board_->in_barrier(r).load(std::memory_order_acquire))
        ++ghosts;
    }
    return n_ - absent + ghosts;
  }

  /// Enter/leave the probe-family barrier. In crash mode the in_barrier
  /// mirror flag and the counter move with no interaction point between
  /// (flag pre-charged), so survivors can always tell whether a dead
  /// rank's +1 is in the count.
  int bar_enter() {
    if (!crash_mode_) return ctx_.add(g_.bar_count, 1) + 1;
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(1, std::memory_order_release);
    return g_.bar_count.unmediated().fetch_add(1, std::memory_order_acq_rel) +
           1;
  }

  void bar_leave() {
    if (!crash_mode_) {
      ctx_.add(g_.bar_count, -1);
      return;
    }
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(0, std::memory_order_release);
    g_.bar_count.unmediated().fetch_add(-1, std::memory_order_acq_rel);
  }

  bool term_satisfied(int cnt) {
    if (!crash_mode_) return cnt == n_;
    return cnt >= barrier_target() && recovery_clean();
  }

  // ---- the search loop ----

  /// Out of local work: find more, or detect termination. Each cycle takes
  /// the drain/cancel/recover safe points, then sweeps victims in the order
  /// sweep_ names:
  ///
  ///   kRandom    every other rank, in a fresh random permutation (§3.1);
  ///   kLifeline  the hypercube lifeline neighbors only — no global random
  ///              probing — then park on them (Algo::kLifeline);
  ///   kSampling  a random sample of sample_frac of the other ranks, then a
  ///              steal from the rank at the `quantile` point of the
  ///              sampled loads, falling back down the sample on failed
  ///              attempts (Algo::kSampling).
  ///
  /// A failed cycle enters the termination barrier: the cancelable barrier
  /// after every cycle (§3.1, retrying when cancelled); the probe barrier
  /// only when every probed rank reported "no work at all" rather than
  /// "working, no surplus" (§3.3.1) — or always for lifeline, whose thieves
  /// wait parked in it for a victim's wake. Parking early is safe: the
  /// barrier count can only reach the membership target when every rank is
  /// idle with an empty stack, so termination stays exact and a missed
  /// wake costs latency, never correctness. Returns true with work on our
  /// stack, false on termination or drain.
  bool find_work() {
    if (n_ == 1) {
      // Single rank: out of work means done; still run the barrier protocol
      // once so its counters behave uniformly.
      return probe_term() ? barrier_probe() != 1 : !cancelable_barrier();
    }
    set_state(State::kSearching);
    const bool lifeline_sweep = sweep_ == VictimPolicy::kLifeline;
    for (;;) {
      if (drain_check()) return false;
      cancel_check();
      if (maybe_recover()) {
        // A cancelled rank still recovers (so no dead rank's work is ever
        // stranded) — the recovered nodes are then bled by do_work().
        publish_avail();
        set_state(State::kWorking);
        return true;
      }
      bool any_working = false;
      if (!cancelled_) {
        if (sweep_ == VictimPolicy::kRandom) shuffle_perm();
        sampled_.clear();
        for (int i = 0; i < sweep_len_; ++i) {
          const int v = sweep_victim(i);
          if (skip_victim(v)) continue;
          if (probe_term() && check_term_flag()) return false;
          const std::int64_t a = probe(v);
          if (a >= static_cast<std::int64_t>(k_)) {
            if (sweep_ == VictimPolicy::kSampling)
              sampled_.emplace_back(a, v);
            else if (try_steal(v))
              return true;
          } else if (a != kNoWorkAtAll) {
            any_working = true;  // working, just no surplus published yet
          }
          serve_and_yield();
        }
        // Sampling: steal from the quantile of the sampled loads; on a
        // failed attempt drop that victim and retry at the (re-evaluated)
        // quantile.
        while (!sampled_.empty()) {
          std::sort(sampled_.begin(), sampled_.end());
          const auto idx = std::min(
              sampled_.size() - 1,
              static_cast<std::size_t>(cfg_.quantile *
                                       static_cast<double>(sampled_.size())));
          if (try_steal(sampled_[idx].second)) return true;
          sampled_.erase(sampled_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
          serve_and_yield();
        }
        if (lifeline_sweep) park_lifelines();
      }
      if (!probe_term()) {
        if (cancelable_barrier()) return false;
        set_state(State::kSearching);
      } else if (!any_working || lifeline_sweep) {
        if (barrier_probe() == 1) return false;
        // Covers the recovery-leave path; the wake path already unparked.
        if (lifeline_sweep) unpark();
        set_state(State::kWorking);
        return true;
      }
    }
  }

  /// The i-th victim of this cycle's sweep.
  int sweep_victim(int i) {
    switch (sweep_) {
      case VictimPolicy::kLifeline: return me_ ^ (1 << lifeline_dims_[i]);
      case VictimPolicy::kSampling: {
        // Partial Fisher–Yates over perm_: draw the i-th of m distinct
        // victims right before probing it.
        std::uniform_int_distribution<int> pick(i, n_ - 2);
        std::swap(perm_[i], perm_[pick(ctx_.rng())]);
        break;
      }
      case VictimPolicy::kRandom: break;
    }
    return perm_[i];
  }

  /// Steal from `v`, which a probe showed holding a stealable chunk.
  bool try_steal(int v) {
    set_state(State::kStealing);
    if (attempt_steal(v)) {
      set_state(State::kWorking);
      return true;
    }
    set_state(State::kSearching);
    return false;
  }

  /// The end of every search step: stay responsive to thieves, then let
  /// other ranks run.
  void serve_and_yield() {
    if (lockless()) service_requests();
    ctx_.yield();
  }

  /// Crash-atomic count update for the cancelable barrier: the in_barrier
  /// mirror flag and the counter move together (pre-charged, no interaction
  /// point between). Caller holds cb_lock.
  void cb_set_count(int cnt, int flag) {
    if (!crash_mode_) {
      ctx_.put(g_.cb_count, cnt);
      return;
    }
    ctx_.charge_ref(0);
    board_->in_barrier(me_).store(flag, std::memory_order_release);
    g_.cb_count.unmediated().store(cnt, std::memory_order_release);
  }

  /// §3.1 cancelable barrier. Returns true when global termination was
  /// detected (count reached the membership target), false when cancelled
  /// by new work. Failure-aware: dead ranks are excluded from the target
  /// (their ghost entries — deaths while counted in — still count, which is
  /// sound because a rank can only die in-barrier with an empty stack), and
  /// waiters run the recovery sweep so a crashed rank's work re-enters the
  /// search instead of deadlocking the barrier.
  bool cancelable_barrier() {
    set_state(State::kTermination);
    ++st_.c.barrier_entries;
    {
      pgas::LockGuard guard(ctx_, g_.cb_lock);
      const int cnt = ctx_.get(g_.cb_count) + 1;
      cb_set_count(cnt, 1);
      if (term_satisfied(cnt)) ctx_.put(g_.cb_done, 1);
    }

    // Remote spin on the done/cancel flags (all owned by rank 0) — the
    // §3.1 cost center on distributed memory.
    for (;;) {
      cancel_check();  // flag-flip only; the barrier protocol is unchanged
      if (ctx_.get(g_.cb_done) != 0) break;
      if (ctx_.get(g_.cb_cancel) != 0) break;
      if (crash_mode_) {
        if (recovery_possible()) {
          // Leave the barrier first; the find-work cycle top performs the
          // actual salvage/replay once our +1 is withdrawn. If another
          // survivor wins the claim meanwhile, the pre-check goes false and
          // we simply re-enter.
          pgas::LockGuard guard(ctx_, g_.cb_lock);
          if (ctx_.get(g_.cb_done) == 0) {
            cb_set_count(ctx_.get(g_.cb_count) - 1, 0);
            return false;
          }
          break;  // termination already declared
        }
        // A death elsewhere may have lowered the target below the current
        // count; re-evaluate (cheap raw pre-check, confirmed under lock).
        if (term_satisfied(
                g_.cb_count.unmediated().load(std::memory_order_acquire))) {
          pgas::LockGuard guard(ctx_, g_.cb_lock);
          if (term_satisfied(ctx_.get(g_.cb_count))) ctx_.put(g_.cb_done, 1);
        }
      }
      serve_and_yield();
    }

    bool done = false;
    {
      pgas::LockGuard guard(ctx_, g_.cb_lock);
      done = ctx_.get(g_.cb_done) != 0;
      if (!done) {
        cb_set_count(ctx_.get(g_.cb_count) - 1, 0);
        ctx_.put(g_.cb_cancel, 0);
      }
    }
    return done;
  }

  /// §3.3.1 barrier with in-barrier probing of a single victim.
  /// Returns 1 on termination, 0 if work was stolen while waiting.
  /// Failure-aware: the entry target tracks live membership (plus ghost
  /// entries of ranks that died while counted in), waiters run the recovery
  /// sweep, and the termination condition is re-evaluated as deaths are
  /// detected.
  int barrier_probe() {
    set_state(State::kTermination);
    ++st_.c.barrier_entries;
    int cnt = bar_enter();
    if (term_satisfied(cnt)) {
      announce_termination();
      return 1;
    }
    std::uniform_int_distribution<int> pick(0, n_ - 2);
    for (;;) {
      cancel_check();
      if (check_term_flag()) return 1;
      if (crash_mode_) {
        if (recovery_possible()) {
          // Leave the barrier first; find_work()'s cycle top performs the
          // actual salvage/replay once our +1 is withdrawn.
          bar_leave();
          return 0;
        }
        ctx_.charge_ref(0);
        if (term_satisfied(
                g_.bar_count.unmediated().load(std::memory_order_acquire))) {
          announce_termination();
          return 1;
        }
        // The ref above also covers rank 0's announcement root. If
        // termination was declared but our flag never arrived — the tree
        // announcement can die with a crashed interior rank, or sit behind
        // a healing partition until every forwarder has exited — adopt it
        // straight from the root word and re-forward to our subtree.
        if (g_.term_root.unmediated().load(std::memory_order_acquire) != -1) {
          ctx_.put_local(g_.slots[me_].term_flag, 1);
          forward_announcement();
          return 1;
        }
      }
      // A cancelled waiter never steals from inside the barrier — it only
      // waits for the count/flag (or leaves to recover a dead rank's work).
      if (!cancelled_ && lifeline()) {
        // Parked lifeline thief: no in-barrier probing — poll only our own
        // park word (a cheap local read) for a victim's wake.
        const int w = ctx_.poll(g_.slots[me_].park);
        if (w >= 0) {
          // Leave the barrier *before* pulling so that bar_count reaching
          // the target really implies no thread holds or is acquiring
          // work. bug_drop_distress (checker self-test) drops exactly this
          // step: the woken thief's departure never reaches the barrier's
          // books, so it resumes working while its +1 still stands — the
          // next rank to go idle closes a false termination the
          // barrier-work oracle flags.
          const bool buggy = cfg_.bug_drop_distress;
          if (!buggy) bar_leave();
          unpark();
          set_state(State::kStealing);
          bool ok = false;
          if (!(skip_victim(w) || (crash_mode_ && ctx_.rank_dead(w))))
            ok = attempt_steal(w);
          if (ok) return 0;
          // Wake went stale (victim drained its surplus or died): re-park,
          // re-raise distress, and re-enter the barrier.
          set_state(State::kTermination);
          park_lifelines();
          if (!buggy) {
            cnt = bar_enter();
            if (term_satisfied(cnt)) {
              announce_termination();
              return 1;
            }
          }
        }
      } else if (!cancelled_) {
        const int v = perm_[pick(ctx_.rng())];
        const std::int64_t a = probe(v);
        if (a >= static_cast<std::int64_t>(k_)) {
          // Leave the barrier *before* stealing so that bar_count reaching
          // the target really implies no thread holds or is acquiring work.
          bar_leave();
          set_state(State::kStealing);
          if (attempt_steal(v)) return 0;
          set_state(State::kTermination);
          cnt = bar_enter();
          if (term_satisfied(cnt)) {
            announce_termination();
            return 1;
          }
        }
      }
      serve_and_yield();
    }
  }

  /// Local check of our own flag; on announcement, forward down the tree.
  bool check_term_flag() {
    if (ctx_.poll(g_.slots[me_].term_flag) == 0) return false;
    forward_announcement();
    return true;
  }

  /// §3.3.1: the last thread into the barrier launches a tree-based
  /// termination announcement rooted at itself.
  void announce_termination() {
    int expect = -1;
    ctx_.cas(g_.term_root, expect, me_);  // idempotent: first root wins
    ctx_.put_local(g_.slots[me_].term_flag, 1);
    forward_announcement();
  }

  /// Propagate the announcement to our children in the binomial tree
  /// rooted at term_root. In crash mode a dead child's subtree is adopted:
  /// we forward directly to its descendants so the announcement cannot be
  /// swallowed by a crashed interior node.
  void forward_announcement() {
    const int root = ctx_.get(g_.term_root);
    const int pos = (me_ - root + n_) % n_;
    fwd_.clear();
    fwd_.push_back(2 * pos + 1);
    fwd_.push_back(2 * pos + 2);
    while (!fwd_.empty()) {
      const int c = fwd_.back();
      fwd_.pop_back();
      if (c >= n_) continue;
      const int dst = (root + c) % n_;
      if (crash_mode_ && ctx_.rank_dead(dst)) {
        fwd_.push_back(2 * c + 1);
        fwd_.push_back(2 * c + 2);
        continue;
      }
      ctx_.put(g_.slots[dst].term_flag, 1);
    }
  }

  SharedState& g_;
  /// This cycle's victim order (see find_work()) and its length.
  const VictimPolicy sweep_;
  int sweep_len_ = 0;
  std::vector<std::byte> xfer_;
  std::vector<int> perm_;
  std::vector<int> fwd_;  // scratch for forward_announcement
  /// Hypercube dimensions this rank keeps lifelines across (kLifeline).
  std::vector<int> lifeline_dims_;
  /// Scratch for the sampling policy: (avail, rank) pairs of this cycle's
  /// sampled victims with stealable surplus.
  std::vector<std::pair<std::int64_t, int>> sampled_;
  std::size_t last_take_ = 0;  // nodes moved by the most recent steal
  /// Hardened only: current exponential-backoff delay after a steal timeout.
  std::uint64_t backoff_ns_ = 0;
};

}  // namespace

stats::ThreadStats run_upc_rank(pgas::Ctx& ctx, SharedState& g,
                                const Problem& prob, const WsConfig& cfg) {
  UpcWorker w(ctx, g, prob, cfg);
  return w.run();
}

}  // namespace upcws::ws
