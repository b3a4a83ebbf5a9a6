#include "psim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pgas/sim_engine.hpp"
#include "sim/scheduler.hpp"

namespace upcws::psim {
namespace {

/// Host clock for the Stats ledger, in ns.
std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rounds a waiter re-checks its condition, with a yield between checks,
/// before it blocks (65-80 us on a 4-vCPU host): a wait that ends within
/// them skips a futex sleep and wake-up. Yielding, not a pause spin: when
/// psim threads outnumber cores, a spinning waiter burns the time slice
/// the thread it waits for needs.
constexpr int kYieldRounds = 256;

/// The one wait psim's workers make: re-check `done` for kYieldRounds
/// yield() rounds, then call `block`, which returns once `done` holds.
template <class Done, class Block>
void yield_then_block(const Done& done, const Block& block) {
  for (int i = 0; i < kYieldRounds; ++i) {
    if (done()) return;
    std::this_thread::yield();
  }
  block();
}

/// The window barrier: the last of `n` arrivals runs the completion and
/// then opens the next generation, which the other arrivals wait for.
class WindowBarrier {
 public:
  explicit WindowBarrier(int n) : n_(n) {}

  template <class Completion>
  void arrive_and_wait(const Completion& completion) {
    // The generation cannot move before this thread's own arrival.
    const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
    // acq_rel: the last arrival acquires every earlier arrival's window.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      completion();
      gen_.store(gen + 1, std::memory_order_release);
      gen_.notify_all();
      return;
    }
    yield_then_block(
        [&] { return gen_.load(std::memory_order_acquire) != gen; },
        [&] { gen_.wait(gen, std::memory_order_acquire); });
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

/// A global (vt, rank) key or, relative to one shard, a (vt, local task)
/// key: local task t of a shard whose first rank is lo has global key
/// (vt, lo + t).
using Key = sim::ReadyQueue::Entry;

/// Below every task at its virtual time: Key{vt, kBeforeAll} bounds the
/// keys of earlier virtual times only.
constexpr int kBeforeAll = std::numeric_limits<int>::min();

/// A PGAS operation in flight from one rank to another rank's memory: the
/// raw-memory half of a mediated access, keyed at the sender's post-charge
/// slice instant and applied on the owner's shard. The OpRef references a
/// lambda in the sender fiber's frame; the sender is parked until after
/// the op is applied, so the frame stays alive.
struct Event {
  std::uint64_t vt = 0;    ///< global key, major: post-charge instant
  int rank = 0;            ///< global key, minor: sender's global rank
  int owner = 0;           ///< global rank whose memory `op` touches
  pgas::OpRef op;          ///< the access, run on the owner's worker
  int origin_shard = 0;    ///< where to deliver the wakeup
  int origin_task = 0;     ///< sender's local task id in its shard
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return a.vt != b.vt ? a.vt > b.vt : a.rank > b.rank;
  }
};

/// Immediate un-park of a sender whose event another shard has applied.
/// The wake cannot wait for the barrier: the sender resumes at the event's
/// own key, inside the window the event is applied in. The owner's worker
/// pushes the wake the moment it runs the op; the sender's shard takes it
/// from its own thread, between steps.
struct Wake {
  int task = 0;          ///< sender's local task id in its shard
  std::uint64_t vt = 0;  ///< resume key: the post-charge instant
};

struct WakeChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Wake> inbox;
  /// `inbox` is non-empty. Written under `mu`; the shard polls it without
  /// the lock between steps and before it blocks on `cv`.
  std::atomic<bool> ready{false};
};

struct Shard {
  int lo = 0;  ///< first global rank (inclusive)
  int hi = 0;  ///< last global rank (exclusive); local task id = rank - lo
  std::unique_ptr<sim::Scheduler> sched;
  /// Events addressed to this shard's ranks, merged by global key.
  std::priority_queue<Event, std::vector<Event>, EventAfter> pending;
  /// Cross-shard events shipped during a window, drained at the barrier
  /// (single writer: this shard's worker; single reader: the barrier
  /// completion). Indexed by target shard; an op on this shard's own ranks
  /// goes straight to `pending`.
  std::vector<std::vector<Event>> out_events;
  /// Cross-thread wake channel (behind a pointer: Shard must stay movable).
  std::unique_ptr<WakeChannel> wake;
  /// Wakes taken from the channel (swapped with its inbox, so neither
  /// vector gives up its capacity).
  std::vector<Wake> woken;
  std::exception_ptr error;
  /// Largest clock at which one of this shard's ranks reported progress
  /// (the watchdog's input: a maximum does not depend on the host order in
  /// which a shard runs its slices).
  std::uint64_t progress_ns = 0;
  /// Host-time ledger, written by this shard's worker only: time inside
  /// windows, the part of it spent waiting for a wake, and time from
  /// arriving at the barrier to leaving it.
  std::uint64_t window_ns = 0;
  std::uint64_t wake_wait_ns = 0;
  std::uint64_t barrier_ns = 0;
};

struct Runtime {
  std::vector<Shard> shards;
  std::vector<int> rank_shard;  ///< global rank -> shard index
  std::uint64_t lookahead = 0;
  std::uint64_t watchdog_ns = 0;
  /// A parked rank stalls only itself: every op on another rank's memory
  /// is an event at its owner, and the owner's shard runs its other ranks
  /// past the parked key. False when a shard holds two ranks of one SMP
  /// node, whose on-node references run inside a slice: there the shard
  /// stops at its earliest parked key and ops on its own ranks run inline.
  bool run_ahead = true;
  /// Window end B (exclusive): written by the barrier completion, read by
  /// all workers after the barrier (the barrier orders both).
  std::uint64_t bound = 0;
  /// Least key vt of a time-limit crossing any shard's scheduler holds
  /// (the run ends at the next barrier). Every shard still runs all slices
  /// at or below it, up to its own held crossing, so the crossing first in
  /// global key order is found whatever the host order.
  std::atomic<std::uint64_t> stop_vt{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<bool> stop{false};
  /// Set (with every wake CV notified) by a worker whose window threw, so
  /// shards waiting for a wake stop waiting for one that will never come
  /// and fall through to the barrier.
  std::atomic<bool> abort_windows{false};
  /// Once set, mediated ops execute inline (raw): destructors unwinding on
  /// cancelled fibers may touch remote state, and nobody would wake them.
  std::atomic<bool> tearing_down{false};
  bool hang = false;
  std::uint64_t hang_at = 0;   ///< global min vt when the watchdog fired
  std::uint64_t hang_prog = 0; ///< last global progress at that point
  std::uint64_t windows = 0;   ///< completed conservative windows
  std::uint64_t events = 0;    ///< cross-shard events delivered
  /// Window-telemetry sink (RunConfig::obs; may be null). Notified from the
  /// single-threaded barrier completion only — never from worker context.
  pgas::ObsSink* obs = nullptr;
  std::uint64_t win_begin = 0;   ///< virtual time the current window opened at
  std::uint64_t prev_events = 0; ///< rt.events at the previous barrier
  std::vector<std::uint64_t> prev_switches;  ///< per-shard switches, ditto
  std::uint64_t completion_ns = 0;  ///< host time in the barrier completion
  /// Serializes whole-shard cancel-unwinds: with mediation disabled the
  /// unwinding destructors access remote state raw.
  std::mutex teardown_mu;
};

/// psim's rank context: SimEngine's SimCtx on its shard's scheduler, so
/// clocks, RNG draws and interaction points are SimEngine's own code, plus
/// the mediation override that ships accesses to other ranks' memory —
/// shared words, lock words, bulk copies — to the owner.
class PsimCtx final : public pgas::SimCtx {
 public:
  // `faults` holds no liveness board here: crash and membership plans take
  // the sequential lane (their recovery paths read remote memory raw).
  PsimCtx(Runtime& rt, int shard_idx, int rank, const pgas::RunConfig& cfg,
          const pgas::RunFaults& faults)
      : SimCtx(*rt.shards[shard_idx].sched, rank - rt.shards[shard_idx].lo,
               rank, cfg, faults),
        rt_(rt),
        shard_(rt.shards[shard_idx]),
        shard_idx_(shard_idx) {}

  void mediated_op(int owner, std::uint64_t cost, pgas::OpRef op) override {
    // The rank's own memory, and a node-mate's when the shard runs in key
    // order (see Runtime::run_ahead), take the sequential path verbatim.
    // During teardown mediation is off (see Runtime::tearing_down).
    const int os = rt_.rank_shard[owner];
    if (owner == rank() || (os == shard_idx_ && !rt_.run_ahead) ||
        rt_.tearing_down.load(std::memory_order_acquire) || dead_) {
      charge(cost);
      op();
      return;
    }
    // The op must be shipped from *this* slice, not from the post-charge
    // slice — the current slice key is < the window bound by construction,
    // but the post-charge slice key can land past the bound, so that slice
    // may only run in a later window, after the owner shard has stepped
    // past the event's timestamp. The charge (>= lookahead + quantum)
    // always trips the quantum, so take charge()'s steps up to its yield —
    // crash check, advance, then the end-of-quantum step (reset, stall,
    // tick) — and ship the op keyed at the post-charge instant (past the
    // window bound, so it is never due in the window that ships it),
    // parking in place of the yield. The wake-resume after the owner
    // applies the op is the counted scheduling step the sequential
    // engine's yield would have taken, so switch totals stay identical.
    maybe_crash();
    sched_.advance(cost);
    end_quantum();
    const std::uint64_t key = sched_.now(task_);
    const Event e{key, rank(), owner, op, shard_idx_, task_};
    if (os == shard_idx_)
      shard_.pending.push(e);
    else
      shard_.out_events[os].push_back(e);
    sched_.park_current();
  }

 protected:
  void note_progress() override {
    shard_.progress_ns = std::max(shard_.progress_ns, sched_.now(task_));
  }

 private:
  Runtime& rt_;
  Shard& shard_;
  int shard_idx_;
};

/// Wake every shard that may be waiting on its channel: its condition
/// changed elsewhere. Locking each channel (empty critical section) before
/// notifying closes the race with a waiter that checked its predicate just
/// before the caller's store.
void release_waiters(Runtime& rt) {
  for (Shard& o : rt.shards) {
    { std::lock_guard<std::mutex> g(o.wake->mu); }
    o.wake->cv.notify_all();
  }
}

/// Re-queue the tasks whose wakes have landed on `s`'s channel.
void take_wakes(Shard& s) {
  {
    std::lock_guard<std::mutex> g(s.wake->mu);
    s.woken.swap(s.wake->inbox);
    s.wake->ready.store(false, std::memory_order_relaxed);
  }
  for (const Wake& w : s.woken) s.sched->wake(w.task, w.vt);
  s.woken.clear();
}

/// Apply the op at the top of shard `si`'s pending queue and un-park its
/// sender right away: the continuation resumes at this same key, in this
/// same window.
void apply_event(Runtime& rt, int si) {
  Shard& s = rt.shards[si];
  const Event e = s.pending.top();
  s.pending.pop();
  e.op();
  if (e.origin_shard == si) {
    s.sched->wake(e.origin_task, e.vt);
    return;
  }
  WakeChannel& ch = *rt.shards[e.origin_shard].wake;
  {
    std::lock_guard<std::mutex> g(ch.mu);
    ch.inbox.push_back({e.origin_task, e.vt});
    ch.ready.store(true, std::memory_order_release);
  }
  ch.cv.notify_one();
}

/// Lower the run's stop key to the slice key of `t`, the crossing a
/// shard's scheduler holds. The shard itself goes on: a parked task's
/// continuation below the crossing's key may cross first in key order.
void note_crossing(Runtime& rt, const sim::TimeLimitExceeded& t) {
  std::uint64_t cur = rt.stop_vt.load(std::memory_order_relaxed);
  while (t.slice_ns < cur)
    if (rt.stop_vt.compare_exchange_weak(cur, t.slice_ns,
                                         std::memory_order_acq_rel)) {
      release_waiters(rt);
      return;
    }
}

/// Wait until a wake lands on `s`'s channel, another shard's crossing
/// lowers the stop key below `stop`, or a peer's window throws. False in
/// the last case.
bool await_wake(Runtime& rt, Shard& s, std::uint64_t stop) {
  WakeChannel& ch = *s.wake;
  const auto woken = [&] {
    return ch.ready.load(std::memory_order_acquire) ||
           rt.stop_vt.load(std::memory_order_acquire) != stop ||
           rt.abort_windows.load(std::memory_order_acquire);
  };
  if (!woken()) {
    const std::uint64_t t0 = host_ns();
    yield_then_block(woken, [&] {
      std::unique_lock<std::mutex> lk(ch.mu);
      ch.cv.wait(lk, woken);
    });
    s.wake_wait_ns += host_ns() - t0;
  }
  return !rt.abort_windows.load(std::memory_order_acquire);
}

/// Execute one conservative window on shard `si`: its local slices, the
/// events addressed to its ranks and the continuations of its parked
/// tasks, below the window end — the bound, or just past the stop key once
/// a slice has crossed the time limit.
///
/// Local slices and events interleave in ascending global key order. A
/// parked task X waiting at key k for its shipped op stalls only itself:
/// the shard runs its other ranks' slices and applies events past k,
/// because nothing another rank runs below the bound can reach X's memory
/// (every op on it is an event, keyed at least one lookahead plus a
/// quantum after its sending slice). The shard waits for a wake only when
/// its next event addresses a rank parked at an earlier key, whose
/// continuation must touch that memory first, or when it reaches the end
/// with a parked key still below it. Without run-ahead (SMP nodes, see
/// Runtime::run_ahead) the shard stops at its earliest parked key.
///
/// Deadlock-free: every wait is for an event at a key strictly below
/// everything the waiting shard holds back (its next event and the local
/// slices after it, or nothing below the end). Take the smallest such key
/// over all waiting shards: its event sits on a shard that holds it back,
/// so that shard is not waiting — it would wait for a smaller key — and it
/// reaches the event. Events ship at the barrier before the window their
/// key falls in, because a post-charge key always lies past the end of the
/// window that shipped it.
void run_window(Runtime& rt, int si) {
  Shard& s = rt.shards[si];
  sim::Scheduler& sched = *s.sched;
  for (;;) {
    if (s.wake->ready.load(std::memory_order_acquire)) take_wakes(s);
    const std::uint64_t stop = rt.stop_vt.load(std::memory_order_acquire);
    const Key end{stop < rt.bound ? stop + 1 : rt.bound, kBeforeAll};
    const bool ev = !s.pending.empty() && s.pending.top().vt < end.vt;
    const Key ek = ev ? Key{s.pending.top().vt, s.pending.top().rank - s.lo}
                      : end;
    // Local slices run strictly below the next event (or the end), and
    // below the crossing the scheduler holds.
    const Key bound =
        rt.run_ahead ? ek : std::min(sched.earliest_parked(), ek);
    if (sched.step(bound.vt, bound.task)) {
      if (const sim::TimeLimitExceeded* t = sched.held())
        note_crossing(rt, *t);
      continue;
    }
    if (ev) {
      // A parked continuation that must run before the event: its owner's
      // (or, without run-ahead, any parked task's).
      const int owner = s.pending.top().owner - s.lo;
      const bool parked_first =
          rt.run_ahead ? sched.is_parked(owner) &&
                             Key{sched.now(owner), owner} < ek
                       : bound < ek;
      if (!parked_first) {
        apply_event(rt, si);
        continue;
      }
    } else if (!(sched.earliest_parked() < end)) {
      return;
    }
    if (!await_wake(rt, s, stop)) return;  // a peer shard's window threw
  }
}

/// Barrier completion: runs single-threaded while every worker waits at the
/// window barrier — the only place cross-shard state moves.
void close_window(Runtime& rt) {
  // 1. Deliver events shipped during the window.
  ++rt.windows;
  for (Shard& s : rt.shards)
    for (std::size_t t = 0; t < s.out_events.size(); ++t) {
      rt.events += s.out_events[t].size();
      for (Event& e : s.out_events[t]) rt.shards[t].pending.push(e);
      s.out_events[t].clear();
    }
  // Window telemetry: report the window that just closed (even when the
  // run is about to stop below, so per-window sums match the run totals).
  // Pure observation from single-threaded context; sinks must not throw.
  if (rt.obs != nullptr) {
    pgas::ObsSink::PsimWindow w;
    w.index = rt.windows - 1;
    w.begin_ns = rt.win_begin;
    w.end_ns = rt.bound;
    w.events = rt.events - rt.prev_events;
    w.shards = static_cast<int>(rt.shards.size());
    for (std::size_t i = 0; i < rt.shards.size(); ++i) {
      const std::uint64_t sw =
          rt.shards[i].sched->switches() - rt.prev_switches[i];
      if (i == 0 || sw < w.min_shard_switches) w.min_shard_switches = sw;
      if (i == 0 || sw > w.max_shard_switches) w.max_shard_switches = sw;
      rt.prev_switches[i] += sw;
    }
    rt.obs->on_psim_window(w);
  }
  rt.prev_events = rt.events;
  // 2. A shard error or time-limit crossing ends the run (deterministic:
  // each shard's window content is a pure function of the bound and its
  // delivered events).
  for (const Shard& s : rt.shards)
    if (s.error || s.sched->held()) {
      rt.tearing_down.store(true, std::memory_order_release);
      rt.stop.store(true, std::memory_order_release);
      return;
    }
  // 3. Global minimum pending key over ready slices and queued events.
  // Parked senders are always represented: their event sits in some
  // shard's pending queue until applied, after which the immediate wake
  // has already re-queued them at the same key.
  bool any = false;
  std::uint64_t mvt = 0;
  for (const Shard& s : rt.shards) {
    if (const auto e = s.sched->peek()) {
      if (!any || e->vt < mvt) mvt = e->vt;
      any = true;
    }
    if (!s.pending.empty()) {
      if (!any || s.pending.top().vt < mvt) mvt = s.pending.top().vt;
      any = true;
    }
  }
  if (!any) {  // every fiber finished: normal completion
    rt.tearing_down.store(true, std::memory_order_release);
    rt.stop.store(true, std::memory_order_release);
    return;
  }
  // 4. Global progress watchdog (the condition the sequential run loop
  // checks before each pop, evaluated once per window on the latest
  // progress clock).
  if (rt.watchdog_ns > 0) {
    std::uint64_t prog = 0;
    for (const Shard& s : rt.shards) prog = std::max(prog, s.progress_ns);
    if (mvt > prog && mvt - prog > rt.watchdog_ns) {
      rt.hang = true;
      rt.hang_at = mvt;
      rt.hang_prog = prog;
      rt.tearing_down.store(true, std::memory_order_release);
      rt.stop.store(true, std::memory_order_release);
      return;
    }
  }
  // 5. Next window.
  rt.win_begin = mvt;
  rt.bound = mvt + rt.lookahead;
}

}  // namespace

PsimEngine::PsimEngine(int workers) : workers_(workers) {
  if (workers_ <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers_ = hc > 0 ? static_cast<int>(hc) : 1;
  }
}

const char* PsimEngine::fallback_reason(const pgas::RunConfig& cfg,
                                        int workers) {
  if (std::min(workers, cfg.nranks) < 2) return "too-few-lanes";
  // Sharding is only sound when the SPMD body promises that every
  // cross-rank memory access goes through the mediated Ctx surface.
  if (!cfg.remote_ops_mediated) return "unmediated";
  // Schedule-exploration hooks need the single global ready set.
  if (cfg.schedule_policy != nullptr) return "schedule-policy";
  // Crash / membership recovery paths (salvage, lock revocation) read a
  // dead rank's memory raw by design — sequential lane.
  if (cfg.faults.crashes_enabled()) return "crash-plan";
  if (cfg.faults.membership_enabled()) return "membership-plan";
  if (pgas::lookahead_ns(cfg.net, cfg.nranks, workers) == 0)
    return "zero-lookahead";
  return nullptr;
}

pgas::RunResult PsimEngine::run(const pgas::RunConfig& cfg,
                                const std::function<void(pgas::Ctx&)>& body) {
  stats_ = Stats{};
  if (const char* reason = fallback_reason(cfg, workers_)) {
    // Sequential lane: byte-identical by construction. Name the reason to
    // the sink first so fallbacks are attributable, not silent.
    if (cfg.obs != nullptr) cfg.obs->on_psim_fallback(reason);
    return pgas::SimEngine{}.run(cfg, body);
  }
  const int W = std::min(workers_, cfg.nranks);

  sim::Scheduler::Config scfg = pgas::SimEngine::scheduler_config(cfg);
  // The watchdog is a *global* condition (min pending key vs last global
  // progress); it is checked at the window barrier, not per shard. Shards
  // keep the min-vt order (docs/simulator.md, "Run-ahead on SimEngine").
  scfg.watchdog_ns = 0;
  scfg.lead_ns = 0;

  const pgas::RunFaults faults(cfg);

  Runtime rt;
  rt.lookahead = pgas::lookahead_ns(cfg.net, cfg.nranks, W);
  rt.watchdog_ns = cfg.watchdog_ns;
  rt.bound = rt.lookahead;  // first window: global min key is (0, 0)
  rt.obs = cfg.obs;
  rt.prev_switches.assign(static_cast<std::size_t>(W), 0);
  rt.rank_shard.resize(cfg.nranks);
  rt.shards.resize(W);
  {
    const int base = cfg.nranks / W, rem = cfg.nranks % W;
    int lo = 0;
    for (int i = 0; i < W; ++i) {
      Shard& s = rt.shards[i];
      s.lo = lo;
      s.hi = lo + base + (i < rem ? 1 : 0);
      lo = s.hi;
      s.sched = std::make_unique<sim::Scheduler>(scfg);
      s.out_events.resize(W);
      s.wake = std::make_unique<WakeChannel>();
      for (int r = s.lo; r < s.hi; ++r) {
        rt.rank_shard[r] = i;
        // SMP nodes are contiguous rank blocks.
        if (r > s.lo && cfg.net.same_node(r - 1, r)) rt.run_ahead = false;
      }
    }
  }
  for (int i = 0; i < W; ++i) {
    Shard& s = rt.shards[i];
    for (int r = s.lo; r < s.hi; ++r) {
      s.sched->spawn([&rt, &cfg, &body, &faults, i, r] {
        PsimCtx ctx(rt, i, r, cfg, faults);
        try {
          body(ctx);
        } catch (const pgas::RankCrashed&) {
          // Backstop (crashes take the sequential lane; see eligibility).
        }
      });
    }
  }

  auto completion = [&rt]() noexcept {
    const std::uint64_t t0 = host_ns();
    close_window(rt);
    rt.completion_ns += host_ns() - t0;
  };
  WindowBarrier bar(W);

  auto worker = [&rt, &bar, &completion](int wi) {
    Shard& s = rt.shards[wi];
    s.sched->begin_stepping();
    std::uint64_t t = host_ns();
    for (;;) {
      try {
        run_window(rt, wi);
      } catch (...) {
        s.error = std::current_exception();
        // Peer shards may be waiting for a wake this shard will never
        // send — release them.
        rt.abort_windows.store(true, std::memory_order_release);
        release_waiters(rt);
      }
      const std::uint64_t arrived = host_ns();
      s.window_ns += arrived - t;
      bar.arrive_and_wait(completion);
      t = host_ns();
      s.barrier_ns += t - arrived;
      if (rt.stop.load(std::memory_order_acquire)) break;
    }
    // Teardown on the thread that ran the fibers (fiber stacks and
    // sanitizer state have thread affinity). Mediation is off by now, so
    // unwinding destructors touch remote state raw — serialize shards.
    std::lock_guard<std::mutex> g(rt.teardown_mu);
    s.sched->end_stepping();
    s.sched->cancel_unfinished();
  };

  std::vector<std::thread> threads;
  threads.reserve(W);
  for (int i = 0; i < W; ++i) threads.emplace_back(worker, i);
  for (std::thread& t : threads) t.join();

  stats_.windows = rt.windows;
  stats_.events = rt.events;
  // The completing worker's barrier interval contains the completion,
  // which the ledger counts once, on its own.
  for (const Shard& s : rt.shards) {
    stats_.busy_ns += s.window_ns - s.wake_wait_ns;
    stats_.wake_wait_ns += s.wake_wait_ns;
    stats_.barrier_wait_ns += s.barrier_ns;
  }
  stats_.barrier_wait_ns -= rt.completion_ns;
  stats_.completion_ns = rt.completion_ns;

  if (cfg.decision_trail != nullptr) cfg.decision_trail->clear();

  if (rt.hang)
    throw sim::HangDetected(
        sim::HangDetected::headline(rt.watchdog_ns, rt.hang_prog,
                                    rt.hang_at) +
            "note: parallel engine — per-task state is post-teardown\n" +
            (cfg.hang_reporter ? cfg.hang_reporter() : std::string()),
        rt.watchdog_ns, rt.hang_prog, rt.hang_at);
  // Deterministic rethrow. A time-limit crossing first: every shard ran all
  // slices up to the earliest crossing's key, so the earliest in global
  // (slice key, rank) order is the slice the sequential run loop throws at.
  const sim::TimeLimitExceeded* first = nullptr;
  Key first_key = sim::Scheduler::kNoKey;
  for (const Shard& s : rt.shards)
    if (const sim::TimeLimitExceeded* t = s.sched->held())
      if (const Key k{t->slice_ns, s.lo + t->task}; k < first_key) {
        first = t;
        first_key = k;
      }
  if (first != nullptr)
    throw sim::TimeLimitExceeded(first_key.task, first->clock_ns,
                                 first->limit_ns, first->slice_ns);
  for (const Shard& s : rt.shards)
    if (s.error) std::rethrow_exception(s.error);

  pgas::RunResult res;
  std::uint64_t makespan = 0, switches = 0;
  for (const Shard& s : rt.shards) {
    makespan = std::max(makespan, s.sched->makespan_ns());
    switches += s.sched->switches();
  }
  res.elapsed_s = static_cast<double>(makespan) * 1e-9;
  res.switches = switches;
  return res;
}

}  // namespace upcws::psim
