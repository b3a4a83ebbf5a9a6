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
#include <set>
#include <sstream>
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

/// A cross-shard PGAS operation in flight: the raw-memory half of a
/// mediated access, keyed at the sender's post-charge slice instant. The
/// OpRef references a lambda in the sender fiber's frame; the sender is
/// parked until after the op is applied, so the frame stays alive.
struct Event {
  std::uint64_t vt = 0;    ///< global key, major: post-charge instant
  int rank = 0;            ///< global key, minor: sender's global rank
  pgas::OpRef op;          ///< the access, run on the owner's worker
  int origin_shard = 0;    ///< where to deliver the wakeup
  int origin_task = 0;     ///< sender's local task id in its shard
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return a.vt != b.vt ? a.vt > b.vt : a.rank > b.rank;
  }
};

/// Immediate un-park of a sender whose event has been applied. The wake
/// cannot wait for the barrier: the sender resumes at the event's own key,
/// *inside* the window the event is applied in, and its continuation must
/// interleave ahead of every later local slice in the sender's shard. The
/// owner's worker pushes the wake the moment it runs the op; the sender's
/// shard drains it from its own thread (or the barrier completion does,
/// when the sender's shard had already finished its window).
struct Wake {
  int task = 0;          ///< sender's local task id in its shard
  std::uint64_t vt = 0;  ///< resume key: the post-charge instant
};

struct WakeChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Wake> inbox;
  /// `inbox` is non-empty. Written under `mu`; the waiter polls it without
  /// the lock before it blocks on `cv`.
  std::atomic<bool> ready{false};
};

struct Shard {
  int lo = 0;  ///< first global rank (inclusive)
  int hi = 0;  ///< last global rank (exclusive); local task id = rank - lo
  std::unique_ptr<sim::Scheduler> sched;
  /// Cross-shard events addressed to this shard, merged by global key.
  std::priority_queue<Event, std::vector<Event>, EventAfter> pending;
  /// Outboxes filled during a window, drained at the barrier (single
  /// writer: this shard's worker; single reader: the barrier completion).
  std::vector<std::vector<Event>> out_events;  // indexed by target shard
  /// Resume keys (vt, local task) of this shard's parked tasks, in global
  /// key order (vt major, and local task order == global rank order).
  /// Touched only by this shard's worker and the barrier completion.
  std::set<std::pair<std::uint64_t, int>> parked_keys;
  /// Cross-thread wake channel (behind a pointer: Shard must stay movable).
  std::unique_ptr<WakeChannel> wake;
  std::exception_ptr error;
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
  /// Window end B (exclusive): written by the barrier completion, read by
  /// all workers after the barrier (the barrier orders both).
  std::uint64_t bound = 0;
  std::atomic<bool> stop{false};
  /// Set (with every wake CV notified) by a worker whose window threw, so
  /// shards blocked at a parked key stop waiting for a wake that will never
  /// come and fall through to the barrier.
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
/// the mediation override that ships cross-shard accesses to the owner's
/// worker. Locks are only safe intra-shard (the lock word is accessed raw);
/// no parallel-eligible protocol uses them — the locked family is routed to
/// the sequential lane by ws::run_search's mediation promise.
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
    // Same-shard accesses take the sequential path verbatim: the shard is
    // single-threaded and its slices execute in key order, exactly like the
    // sequential engine. During teardown mediation is off (see
    // Runtime::tearing_down).
    if (rt_.rank_shard[owner] == shard_idx_ ||
        rt_.tearing_down.load(std::memory_order_acquire) || dead_) {
      charge(cost);
      op();
      return;
    }
    // Cross-shard: the op must be shipped from *this* slice, not from the
    // post-charge slice — the current slice key is < the window bound by
    // construction, but the post-charge slice key can land past the bound,
    // so that slice may only run in a later window, after the owner shard
    // has stepped past the event's timestamp (the event would arrive at the
    // barrier one window late). The charge (>= lookahead + quantum) always
    // trips the quantum, so take charge()'s steps up to its yield — crash
    // check, advance, then the end-of-quantum step (reset, stall, tick) —
    // and ship the op keyed at the post-charge instant (>= window bound, so
    // barrier delivery is always in time), parking in place of the yield.
    // The wake-resume after the owner applies the op is the counted
    // scheduling step the sequential engine's yield would have taken, so
    // switch totals stay identical.
    maybe_crash();
    sched_.advance(cost);
    end_quantum();
    const std::uint64_t key = sched_.now(task_);
    shard_.parked_keys.insert({key, task_});
    shard_.out_events[rt_.rank_shard[owner]].push_back(
        Event{key, rank(), op, shard_idx_, task_});
    sched_.park_current();
  }

 private:
  Runtime& rt_;
  Shard& shard_;
  int shard_idx_;
};

/// Execute one conservative window on one shard: local slices, pending
/// cross-shard events, and parked-task resumptions interleaved in ascending
/// global (vt, rank) order, strictly below `bound`. A parked task whose
/// resume key falls inside the window blocks the shard at that key until
/// the owner shard applies its event and delivers the wake: the sender's
/// continuation must run at exactly its key, ahead of every later local
/// slice. Deadlock-free: among all shards blocked at a parked key, the one
/// with the globally smallest key waits on an owner that cannot itself be
/// blocked at a smaller key (that key would be the smaller blocked one) and
/// whose pending queue already holds the event (events ship at the barrier
/// before the window their key falls in, because a post-charge key always
/// lies past the end of the window that shipped it).
void run_window(Runtime& rt, Shard& s, std::uint64_t bound) {
  constexpr int kBeforeAll = std::numeric_limits<int>::min();
  sim::Scheduler& sched = *s.sched;
  for (;;) {
    // Next external obligation below the window end: the earlier of the
    // next pending event and the earliest parked resume key (never equal —
    // an event carries a remote sender's rank, a park a local one).
    bool ev = !s.pending.empty() && s.pending.top().vt < bound;
    bool pk = !s.parked_keys.empty() && s.parked_keys.begin()->first < bound;
    if (ev && pk) {
      const auto& p = *s.parked_keys.begin();
      const Event& e = s.pending.top();
      if (p.first < e.vt || (p.first == e.vt && s.lo + p.second < e.rank))
        ev = false;
      else
        pk = false;
    }
    // Step local slices strictly below the obligation's global key (local
    // slice (vt, task) has global key (vt, lo + task)), or below the
    // window end when none is due.
    const std::uint64_t bvt = ev   ? s.pending.top().vt
                              : pk ? s.parked_keys.begin()->first
                                   : bound;
    const int btask = ev   ? s.pending.top().rank - s.lo
                      : pk ? s.parked_keys.begin()->second
                           : kBeforeAll;
    if (sched.step(bvt, btask)) continue;
    if (ev) {
      // Apply the op at its global key and un-park the sender right away —
      // its continuation resumes at this same key, in this same window.
      const Event e = s.pending.top();
      s.pending.pop();
      e.op();
      Shard& os = rt.shards[e.origin_shard];
      {
        std::lock_guard<std::mutex> g(os.wake->mu);
        os.wake->inbox.push_back({e.origin_task, e.vt});
        os.wake->ready.store(true, std::memory_order_release);
      }
      os.wake->cv.notify_one();
      continue;
    }
    if (pk) {
      WakeChannel& ch = *s.wake;
      const auto woken = [&] {
        return ch.ready.load(std::memory_order_acquire) ||
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
      std::vector<Wake> in;
      {
        std::lock_guard<std::mutex> g(ch.mu);
        in.swap(ch.inbox);
        ch.ready.store(false, std::memory_order_relaxed);
      }
      if (in.empty()) return;  // aborted: a peer shard's window threw
      for (const Wake& w : in) {
        sched.wake(w.task, w.vt);
        s.parked_keys.erase({w.vt, w.task});
      }
      continue;
    }
    return;
  }
}

/// Barrier completion: runs single-threaded while every worker waits at the
/// window barrier — the only place cross-shard state moves.
void close_window(Runtime& rt) {
  // 1. Drain wakes that landed after their shard had already finished its
  // window (the sender's worker was past its drain point; every worker is
  // now in arrive_and_wait, so touching peer shard state is safe).
  for (Shard& s : rt.shards) {
    std::lock_guard<std::mutex> g(s.wake->mu);
    for (const Wake& w : s.wake->inbox) {
      s.sched->wake(w.task, w.vt);
      s.parked_keys.erase({w.vt, w.task});
    }
    s.wake->inbox.clear();
    s.wake->ready.store(false, std::memory_order_relaxed);
  }
  // 2. Deliver events shipped during the window.
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
  // 3. A shard error ends the run (deterministic: each shard's window
  // content is a pure function of the bound and its delivered events).
  for (const Shard& s : rt.shards)
    if (s.error) {
      rt.tearing_down.store(true, std::memory_order_release);
      rt.stop.store(true, std::memory_order_release);
      return;
    }
  // 4. Global minimum pending key over ready slices and queued events.
  // Parked senders are always represented: their event sits in some
  // shard's pending queue until applied, after which the immediate wake
  // (or step 1 above) has already re-queued them at the same key.
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
  // 5. Global progress watchdog (same condition the sequential run loop
  // checks before each pop, evaluated once per window).
  if (rt.watchdog_ns > 0) {
    std::uint64_t prog = 0;
    for (const Shard& s : rt.shards)
      prog = std::max(prog, s.sched->progress_ns());
    if (mvt > prog && mvt - prog > rt.watchdog_ns) {
      rt.hang = true;
      rt.hang_at = mvt;
      rt.hang_prog = prog;
      rt.tearing_down.store(true, std::memory_order_release);
      rt.stop.store(true, std::memory_order_release);
      return;
    }
  }
  // 6. Next window.
  rt.win_begin = mvt;
  rt.bound = mvt + rt.lookahead;
}

std::string hang_report(const Runtime& rt, const pgas::RunConfig& cfg) {
  std::ostringstream os;
  os << "progress watchdog: no rank made node-count progress for "
     << (rt.hang_at - rt.hang_prog) << " virtual ns (window "
     << rt.watchdog_ns << " ns; last progress at vt=" << rt.hang_prog
     << " ns, stuck at vt=" << rt.hang_at << " ns)\n";
  os << "note: parallel engine — per-task state is post-teardown\n";
  if (cfg.hang_reporter) os << cfg.hang_reporter();
  return os.str();
}

}  // namespace

PsimEngine::PsimEngine(int workers) : workers_(workers) {
  if (workers_ <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers_ = hc > 0 ? static_cast<int>(hc) : 1;
  }
}

std::uint64_t PsimEngine::lookahead_ns(const pgas::NetModel& net, int nranks,
                                       int workers) {
  const int W = std::min(workers, nranks);
  if (W < 2) return 0;
  // Shards and SMP nodes are both contiguous rank blocks, so the cheapest
  // cross-shard reference is on_node_ref_ns exactly when some shard
  // boundary splits a node, remote_ref_ns otherwise.
  std::uint64_t m = net.remote_ref_ns;
  const int base = nranks / W, rem = nranks % W;
  int lo = 0;
  for (int i = 0; i + 1 < W; ++i) {
    lo += base + (i < rem ? 1 : 0);
    if (lo < nranks && net.same_node(lo - 1, lo))
      m = std::min(m, net.on_node_ref_ns);
  }
  return m > pgas::kChargeQuantumNs ? m - pgas::kChargeQuantumNs : 0;
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
  if (lookahead_ns(cfg.net, cfg.nranks, workers) == 0) return "zero-lookahead";
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

  sim::Scheduler::Config scfg;
  scfg.vt_limit_ns =
      cfg.vt_limit_ns != 0 ? cfg.vt_limit_ns : 10'000'000'000'000ull;
  scfg.stack_bytes = cfg.fiber_stack_bytes;
  // The watchdog is a *global* condition (min pending key vs last global
  // progress); it is checked at the window barrier, not per shard.
  scfg.watchdog_ns = 0;

  const pgas::RunFaults faults(cfg);

  Runtime rt;
  rt.lookahead = lookahead_ns(cfg.net, cfg.nranks, W);
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
      for (int r = s.lo; r < s.hi; ++r) rt.rank_shard[r] = i;
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
        run_window(rt, s, rt.bound);
      } catch (...) {
        s.error = std::current_exception();
        // Peer shards may be blocked at a parked key waiting for a wake
        // this shard will never send — release them. Locking the channel
        // (empty critical section) before notifying closes the race with a
        // waiter that checked the predicate just before the store above.
        rt.abort_windows.store(true, std::memory_order_release);
        for (Shard& o : rt.shards) {
          { std::lock_guard<std::mutex> g(o.wake->mu); }
          o.wake->cv.notify_all();
        }
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

  // Deterministic rethrow: the error *set* is deterministic (window
  // contents are), so a fixed selection rule gives a deterministic abort.
  if (rt.hang)
    throw sim::HangDetected(hang_report(rt, cfg), rt.watchdog_ns,
                            rt.hang_prog, rt.hang_at);
  std::exception_ptr other_err;
  bool have_tle = false;
  std::uint64_t tle_clock = 0, tle_limit = 0;
  int tle_rank = 0;
  for (const Shard& s : rt.shards) {
    if (!s.error) continue;
    try {
      std::rethrow_exception(s.error);
    } catch (const sim::TimeLimitExceeded& t) {
      // Pick the offender earliest in global (clock, rank) order — the one
      // the sequential run loop would have tripped on first. The shard
      // threw with its local task id; report the global rank.
      const int rank = t.task + s.lo;
      if (!have_tle || t.clock_ns < tle_clock ||
          (t.clock_ns == tle_clock && rank < tle_rank)) {
        have_tle = true;
        tle_clock = t.clock_ns;
        tle_limit = t.limit_ns;
        tle_rank = rank;
      }
    } catch (...) {
      if (!other_err) other_err = s.error;
    }
  }
  if (have_tle) throw sim::TimeLimitExceeded(tle_rank, tle_clock, tle_limit);
  if (other_err) std::rethrow_exception(other_err);

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
