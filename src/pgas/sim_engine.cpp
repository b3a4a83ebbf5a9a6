#include "pgas/sim_engine.hpp"

namespace upcws::pgas {

void SimCtx::charge_for(std::uint64_t ns, int op_owner) {
  if (dead_) return;  // a crashed rank's clock is frozen at its death
  // Zero-latency local ops (the free/shared-memory cost models return 0
  // for local references) change neither the clock nor the accumulated
  // quantum; skip the whole interaction bookkeeping. Only sound without
  // a fault plan: maybe_crash() below may owe a crash at this instant.
  if (ns == 0 && faults_ == nullptr) return;
  maybe_crash();
  sched_.advance(ns);
  // Causality bound: a fiber that charges a lot of virtual time without
  // reaching an explicit interaction point must not keep executing (its
  // stores would become visible to fibers far behind it in virtual
  // time). Once a quantum of charge accumulates, hand control back so the
  // scheduler can let the laggards catch up first.
  acc_ += ns;
  if (acc_ >= kChargeQuantumNs) {
    end_quantum();
    sched_.yield(op_owner);
  }
}

void SimCtx::end_quantum() {
  acc_ = 0;
  maybe_stall();
  if (obs_ != nullptr) obs_->on_tick(rank(), sched_.now(task_));
}

void SimCtx::yield() {
  if (dead_) return;
  maybe_crash();
  // A fault-plan stall lands at the interaction point — including inside
  // a critical section, which is exactly how a frozen lock holder is
  // modeled (the stalled rank's clock jumps; contenders spin behind it).
  maybe_stall();
  // Guarantee progress in virtual time on every interaction so that spin
  // loops cannot livelock the scheduler at a frozen clock.
  sched_.advance(net().poll_ns > 0 ? net().poll_ns : 1);
  acc_ = 0;
  if (obs_ != nullptr) obs_->on_tick(rank(), sched_.now(task_));
  sched_.yield();
}

void SimCtx::lock(Lock& l) {
  // One reference to reach the lock word; further spins each pay a
  // reference too (remote spinning is exactly what makes contended remote
  // locks so costly in UPC, paper §3.1/§3.3.3).
  // Cooperative fibers: no preemption between the check and the store, so
  // compare_exchange never spuriously races here — the spin models time,
  // not memory contention. Under crash injection the acquire attempt also
  // revokes a dead holder's expired lease, so a crashed lock holder stalls
  // contenders for at most detect latency + lease.
  if (try_lock(l)) return;
  const std::uint64_t wait_from = sched_.now(task_);
  do {
    sched_.yield();
    skip_spins(l);
  } while (!try_lock(l));
  if (obs_ != nullptr) {
    const std::uint64_t now = sched_.now(task_);
    obs_->on_lock_wait(rank(), now, now - wait_from);
  }
}

void SimCtx::maybe_stall() {
  if (faults_ == nullptr) return;
  const std::uint64_t t = sched_.now(task_);
  const std::uint64_t s = faults_->stall_due(t);
  if (s > 0) {
    sched_.advance(s);
    if (obs_ != nullptr) obs_->on_stall(rank(), t, s);
  }
}

RunResult SimEngine::run(const RunConfig& cfg,
                         const std::function<void(Ctx&)>& body) {
  const RunFaults faults(cfg);

  // Declared after the fault set-up on purpose: on abnormal teardown (time
  // limit, hang watchdog) ~Scheduler cancel-unwinds suspended fibers, and
  // destructors on those stacks may still charge time through a Ctx that
  // dereferences its injector.
  sim::Scheduler sched(scheduler_config(cfg));
  for (int r = 0; r < cfg.nranks; ++r) {
    sched.spawn([&, r] {
      SimCtx ctx(sched, r, r, cfg, faults);
      try {
        body(ctx);
      } catch (const RankCrashed&) {
        // Backstop for bodies that don't handle their own crash: the rank's
        // fiber simply ends here, its last words already on the liveness
        // board.
      }
    });
  }
  try {
    sched.run();
  } catch (...) {
    // The decision trail must survive abnormal exits (HangDetected,
    // TimeLimitExceeded, oracle violations thrown through the policy): a
    // schedule that *caused* the failure is exactly the one worth replaying.
    if (cfg.decision_trail != nullptr) *cfg.decision_trail = sched.decisions();
    throw;
  }
  if (cfg.decision_trail != nullptr) *cfg.decision_trail = sched.decisions();

  RunResult res;
  res.elapsed_s = static_cast<double>(sched.makespan_ns()) * 1e-9;
  res.switches = sched.switches();
  return res;
}

std::uint64_t SimEngine::lead_ns(const RunConfig& cfg) {
  if (cfg.schedule_policy != nullptr || cfg.faults.any() ||
      cfg.watchdog_ns > 0 || !cfg.remote_ops_mediated)
    return 0;
  return lookahead_ns(cfg.net, cfg.nranks, cfg.nranks);
}

sim::Scheduler::Config SimEngine::scheduler_config(const RunConfig& cfg) {
  sim::Scheduler::Config scfg;
  scfg.vt_limit_ns =
      cfg.vt_limit_ns != 0 ? cfg.vt_limit_ns : 10'000'000'000'000ull;
  scfg.stack_bytes = cfg.fiber_stack_bytes;
  scfg.watchdog_ns = cfg.watchdog_ns;
  scfg.hang_report = cfg.hang_reporter;
  scfg.policy = cfg.schedule_policy;
  scfg.policy_window_ns = cfg.schedule_window_ns;
  scfg.lead_ns = lead_ns(cfg);
  return scfg;
}

void SimCtx::skip_spins(const Lock& l) {
  // One fiber runs at a time, so while this rank's yields continue inline
  // the lock word, the liveness board and the lease stay as they are and
  // only its clock moves: each spin is a fixed charge, a failed attempt
  // and an inline yield. The scheduler accounts as many as its own guards
  // allow, capped here so every spin that would do more runs below: a
  // charge that draws randomness or records an event (jitter, spikes, a
  // partition to another rank), the charge that ends a quantum, one that
  // reaches the armed crash, and the attempt that may revoke a dead
  // holder's lock. On psim the same holds within a shard, whose stepping
  // bound stops the skip before the next event; a lock whose attempts psim
  // ships never reaches it, because each spin there costs at least the
  // lookahead plus a quantum, and the cap below declines every charge that
  // ends a quantum.
  if (dead_ || net().jitter_frac > 0.0) return;
  if (faults_ != nullptr &&
      (faults_->plan().spikes_enabled() ||
       (faults_->plan().partitions_enabled() && l.owner != rank())))
    return;
  const std::uint64_t c = net().ref_ns(rank(), l.owner);
  if (c == 0 || acc_ + c >= kChargeQuantumNs) return;
  const int holder = l.holder();
  if (holder == Lock::kFree) return;  // released while others ran
  // Spin i (from 1) charges at t + (i-1)c and attempts at t + ic.
  const std::uint64_t t = sched_.now(task_);
  std::uint64_t n = (kChargeQuantumNs - 1 - acc_) / c;
  if (faults_ != nullptr) {
    const std::uint64_t crash = faults_->crash_armed_ns(lock_depth_ > 0,
                                                        in_steal_);
    if (crash <= t) return;
    n = std::min(n, (crash - t - 1) / c + 1);
  }
  if (live_ != nullptr) {
    const std::uint64_t revoke = revocable_ns(l, holder);
    if (revoke <= t) return;
    n = std::min(n, (revoke - t - 1) / c);
  }
  acc_ += c * sched_.skip_inline_yields(c, n, 0);
}

void SimCtx::skip_idle_passes(std::uint64_t pass_ns, std::uint64_t until_ns,
                              std::uint64_t lead_ns) {
  // A pass is its polls, charged from a fresh quantum (the caller has just
  // yielded), and a yield that advances `step` and ticks. Without faults
  // and jitter nothing else in it can differ from pass to pass, so each
  // pass the caller would run next is this one again, as long as its reads
  // see nothing new. The caller's bounds see to that up to `until_ns`;
  // the scheduler's lead sees to it up to M + lead_ns. A pass whose polls
  // end a quantum holds one more yield and tick than this accounts.
  const std::uint64_t step = net().poll_ns > 0 ? net().poll_ns : 1;
  if (dead_ || faults_ != nullptr || net().jitter_frac > 0.0 || acc_ != 0 ||
      pass_ns < step || pass_ns - step >= kChargeQuantumNs ||
      lead_ns < pass_ns)
    return;
  const std::uint64_t t = sched_.now(task_);
  if (until_ns <= t) return;
  // Passes 1..n end by until_ns. The scheduler accounts the yields of all
  // but the last, each at the clock c the next pass starts at, while that
  // pass ends by M + lead_ns: c < M + (lead_ns - pass_ns + 1).
  const std::uint64_t n = (until_ns - t) / pass_ns;
  if (n < 2) return;
  const std::uint64_t k =
      sched_.skip_inline_yields(pass_ns, n - 1, lead_ns - pass_ns + 1);
  if (k == 0) return;
  if (obs_ != nullptr)
    for (std::uint64_t i = 1; i <= k; ++i)
      obs_->on_tick(rank(), t + i * pass_ns);
  // The last accounted pass: its polls, then its yield, for real, so the
  // pass after it runs at its own key in key order.
  sched_.advance(pass_ns - step);
  yield();
}

}  // namespace upcws::pgas
