#include "sim/scheduler.hpp"

#include <algorithm>
#include <sstream>

namespace upcws::sim {

namespace {
thread_local Scheduler* g_current_scheduler = nullptr;

std::string time_limit_msg(int task, std::uint64_t clock_ns,
                           std::uint64_t limit_ns) {
  std::ostringstream os;
  os << "simulated virtual time limit exceeded: rank " << task << " at vt="
     << clock_ns << " ns (limit " << limit_ns << " ns)";
  return os.str();
}
}  // namespace

TimeLimitExceeded::TimeLimitExceeded(int task, std::uint64_t clock_ns,
                                     std::uint64_t limit_ns,
                                     std::uint64_t slice_ns)
    : std::runtime_error(time_limit_msg(task, clock_ns, limit_ns)),
      task(task),
      clock_ns(clock_ns),
      limit_ns(limit_ns),
      slice_ns(slice_ns) {}

Scheduler::Scheduler(Config cfg) : cfg_(cfg) {}

Scheduler::~Scheduler() { unwind_all(); }

void Scheduler::unwind_all() {
  // Abnormal teardown (time limit, hang watchdog): suspended fibers still
  // hold live objects on their stacks. Cancel each so destructors run.
  // current_ tracks the fiber being unwound — destructors may legitimately
  // charge time or query now() on the way out.
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->started() || fibers_[i]->finished()) continue;
    current_ = static_cast<int>(i);
    fibers_[i]->cancel();
  }
  current_ = -1;
}

int Scheduler::spawn(std::function<void()> body) {
  if (running_) throw std::logic_error("spawn() during run()");
  const int id = static_cast<int>(fibers_.size());
  fibers_.push_back(std::make_unique<Fiber>(std::move(body), cfg_.stack_bytes));
  clocks_.push_back(0);
  parked_.push_back(false);
  pending_ops_.push_back(0);
  rq_.push(0, id);
  return id;
}

Scheduler& Scheduler::current() {
  if (g_current_scheduler == nullptr)
    throw std::logic_error("Scheduler::current() outside run()");
  return *g_current_scheduler;
}

void Scheduler::yield(int op_owner) {
  // A policy must see every interaction point as a scheduling decision, so
  // policy runs always switch back to their loop; outside run()/stepping
  // (cancel-unwind teardown) Fiber::yield_current owns the semantics.
  const int cur = current_;
  if (!running_ || cfg_.policy != nullptr || cur < 0)
    return Fiber::yield_current();
  // The loop would re-queue the caller and resume the minimum: `next`.
  const ReadyQueue::Entry self{clocks_[cur], cur};
  const ReadyQueue::Entry next =
      rq_.empty() || self < rq_.top() ? self : rq_.top();
  // A crossing (caller) is held, and HangDetected (next) thrown, from
  // scheduler context, and `next` may only run below the bound — a held
  // crossing's key or, in stepping mode, the conservative-window horizon or
  // the next pending external event, which must interleave at its exact
  // (vt, task) key.
  // Otherwise hand the step to `next` directly, counted exactly as the
  // loop would count it: switch counts are deterministic engine output.
  if (self.vt > cfg_.vt_limit_ns || hang_due(next.vt) || !(next < bound_))
    return Fiber::yield_current();
  ++switches_;
  slice_vt_ = next.vt;
  if (next.task == cur) return;  // still the minimum: continue inline
  if (cfg_.lead_ns > 0) return yield_ahead(self, next, op_owner);
  rq_.push_pop(self.vt, cur);
  current_ = next.task;
  Fiber::switch_to(*fibers_[next.task]);
}

void Scheduler::yield_ahead(ReadyQueue::Entry self, ReadyQueue::Entry next,
                            int op_owner) {
  // Nothing keyed below M + lead can reach the caller's next slice, unless
  // a suspended task's op on its memory lands first (docs/simulator.md,
  // "Run-ahead on SimEngine"). self lies past the head: self.vt >= next.vt.
  const int cur = self.task;
  if (op_owner < 0 && pending_ops_[cur] == 0 &&
      self.vt - next.vt < cfg_.lead_ns && self < bound_) {
    slice_vt_ = self.vt;
    return;
  }
  rq_.push_pop(self.vt, cur);
  current_ = next.task;
  if (op_owner < 0) return Fiber::switch_to(*fibers_[next.task]);
  // The op lands when the caller resumes; until then its owner waits.
  ++pending_ops_[op_owner];
  Fiber::switch_to(*fibers_[next.task]);
  --pending_ops_[op_owner];
}

void Scheduler::requeue_current() {
  const int t = current_;
  if (clocks_[t] > cfg_.vt_limit_ns) {
    // A slice that ran ahead, or a parked task's continuation, may still
    // cross at a lower key. Hold the crossing and bound the run at its
    // key. The slice began below the bound, which is at or below any held
    // crossing, so this one is the earliest yet.
    held_.emplace(t, clocks_[t], cfg_.vt_limit_ns, slice_vt_);
    bound_ = {slice_vt_, t};
    return;
  }
  if (!fibers_[t]->finished() && !parked_[t]) rq_.push(clocks_[t], t);
}

void Scheduler::run() {
  running_ = true;
  Scheduler* prev = g_current_scheduler;
  g_current_scheduler = this;
  const auto leave = [&] {
    g_current_scheduler = prev;
    current_ = -1;
    running_ = false;
  };
  try {
    if (cfg_.policy != nullptr) {
      run_policy();
    } else {
      // Without a lead nothing lies below a crossing: it throws at once.
      while (step(kNoKey.vt, kNoKey.task)) {
      }
      if (held_) throw *held_;
    }
  } catch (...) {
    leave();
    throw;
  }
  leave();
}

void Scheduler::run_policy() {
  // Exploration mode: the runnable set lives in a plain vector so the policy
  // can be offered every eligible task, not just the min-vt head. Drain the
  // spawn-time priority queue first (spawn() feeds rq_ in both modes).
  std::vector<ReadyQueue::Entry> runnable;
  while (!rq_.empty()) runnable.push_back(rq_.pop());
  decisions_.clear();
  std::vector<Candidate> cand;
  while (!runnable.empty()) {
    std::uint64_t min_vt = UINT64_MAX;
    for (const ReadyQueue::Entry& e : runnable) min_vt = std::min(min_vt, e.vt);
    // Same watchdog semantics as the default loop: the minimum virtual time
    // is the least-advanced task, so if even it is past the progress window
    // the whole system has spun without real work.
    if (hang_due(min_vt)) throw_hang(min_vt);
    cand.clear();
    for (const ReadyQueue::Entry& e : runnable)
      if (cfg_.policy_window_ns == 0 || e.vt - min_vt <= cfg_.policy_window_ns)
        cand.push_back({e.vt, e.task});
    std::sort(cand.begin(), cand.end(), [](const Candidate& a,
                                           const Candidate& b) {
      return a.vt != b.vt ? a.vt < b.vt : a.task < b.task;
    });
    std::size_t choice = cfg_.policy->pick(cand);
    if (choice >= cand.size()) choice = 0;
    if (cand.size() >= 2)
      decisions_.push_back({static_cast<std::uint32_t>(decisions_.size()),
                            static_cast<std::uint16_t>(cand.size()),
                            static_cast<std::uint16_t>(choice),
                            cand[choice].task, cand[choice].vt});
    const int task = cand[choice].task;
    current_ = task;
    ++switches_;
    fibers_[task]->resume();
    if (clocks_[task] > cfg_.vt_limit_ns)
      throw TimeLimitExceeded(task, clocks_[task], cfg_.vt_limit_ns,
                              cand[choice].vt);
    for (std::size_t i = 0; i < runnable.size(); ++i) {
      if (runnable[i].task != task) continue;
      if (fibers_[task]->finished()) {
        runnable[i] = runnable.back();
        runnable.pop_back();
      } else {
        runnable[i].vt = clocks_[task];
      }
      break;
    }
  }
}

void Scheduler::begin_stepping() {
  if (running_) throw std::logic_error("begin_stepping() during run()");
  if (cfg_.policy != nullptr || cfg_.lead_ns > 0)
    throw std::logic_error(
        "stepping mode is incompatible with a policy or a lead");
  running_ = true;
  g_current_scheduler = this;
}

void Scheduler::end_stepping() {
  g_current_scheduler = nullptr;
  current_ = -1;
  running_ = false;
  bound_ = kNoKey;
}

bool Scheduler::step(std::uint64_t bound_vt, int bound_task) {
  bound_ = {bound_vt, bound_task};
  if (held_) bound_ = std::min(bound_, {held_->slice_ns, held_->task});
  if (rq_.empty() || !(rq_.top() < bound_)) return false;
  const ReadyQueue::Entry e = rq_.pop();
  // The head of the queue holds the least virtual time: if even the
  // least-advanced task is past the progress window, every task has spun
  // without real work for watchdog_ns — a hang, not slowness. Checked
  // before resuming so the stuck state is intact for the report.
  if (hang_due(e.vt)) throw_hang(e.vt);
  current_ = e.task;
  ++switches_;
  slice_vt_ = e.vt;
  fibers_[e.task]->resume();
  requeue_current();
  return true;
}

std::optional<ReadyQueue::Entry> Scheduler::peek() const {
  if (rq_.empty()) return std::nullopt;
  return rq_.top();
}

void Scheduler::park_current() {
  parked_[current_] = true;
  parked_keys_.push(clocks_[current_], current_);
  Fiber::yield_current();
}

void Scheduler::wake(int task, std::uint64_t vt_ns) {
  parked_[task] = false;
  clocks_[task] = vt_ns;
  rq_.push(vt_ns, task);
}

ReadyQueue::Entry Scheduler::earliest_parked() {
  while (!parked_keys_.empty()) {
    const ReadyQueue::Entry k = parked_keys_.top();
    if (parked_[k.task] && clocks_[k.task] == k.vt) return k;
    parked_keys_.pop();  // woken since
  }
  return kNoKey;
}

std::string HangDetected::headline(std::uint64_t window_ns,
                                   std::uint64_t last_progress_ns,
                                   std::uint64_t stuck_at_ns) {
  std::ostringstream os;
  os << "progress watchdog: no rank made node-count progress for "
     << (stuck_at_ns - last_progress_ns) << " virtual ns (window "
     << window_ns << " ns; last progress at vt=" << last_progress_ns
     << " ns, stuck at vt=" << stuck_at_ns << " ns)\n";
  return os.str();
}

void Scheduler::throw_hang(std::uint64_t stuck_at_ns) const {
  std::ostringstream os;
  os << HangDetected::headline(cfg_.watchdog_ns, progress_ns_, stuck_at_ns)
     << "per-task state:\n";
  for (std::size_t i = 0; i < fibers_.size(); ++i)
    os << "  task " << i << ": vt=" << clocks_[i] << " ns "
       << (fibers_[i]->finished() ? "finished" : "runnable") << "\n";
  if (!decisions_.empty()) {
    // Tail of the schedule-exploration decision trail: makes a hang found
    // by the checker diagnosable (and re-runnable) straight from the report.
    constexpr std::size_t kTail = 16;
    const std::size_t from =
        decisions_.size() > kTail ? decisions_.size() - kTail : 0;
    os << "schedule decisions (last " << (decisions_.size() - from) << " of "
       << decisions_.size() << "):\n";
    for (std::size_t i = from; i < decisions_.size(); ++i)
      os << "  step " << decisions_[i].step << ": choice "
         << decisions_[i].choice << "/" << decisions_[i].n_candidates
         << " -> task " << decisions_[i].task << " at vt=" << decisions_[i].vt
         << " ns\n";
  }
  if (cfg_.hang_report) os << cfg_.hang_report();
  throw HangDetected(os.str(), cfg_.watchdog_ns, progress_ns_, stuck_at_ns);
}

std::uint64_t Scheduler::makespan_ns() const {
  std::uint64_t m = 0;
  for (std::uint64_t c : clocks_) m = std::max(m, c);
  return m;
}

std::uint64_t Scheduler::skip_inline_yields(std::uint64_t step_ns,
                                            std::uint64_t max,
                                            std::uint64_t lead_ns) {
  const int cur = current_;
  if (!running_ || cfg_.policy != nullptr || cur < 0 || step_ns == 0)
    return 0;
  // M, the least key another task can still run at. Only a lead lets the
  // skip past it, and then a parked task counts too: its continuation
  // runs at its key (psim), and may reach the skipped slices.
  ReadyQueue::Entry m = rq_.empty() ? bound_ : rq_.top();
  if (lead_ns > 0) m = std::min(m, earliest_parked());
  // yield()'s guards, solved for the last clock `last` at which a yield is
  // accounted: one step within the vt limit, within the progress window
  // from min(progress, M), and (last, cur) below M (or last below M.vt
  // plus the lead) and below the stepping bound.
  std::uint64_t last =
      cfg_.vt_limit_ns > step_ns ? cfg_.vt_limit_ns - step_ns : 0;
  if (cfg_.watchdog_ns > 0) {
    const std::uint64_t p = std::min(progress_ns_, m.vt);
    last = std::min(last, p + std::min(cfg_.watchdog_ns, UINT64_MAX - p));
  }
  const auto below = [&](const ReadyQueue::Entry& e) {
    if (e.vt == 0) return false;
    last = std::min(last, cur < e.task ? e.vt : e.vt - 1);
    return true;
  };
  if (lead_ns > 0)
    last = std::min(last, m.vt + std::min(lead_ns, UINT64_MAX - m.vt) - 1);
  else if (!below(m))
    return 0;
  if (!below(bound_)) return 0;
  const std::uint64_t t = clocks_[cur];
  if (last <= t) return 0;
  const std::uint64_t n = std::min(max, (last - t) / step_ns);
  clocks_[cur] = t + n * step_ns;
  switches_ += n;
  if (n > 0) slice_vt_ = clocks_[cur];
  return n;
}

}  // namespace upcws::sim
