#include "svc/service.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bnb/bnb.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/maxclique.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

namespace upcws::svc {

// JobState is the oracle's JobPhase under another name; keep them fused.
static_assert(static_cast<int>(JobState::kQueued) ==
              static_cast<int>(check::JobPhase::kQueued));
static_assert(static_cast<int>(JobState::kRunning) ==
              static_cast<int>(check::JobPhase::kRunning));
static_assert(static_cast<int>(JobState::kCompleted) ==
              static_cast<int>(check::JobPhase::kCompleted));
static_assert(static_cast<int>(JobState::kRejected) ==
              static_cast<int>(check::JobPhase::kRejected));
static_assert(static_cast<int>(JobState::kCancelled) ==
              static_cast<int>(check::JobPhase::kCancelled));
static_assert(static_cast<int>(JobState::kRetriesExhausted) ==
              static_cast<int>(check::JobPhase::kRetriesExhausted));

namespace {
/// Hang fence of an attempt whose JobSpec::watchdog_ns is 0.
constexpr std::uint64_t kWatchdogNs = 50'000'000'000ull;
/// Retry backoff: 2 ms before the first retry, doubling up to 64 ms.
constexpr std::uint64_t kRetryBackoffNs = 2'000'000;
constexpr std::uint64_t kRetryBackoffMaxNs = 64'000'000;
}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUts: return "uts";
    case Workload::kKnapsack: return "knapsack";
    case Workload::kMaxClique: return "maxclique";
  }
  return "?";
}

const char* state_name(JobState s) {
  return check::phase_name(static_cast<check::JobPhase>(s));
}

const char* reject_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kPoolExhausted: return "pool-exhausted";
    case RejectReason::kInvalidSpec: return "invalid-spec";
    case RejectReason::kShutdown: return "shutdown";
  }
  return "?";
}

bool state_terminal(JobState s) {
  return check::phase_terminal(static_cast<check::JobPhase>(s));
}

Service::Service(pgas::Engine& engine, ServiceConfig cfg)
    : eng_(engine), cfg_(cfg) {
  if (cfg_.pool_ranks < 1)
    throw std::invalid_argument("svc: pool_ranks must be >= 1");
  down_until_.assign(static_cast<std::size_t>(cfg_.pool_ranks), 0);
}

void Service::set_state(JobRecord& j, JobState s, std::uint64_t t_ns) {
  j.state = s;
  j.history.emplace_back(t_ns, s);
  // Terminal transitions all funnel through here, so the job log's terminal
  // record cannot drift from the history the oracle checks.
  if (cfg_.job_log == nullptr || !state_terminal(s)) return;
  obs::JobOutcome o = obs::JobOutcome::kNone;
  switch (s) {
    case JobState::kCompleted: o = obs::JobOutcome::kCompleted; break;
    case JobState::kRejected: o = obs::JobOutcome::kRejected; break;
    case JobState::kCancelled: o = obs::JobOutcome::kCancelled; break;
    case JobState::kRetriesExhausted:
      o = obs::JobOutcome::kRetriesExhausted;
      break;
    case JobState::kQueued:
    case JobState::kRunning: break;
  }
  cfg_.job_log->terminal(j.id, t_ns, o);
}

void Service::reject(JobRecord& j, RejectReason why, std::uint64_t t_ns) {
  j.reject = why;
  j.finish_ns = t_ns;
  if (cfg_.job_log != nullptr)
    cfg_.job_log->rejected(j.id, t_ns, reject_name(why));
  set_state(j, JobState::kRejected, t_ns);
}

int Service::healthy_ranks(std::uint64_t t_ns) const {
  int n = 0;
  for (std::uint64_t d : down_until_) n += (d <= t_ns) ? 1 : 0;
  return n;
}

std::uint64_t Service::heal_time(std::uint64_t t, int need) const {
  if (healthy_ranks(t) >= need) return t;
  // Every down slot heals at a known instant; wait for the earliest subset
  // that brings the healthy count up to `need` (admission guarantees
  // need <= pool_ranks, so this always exists).
  std::vector<std::uint64_t> heals;
  for (std::uint64_t d : down_until_)
    if (d > t) heals.push_back(d);
  std::sort(heals.begin(), heals.end());
  const int have = healthy_ranks(t);
  return heals[static_cast<std::size_t>(need - have) - 1];
}

JobId Service::submit(const JobSpec& spec, std::uint64_t arrival_ns) {
  if (arrival_ns < last_arrival_)
    throw std::invalid_argument("svc: arrivals must be nondecreasing");
  last_arrival_ = arrival_ns;
  // Everything whose turn comes strictly before this arrival happens first,
  // so admission sees the queue as it stands at the arrival instant.
  // (Dispatches AT the arrival instant wait: arrivals-before-dispatches is
  // the tie-break that makes a same-instant burst fill the queue.)
  dispatch_until(arrival_ns, /*inclusive=*/false);
  now_ = std::max(now_, arrival_ns);

  const JobId id = jobs_.size();
  jobs_.emplace_back();
  JobRecord& j = jobs_.back();
  j.id = id;
  j.spec = spec;
  j.arrival_ns = arrival_ns;
  j.deadline_abs_ns =
      spec.deadline_ns > 0 ? arrival_ns + spec.deadline_ns : 0;
  if (cfg_.job_log != nullptr)
    cfg_.job_log->admit(id, arrival_ns, j.deadline_abs_ns);

  const bool bad_spec =
      spec.chunk < 1 || spec.min_ranks < 1 || spec.max_retries < 0 ||
      (spec.workload != Workload::kUts && spec.bnb_size < 1) ||
      (spec.workload == Workload::kMaxClique &&
       (spec.clique_density < 0.0 || spec.clique_density > 1.0));
  if (shutdown_) {
    reject(j, RejectReason::kShutdown, arrival_ns);
  } else if (bad_spec) {
    reject(j, RejectReason::kInvalidSpec, arrival_ns);
  } else if (spec.min_ranks > cfg_.pool_ranks) {
    // Can never run on this pool, however long it waits: shed now.
    reject(j, RejectReason::kPoolExhausted, arrival_ns);
  } else if (queued_.size() >= cfg_.queue_cap) {
    reject(j, RejectReason::kQueueFull, arrival_ns);
  } else {
    set_state(j, JobState::kQueued, arrival_ns);
    queued_.push_back(id);
    queue_depth_max_ = std::max(queue_depth_max_,
                                static_cast<std::uint64_t>(queued_.size()));
  }
  return id;
}

std::optional<Service::Candidate> Service::next_candidate() const {
  std::optional<Candidate> best;
  if (!queued_.empty()) {
    const JobId id = queued_.front();
    best = Candidate{id, jobs_[id].arrival_ns, /*from_retry=*/false};
  }
  if (!retries_.empty()) {
    const Retry& r = retries_.top();
    // Ties go to the admission queue: fresh FIFO order wins over a retry
    // that became ready at the same instant.
    if (!best || r.ready_ns < best->ready_ns)
      best = Candidate{r.id, r.ready_ns, /*from_retry=*/true};
  }
  return best;
}

void Service::pop_candidate(const Candidate& c) {
  if (c.from_retry)
    retries_.pop();
  else
    queued_.pop_front();
}

void Service::advance_to(std::uint64_t t_ns) {
  dispatch_until(t_ns, /*inclusive=*/true);
  now_ = std::max(now_, t_ns);
}

void Service::dispatch_until(std::uint64_t t_ns, bool inclusive) {
  for (;;) {
    const auto c = next_candidate();
    if (!c) break;
    JobRecord& j = jobs_[c->id];
    // Start = pool free AND job ready AND enough slots healthy. None of
    // these bounds can shrink later, so decisions made from them are final.
    const std::uint64_t start =
        heal_time(std::max(pool_free_ns_, c->ready_ns), j.spec.min_ranks);
    if (j.deadline_abs_ns > 0 && start >= j.deadline_abs_ns) {
      // Dead in the queue: its turn comes at/after the deadline, so it is
      // cancelled without ever touching the pool. Normally the terminal
      // instant is the deadline itself; a retry that was requeued after
      // the deadline had already passed dies at the requeue instant.
      const std::uint64_t tc = std::max(
          j.deadline_abs_ns, j.history.empty() ? 0 : j.history.back().first);
      if (inclusive ? tc > t_ns : tc >= t_ns) break;
      pop_candidate(*c);
      j.finish_ns = tc;
      set_state(j, JobState::kCancelled, tc);
      continue;
    }
    if (inclusive ? start > t_ns : start >= t_ns) break;
    pop_candidate(*c);
    execute(c->id, start);
  }
}

void Service::drain() {
  for (;;) {
    const auto c = next_candidate();
    if (!c) break;
    const JobRecord& j = jobs_[c->id];
    const std::uint64_t start =
        heal_time(std::max(pool_free_ns_, c->ready_ns), j.spec.min_ranks);
    advance_to(start);  // dispatches (or deadline-cancels) the head job
  }
}

void Service::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (JobId id : queued_) reject(jobs_[id], RejectReason::kShutdown, now_);
  queued_.clear();
  while (!retries_.empty()) {
    reject(jobs_[retries_.top().id], RejectReason::kShutdown, now_);
    retries_.pop();
  }
}

std::uint64_t Service::verify_reference(const JobSpec& spec, bool* known) {
  std::ostringstream key;
  key << workload_name(spec.workload) << ':';
  if (spec.workload == Workload::kUts) {
    const uts::Params& p = spec.tree;
    key << static_cast<int>(p.type) << ':' << p.root_seed << ':' << p.b0
        << ':' << p.m << ':' << p.q << ':' << p.gen_mx << ':'
        << static_cast<int>(p.shape) << ':' << p.shift_depth;
  } else {
    key << spec.bnb_size << ':' << spec.bnb_seed << ':'
        << spec.clique_density;
  }
  const auto it = ref_cache_.find(key.str());
  if (it != ref_cache_.end()) {
    *known = true;
    return it->second;
  }
  std::uint64_t ref = 0;
  switch (spec.workload) {
    case Workload::kUts: {
      const auto seq = uts::search_sequential(spec.tree);
      if (!seq) {
        *known = false;  // reference itself over budget: skip the check
        return 0;
      }
      ref = seq->nodes;
      break;
    }
    case Workload::kKnapsack: {
      const bnb::Knapsack ks(
          bnb::make_knapsack_instance(spec.bnb_size, spec.bnb_seed));
      ref = static_cast<std::uint64_t>(bnb::solve_sequential(ks));
      break;
    }
    case Workload::kMaxClique: {
      const bnb::MaxClique mc(bnb::make_random_graph(
          spec.bnb_size, spec.clique_density, spec.bnb_seed));
      ref = static_cast<std::uint64_t>(bnb::solve_sequential(mc));
      break;
    }
  }
  ref_cache_.emplace(key.str(), ref);
  *known = true;
  return ref;
}

void Service::execute(JobId id, std::uint64_t start) {
  JobRecord& j = jobs_[id];
  ++j.attempts;
  if (j.attempts == 1)
    j.start_ns = start;
  else
    ++retry_attempts_;
  set_state(j, JobState::kRunning, start);
  if (cfg_.job_log != nullptr)
    cfg_.job_log->attempt_begin(id, j.attempts, start);

  // The job runs on every currently-healthy slot (graceful degradation:
  // fewer ranks after un-repaired chaos, same answer).
  std::vector<int> slots;
  for (int i = 0; i < cfg_.pool_ranks; ++i)
    if (down_until_[static_cast<std::size_t>(i)] <= start) slots.push_back(i);
  const int nranks = static_cast<int>(slots.size());
  j.ranks_used = nranks;
  j.ranks_held = nranks;

  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = cfg_.net;
  rcfg.seed = j.spec.run_seed + static_cast<std::uint64_t>(j.attempts - 1);
  rcfg.watchdog_ns = j.spec.watchdog_ns > 0 ? j.spec.watchdog_ns : kWatchdogNs;
  rcfg.faults = j.spec.faults;
  // Prune the job's fault plan to the ranks this attempt actually has:
  // specs aimed at absent ranks would otherwise target nothing (or, for
  // joins of rank 0, violate the membership rules).
  auto& f = rcfg.faults;
  std::erase_if(f.crashes, [&](const pgas::CrashSpec& c) {
    return c.rank < 0 || c.rank >= nranks;
  });
  std::erase_if(f.drains, [&](const pgas::DrainSpec& d) {
    return d.rank < 1 || d.rank >= nranks;
  });
  std::erase_if(f.joins, [&](const pgas::JoinSpec& jn) {
    return jn.rank < 1 || jn.rank >= nranks;
  });
  const std::uint64_t all_mask =
      nranks >= 64 ? ~0ull : ((1ull << nranks) - 1);
  std::erase_if(f.partitions, [&](pgas::PartitionSpec& p) {
    p.group_mask &= all_mask;
    return p.group_mask == 0 || p.group_mask == all_mask;
  });
  if (f.stall_rank >= nranks) f.stall_ns = 0;
  if (j.attempts > 1) {
    // Retry hardening: the fault plan modeled the environment of the failed
    // attempt. Transient chaos (lossy transport, stalls, spikes) does not
    // recur on the retry, and the steal protocol runs acked/timed-out so a
    // retry can absorb the fail-stop faults the first attempt could not.
    // Crashes, drains, joins, and partitions stay: those are absorbed
    // in-run by recovery, not by retrying.
    f.drop_prob = 0.0;
    f.dup_prob = 0.0;
    f.stall_ns = 0;
    f.stall_period_ns = 0;
    f.spike_prob = 0.0;
  }

  ws::WsConfig wcfg = ws::WsConfig::for_algo(j.spec.algo, j.spec.chunk);
  wcfg.steal_timeout_ns = j.spec.steal_timeout_ns;
  if (j.attempts > 1)
    wcfg.steal_timeout_ns = std::max<std::uint64_t>(wcfg.steal_timeout_ns,
                                                    30'000);
  if (j.deadline_abs_ns > 0)
    wcfg.cancel_at_ns = j.deadline_abs_ns - start;  // > 0: checked at dispatch
  if (cfg_.observe_jobs)
    wcfg.obs = &job_obs_;  // start_run() inside resets = per-job isolation

  bool ok = true;
  ws::SearchResult res;
  std::int64_t opt = 0;
  bool have_opt = false;
  try {
    switch (j.spec.workload) {
      case Workload::kUts: {
        const ws::UtsProblem prob(j.spec.tree);
        res = ws::run_search(eng_, rcfg, prob, wcfg);
        break;
      }
      case Workload::kKnapsack: {
        const bnb::Knapsack ks(
            bnb::make_knapsack_instance(j.spec.bnb_size, j.spec.bnb_seed));
        const auto br = bnb::solve(eng_, rcfg, ks, wcfg);
        res = br.search;
        opt = br.optimum;
        have_opt = true;
        break;
      }
      case Workload::kMaxClique: {
        const bnb::MaxClique mc(bnb::make_random_graph(
            j.spec.bnb_size, j.spec.clique_density, j.spec.bnb_seed));
        const auto br = bnb::solve(eng_, rcfg, mc, wcfg);
        res = br.search;
        opt = br.optimum;
        have_opt = true;
        break;
      }
    }
  } catch (const std::exception& e) {
    ok = false;
    j.error = e.what();
  }

  // A failed attempt burned the watchdog fence; a successful one took the
  // engine's makespan. Either way the pool was occupied for the duration.
  const std::uint64_t dur =
      ok ? std::max<std::uint64_t>(
               1, static_cast<std::uint64_t>(res.run.elapsed_s * 1e9))
         : std::max<std::uint64_t>(1, rcfg.watchdog_ns);
  const std::uint64_t finish = start + dur;
  pool_free_ns_ = finish;
  busy_ns_ += dur;
  now_ = std::max(now_, finish);  // the attempt ran synchronously: the
                                  // service clock has seen its completion
  j.ranks_held = 0;

  // Slots hit by this job's crash/drain chaos go down for repair; later
  // jobs see a smaller healthy pool until the repair clock expires.
  for (const pgas::CrashSpec& c : f.crashes)
    if (c.at_ns <= dur) {
      down_until_[static_cast<std::size_t>(slots[c.rank])] =
          finish + cfg_.repair_ns;
      ++j.crashes;
    }
  for (const pgas::DrainSpec& d : f.drains)
    if (d.at_ns <= dur) {
      down_until_[static_cast<std::size_t>(slots[d.rank])] =
          finish + cfg_.repair_ns;
      ++j.drains;
    }

  if (cfg_.job_log != nullptr) {
    cfg_.job_log->attempt_end(id, finish, !ok,
                              ok && res.agg.total_cancels > 0);
    // The per-attempt Observer was reset at this attempt's start, so its
    // span log is exactly this attempt's steals; rebase them from run
    // virtual time into service time.
    if (cfg_.observe_jobs)
      cfg_.job_log->attempt_spans(id, job_obs_.spans().assemble(), start);
  }

  if (!ok) {
    if (j.attempts <= j.spec.max_retries) {
      const int shift = std::min(j.attempts - 1, 32);
      const std::uint64_t backoff =
          std::min(kRetryBackoffMaxNs, kRetryBackoffNs << shift);
      set_state(j, JobState::kQueued, finish);
      retries_.push(Retry{finish + backoff, id});
      if (cfg_.job_log != nullptr) cfg_.job_log->backoff(id, finish + backoff);
    } else {
      j.finish_ns = finish;
      set_state(j, JobState::kRetriesExhausted, finish);
    }
    return;
  }

  j.nodes = res.agg.total_nodes;
  j.spawned = res.agg.total_spawned;
  j.reclaimed = res.agg.total_reclaimed;
  j.cancels = res.agg.total_cancels;
  j.has_result = true;
  j.error.clear();  // earlier attempts' failures are history, not state
  if (have_opt) j.optimum = opt;

  if (res.agg.total_cancels > 0) {
    // Deadline fired mid-run: partial result (nodes visited so far, B&B
    // incumbent as a valid bound) is kept on the kCancelled record.
    j.finish_ns = finish;
    set_state(j, JobState::kCancelled, finish);
    return;
  }

  if (cfg_.verify_completed) {
    bool known = false;
    const std::uint64_t want = verify_reference(j.spec, &known);
    if (known) {
      const bool match = j.spec.workload == Workload::kUts
                             ? j.nodes == want
                             : opt == static_cast<std::int64_t>(want);
      if (!match) {
        std::ostringstream os;
        os << "result mismatch: got "
           << (j.spec.workload == Workload::kUts
                   ? j.nodes
                   : static_cast<std::uint64_t>(opt))
           << " want " << want;
        j.error = os.str();
      }
    }
  }
  j.finish_ns = finish;
  set_state(j, JobState::kCompleted, finish);
}

Summary Service::summary() const {
  Summary s;
  s.submitted = jobs_.size();
  for (const JobRecord& j : jobs_) {
    switch (j.state) {
      case JobState::kCompleted:
        ++s.completed;
        s.completed_latency_ns.push_back(j.finish_ns - j.arrival_ns);
        break;
      case JobState::kRejected:
        ++s.rejected;
        ++s.reject_by_reason[static_cast<int>(j.reject)];
        break;
      case JobState::kCancelled: ++s.cancelled; break;
      case JobState::kRetriesExhausted: ++s.retries_exhausted; break;
      default: break;  // still queued/running: caller drains first
    }
    s.crashes += j.crashes;
    s.drains += j.drains;
    s.nodes_visited += j.nodes;
    s.nodes_reclaimed += j.reclaimed;
    s.now_ns = std::max(s.now_ns, j.finish_ns);
  }
  s.retry_attempts = retry_attempts_;
  s.queue_depth_max = queue_depth_max_;
  s.busy_ns = busy_ns_;
  s.now_ns = std::max(s.now_ns, now_);
  return s;
}

std::vector<check::JobView> Service::views() const {
  std::vector<check::JobView> vs;
  vs.reserve(jobs_.size());
  for (const JobRecord& j : jobs_) {
    check::JobView v;
    v.id = j.id;
    v.state = static_cast<check::JobPhase>(j.state);
    v.reject_reason_set = j.reject != RejectReason::kNone;
    v.ranks_held = j.ranks_held;
    v.ranks_used = j.ranks_used;
    v.history.reserve(j.history.size());
    for (const auto& [t, st] : j.history)
      v.history.emplace_back(t, static_cast<check::JobPhase>(st));
    vs.push_back(std::move(v));
  }
  return vs;
}

}  // namespace upcws::svc
