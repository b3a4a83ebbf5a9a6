// Resident job service on top of the work-stealing runtime.
//
// ws::run_search is one-shot: build an engine, run one SPMD search, read the
// stats. This layer promotes it to a *service*: a persistent rank pool (on
// either engine) plus a job API that accepts many tree-search and
// branch-and-bound jobs — UTS, knapsack, max-clique — each with its own
// algorithm, chunk size, fault plan, deadline, and retry budget, and with
// per-job isolation of stats, termination, recovery boards, and observer
// streams (each attempt is one engine run; nothing leaks across jobs).
//
// The robustness contract, end to end:
//
//  * Admission control. The queue is bounded (ServiceConfig::queue_cap).
//    Submissions past the bound are load-shed with a typed rejection
//    (kQueueFull) at arrival time — the service never hangs a client and
//    never buffers unboundedly. Structurally impossible specs are rejected
//    up front (kInvalidSpec, kPoolExhausted) rather than discovered by a
//    doomed dispatch.
//
//  * Deadlines. JobSpec::deadline_ns is relative to arrival. A job whose
//    turn comes after its deadline is cancelled in-queue (it never touches
//    the pool). A job dispatched before the deadline carries the remaining
//    budget into the run as WsConfig::cancel_at_ns, so cancellation
//    propagates cooperatively through the steal protocols and crash
//    recovery: in-flight chunks are reclaimed with exact accounting
//    (nodes + reclaimed == 1 + spawned), no lineage record is left pending,
//    and the partial result (visited nodes; for B&B the incumbent bound) is
//    returned with the kCancelled record.
//
//  * Retries. An attempt that fails — the watchdog detects a hang, e.g. a
//    job-injected fault plan the chosen variant cannot absorb — is charged
//    the watchdog fence (JobSpec::watchdog_ns, or 50 s of virtual time),
//    then requeued with exponential backoff (2 ms * 2^(attempt-1), capped
//    at 64 ms). Retry attempts run hardened (steal ack/timeout on, message
//    drop/dup off) so a job that lost ranks mid-run degrades to a
//    slower-but-safe configuration instead of failing the same way
//    forever. The deadline caps the whole retry ladder; attempts beyond
//    max_retries end in kRetriesExhausted.
//
//  * Graceful degradation. Rank slots that crash or drain during a job are
//    marked down for repair_ns of service time. Later jobs dispatch on the
//    surviving healthy slots (fewer ranks, same answer); a job needing more
//    than the currently-healthy count (min_ranks) waits for repairs, its
//    deadline still ticking.
//
// Every job therefore ends in EXACTLY ONE terminal state — kCompleted (with
// a result the service cross-checks against a sequential reference),
// kRejected (typed reason), kCancelled, or kRetriesExhausted — and the full
// transition history is kept per job so check::check_jobs can re-derive the
// contract from raw evidence (see src/check/job_oracle.hpp).
//
// Time model: the service runs in "service time" — virtual ns, the same
// clock family as the engines. Jobs arrive at caller-supplied instants
// (nondecreasing); the pool executes one SPMD run at a time (the engines are
// themselves parallel internally), so concurrency shows up as queueing, and
// latency percentiles are exact functions of (arrival process, service
// times) — perfectly reproducible under SimEngine.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "check/job_oracle.hpp"
#include "obs/job_log.hpp"
#include "obs/observer.hpp"
#include "pgas/engine.hpp"
#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "uts/params.hpp"
#include "ws/config.hpp"

namespace upcws::svc {

using JobId = std::uint64_t;

enum class Workload : std::uint8_t { kUts, kKnapsack, kMaxClique };

/// Mirrors check::JobPhase value-for-value (static_asserted in service.cpp)
/// so oracle views are a cast, not a mapping table that can rot.
enum class JobState : int {
  kQueued = 0,
  kRunning = 1,
  kCompleted = 2,
  kRejected = 3,
  kCancelled = 4,
  kRetriesExhausted = 5,
};

enum class RejectReason : std::uint8_t {
  kNone = 0,
  kQueueFull,       ///< bounded queue at capacity (backpressure)
  kPoolExhausted,   ///< min_ranks exceeds the pool size, can never run
  kInvalidSpec,     ///< structurally bad spec (chunk < 1, empty instance...)
  kShutdown,        ///< service draining; no new work accepted
};

const char* workload_name(Workload w);
const char* state_name(JobState s);
const char* reject_name(RejectReason r);
bool state_terminal(JobState s);

/// What one job asks the service to do.
struct JobSpec {
  Workload workload = Workload::kUts;

  /// kUts: the tree to search (exact node count verified on completion).
  uts::Params tree = uts::test_small(1);
  /// kKnapsack / kMaxClique: instance size (items / vertices) and generator
  /// seed; optimum verified against the sequential solver on completion.
  int bnb_size = 18;
  std::uint64_t bnb_seed = 1;
  double clique_density = 0.5;

  ws::Algo algo = ws::Algo::kUpcDistMem;
  int chunk = 4;
  std::uint64_t run_seed = 1;       ///< per-attempt: seed + (attempt - 1)
  std::uint64_t steal_timeout_ns = 0;  ///< 0 = unhardened (retries harden)

  int min_ranks = 1;                ///< refuse to start below this many
  std::uint64_t deadline_ns = 0;    ///< relative to arrival; 0 = none
  int max_retries = 0;              ///< extra attempts after a failure
  pgas::FaultPlan faults{};         ///< per-job chaos (pruned to run size)
  std::uint64_t watchdog_ns = 0;    ///< hang fence; 0 = 50 s
};

/// Everything the service knows about one job (returned by jobs()/job()).
struct JobRecord {
  JobId id = 0;
  JobSpec spec{};
  JobState state = JobState::kQueued;
  RejectReason reject = RejectReason::kNone;

  int attempts = 0;            ///< engine runs actually executed
  int ranks_used = 0;          ///< nranks of the last attempt
  int ranks_held = 0;          ///< nonzero only while kRunning (oracle food)

  std::uint64_t arrival_ns = 0;
  std::uint64_t start_ns = 0;       ///< first dispatch (0 if never ran)
  std::uint64_t finish_ns = 0;      ///< terminal instant
  std::uint64_t deadline_abs_ns = 0;  ///< arrival + deadline (0 = none)

  // Results of the last attempt that returned (exact iff kCompleted).
  std::uint64_t nodes = 0;
  std::uint64_t spawned = 0;
  std::uint64_t reclaimed = 0;   ///< bled after the deadline fired
  std::uint64_t cancels = 0;     ///< ranks that observed the deadline
  std::uint64_t crashes = 0;     ///< rank crashes absorbed across attempts
  std::uint64_t drains = 0;      ///< graceful leaves absorbed across attempts
  bool has_result = false;       ///< some attempt returned (maybe partial)
  std::int64_t optimum = 0;      ///< B&B incumbent (exact iff kCompleted)

  std::string error;             ///< last attempt failure (hang report, ...)
  /// Full transition log: (service time ns, state entered).
  std::vector<std::pair<std::uint64_t, JobState>> history;
};

struct ServiceConfig {
  int pool_ranks = 8;               ///< persistent rank pool size
  std::size_t queue_cap = 16;       ///< admission bound (excludes retries)
  std::uint64_t repair_ns = 50'000'000;  ///< down-slot repair time
  bool verify_completed = true;     ///< cross-check vs sequential reference
  bool observe_jobs = false;        ///< attach the per-job Observer
  /// Optional job-lifecycle log (see obs/job_log.hpp): the service records
  /// admission, queue wait, attempts, backoffs, and terminal states into it
  /// — pure observation, never read back. With observe_jobs also set, each
  /// attempt's steal spans are copied in (rebased to service time).
  obs::JobLog* job_log = nullptr;
  pgas::NetModel net = pgas::NetModel::distributed();
};

/// Aggregate view for reporting (service_soak turns this into JSON).
struct Summary {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t retry_attempts = 0;  ///< dispatches beyond each job's first
  std::uint64_t reject_by_reason[5] = {0, 0, 0, 0, 0};  ///< RejectReason idx
  std::uint64_t crashes = 0, drains = 0;  ///< chaos absorbed inside jobs
  std::uint64_t nodes_visited = 0, nodes_reclaimed = 0;
  /// finish - arrival for every completed job, submission order (callers
  /// sort for percentiles; kept raw so merging services stays exact).
  std::vector<std::uint64_t> completed_latency_ns;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t busy_ns = 0;        ///< pool-occupied service time
  std::uint64_t now_ns = 0;         ///< service clock
};

class Service {
 public:
  Service(pgas::Engine& engine, ServiceConfig cfg);

  /// Submit a job arriving at `arrival_ns` (service time, nondecreasing
  /// across calls). Admission control runs immediately: the returned id's
  /// record is already terminal (kRejected) if the job was load-shed.
  /// Dispatching is lazy — advance_to()/drain() move the clock.
  JobId submit(const JobSpec& spec, std::uint64_t arrival_ns);

  /// Advance service time to `t_ns`, dispatching (and synchronously
  /// executing) every job whose turn starts at or before it.
  void advance_to(std::uint64_t t_ns);

  /// Run every admitted job to a terminal state.
  void drain();

  /// Stop admitting; every job still queued (or awaiting retry) is rejected
  /// with kShutdown. Idempotent.
  void shutdown();

  std::uint64_t now_ns() const { return now_; }
  int pool_ranks() const { return cfg_.pool_ranks; }
  /// Healthy (not down-for-repair) slots at service time `t_ns`.
  int healthy_ranks(std::uint64_t t_ns) const;

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const JobRecord& job(JobId id) const { return jobs_.at(id); }

  Summary summary() const;

  /// Oracle views of every job (see check::check_jobs). The service's own
  /// tests call check::check_jobs(views(), pool_ranks()) after every soak.
  std::vector<check::JobView> views() const;

  /// Streams of the most recent attempt (only when cfg.observe_jobs).
  /// start_run() resets it per attempt — that reset IS the per-job
  /// isolation: nothing of job N's telemetry survives into job N+1.
  obs::Observer& job_observer() { return job_obs_; }

 private:
  struct Retry {
    std::uint64_t ready_ns;
    JobId id;
    bool operator>(const Retry& o) const {
      return ready_ns != o.ready_ns ? ready_ns > o.ready_ns : id > o.id;
    }
  };
  struct Candidate {
    JobId id;
    std::uint64_t ready_ns;  ///< arrival (queue) or backoff expiry (retry)
    bool from_retry;
  };

  void set_state(JobRecord& j, JobState s, std::uint64_t t_ns);
  void reject(JobRecord& j, RejectReason why, std::uint64_t t_ns);
  std::optional<Candidate> next_candidate() const;
  /// Dispatch every job whose turn starts before `t_ns` (`inclusive` also
  /// takes turns starting exactly at it). submit() uses the exclusive form:
  /// at one instant, arrivals are admitted before dispatches.
  void dispatch_until(std::uint64_t t_ns, bool inclusive);
  /// Earliest time >= t with at least `need` healthy slots (t if already).
  std::uint64_t heal_time(std::uint64_t t, int need) const;
  void pop_candidate(const Candidate& c);
  /// Run one attempt of job `id` starting at `start`; handles completion,
  /// cancellation, failure->retry/exhaustion, and pool bookkeeping.
  void execute(JobId id, std::uint64_t start);
  std::uint64_t verify_reference(const JobSpec& spec, bool* known);

  pgas::Engine& eng_;
  ServiceConfig cfg_;
  std::vector<JobRecord> jobs_;     ///< id == index
  std::deque<JobId> queued_;        ///< FIFO admission queue
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>>
      retries_;
  std::vector<std::uint64_t> down_until_;  ///< per-slot repair clock
  std::uint64_t now_ = 0;
  std::uint64_t pool_free_ns_ = 0;  ///< pool busy until here
  std::uint64_t last_arrival_ = 0;
  std::uint64_t queue_depth_max_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t retry_attempts_ = 0;
  bool shutdown_ = false;
  obs::Observer job_obs_;
  /// Memoized sequential references: key -> (uts nodes | bnb optimum).
  std::map<std::string, std::uint64_t> ref_cache_;
};

}  // namespace upcws::svc
