// Deterministic fault injection for the PGAS runtime.
//
// The paper's protocols (§3.3.1–§3.3.3) are argued correct under a benign
// interconnect: a victim always services a posted steal request, and no
// message is ever lost or duplicated. A FaultPlan attached to RunConfig
// perturbs exactly those assumptions — reproducibly per (seed, rank):
//
//   * transient rank stalls: a rank freezes for a virtual interval at its
//     next interaction point, including while it holds a lock;
//   * heavy-tail latency spikes on remote operations (the jittered() costs);
//   * message drop and duplication in the two-sided mp layer.
//
// Every draw comes from a per-rank mt19937_64 stream seeded from
// (RunConfig::seed, rank) and *separate* from Ctx::rng(), so attaching an
// all-zero plan consumes no randomness and leaves a run byte-identical
// (tests/test_faults.cpp enforces this). Each injector belongs to a single
// rank and is only ever driven by that rank's execution, so it needs no
// synchronization under either engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

namespace upcws::pgas {

/// A permanent rank failure: at (or after) `at_ns` of the rank's own Ctx
/// time, the rank fail-stops at its next eligible interaction point. The
/// crash is modeled as an exception (RankCrashed) thrown from Ctx::charge /
/// Ctx::yield; after it fires the Ctx is dead — every later lock release,
/// store, or message send from that rank is suppressed, exactly as if the
/// process had vanished mid-instruction.
struct CrashSpec {
  /// Refine *where* the crash may land, for targeting the nasty windows:
  ///   kAnywhere — first interaction point at/after at_ns
  ///   kInLock   — first interaction point at/after at_ns while the rank
  ///               holds at least one Lock (a dead lock holder)
  ///   kMidSteal — first interaction point at/after at_ns while the rank is
  ///               inside a steal transfer (in-flight work)
  enum class Where : std::uint8_t { kAnywhere, kInLock, kMidSteal };

  int rank = -1;
  std::uint64_t at_ns = 0;
  Where where = Where::kAnywhere;
};

/// Thrown by a Ctx when its rank's injected crash fires. Algorithm workers
/// catch it to finalize partial statistics; engines catch it as a backstop
/// (the rank's SPMD body simply ends).
struct RankCrashed {
  int rank = -1;
  std::uint64_t t_ns = 0;
};

/// A planned, graceful leave: at (or after) `at_ns` of the rank's own Ctx
/// time, the rank drains at its next *safe* point — outside locks, outside
/// barriers, with no steal in flight. Unlike a crash, nothing is interrupted
/// mid-protocol: the rank marks itself dead on the liveness board (a clean
/// fail-stop as far as the membership view is concerned) and its remaining
/// StealStack chunks are handed off through the existing lineage/recovery
/// board (UPC / mpi-ws families) or pushed to a live peer with the normal
/// ack handshake (work-push).
struct DrainSpec {
  int rank = -1;
  std::uint64_t at_ns = 0;
};

/// A rank that starts *outside* the membership and joins mid-run: it parks
/// (consuming only clock time) until its own clock reaches `at_ns`, then
/// registers with the liveness board's joined flag and enters the normal
/// worker loop. Until the flag is raised, every membership-aware path
/// (victim selection, barrier targets, push targets) treats the rank as
/// absent. Rank 0 must not be a joiner (it seeds the root).
struct JoinSpec {
  int rank = -1;
  std::uint64_t at_ns = 0;
};

/// A correlated network partition: ranks whose bit is set in `group_mask`
/// are on one side, the rest on the other. Any communication *initiated*
/// across the cut while the partition is active — two-sided mp messages and
/// one-sided PGAS references/bulk transfers alike — is delayed until
/// `heal_ns` (partition-as-unbounded-delay: the transport retransmits
/// through the outage and delivers after heal). Nothing is lost, so
/// liveness stays exact: no false death suspicion, no false lease
/// revocation, and the hardened retransmit/dedup machinery absorbs the
/// duplicate storms the delays provoke.
struct PartitionSpec {
  std::uint64_t group_mask = 0;  ///< bit r set = rank r on side A
  std::uint64_t start_ns = 0;
  std::uint64_t heal_ns = 0;  ///< absolute heal time; must be > start_ns

  bool active(std::uint64_t now_ns) const {
    return now_ns >= start_ns && now_ns < heal_ns;
  }
  bool separates(int a, int b) const {
    return (((group_mask >> a) ^ (group_mask >> b)) & 1u) != 0;
  }
};

/// What to inject. All-zero (the default) disables every fault class.
struct FaultPlan {
  /// Transient rank stalls: every ~stall_period_ns of a rank's time, the
  /// rank freezes for ~stall_ns (both scaled by U[0.5,1.5) draws). Both
  /// must be > 0 to enable. Make stall_ns enormous to model a rank that
  /// never comes back (a fail-stop proxy for watchdog tests).
  std::uint64_t stall_ns = 0;
  std::uint64_t stall_period_ns = 0;
  /// Rank eligible to stall, or -1 for all ranks.
  int stall_rank = -1;

  /// Heavy-tail latency spikes: each remote-op cost is inflated, with
  /// probability spike_prob, by base * spike_mult * Exp(1) extra time.
  double spike_prob = 0.0;
  double spike_mult = 10.0;

  /// Two-sided messaging (src/mp) only: per-message loss / duplication
  /// probability. One-sided PGAS references are modeled as reliable RDMA.
  double drop_prob = 0.0;
  double dup_prob = 0.0;

  /// Permanent rank failures (fail-stop). Empty = none.
  std::vector<CrashSpec> crashes;
  /// Failure-detection latency: a survivor's liveness view reports a rank
  /// dead once the viewer's own clock passes death_time + crash_detect_ns
  /// (0 = detection is immediate). Models the detector's suspicion delay
  /// while staying deterministic per run.
  std::uint64_t crash_detect_ns = 0;

  /// Planned membership changes: graceful leaves and mid-run joins. Both
  /// piggyback on the liveness board, so enabling either creates it (and
  /// the recovery board) exactly as crash injection does.
  std::vector<DrainSpec> drains;
  std::vector<JoinSpec> joins;

  /// Correlated partitions (rank-set bipartitions with a heal time).
  std::vector<PartitionSpec> partitions;

  bool stalls_enabled() const { return stall_ns > 0 && stall_period_ns > 0; }
  bool spikes_enabled() const { return spike_prob > 0.0; }
  bool messages_enabled() const { return drop_prob > 0.0 || dup_prob > 0.0; }
  bool crashes_enabled() const { return !crashes.empty(); }
  bool drains_enabled() const { return !drains.empty(); }
  bool joins_enabled() const { return !joins.empty(); }
  /// Drains or joins: anything that changes the rank set mid-run.
  bool membership_enabled() const {
    return drains_enabled() || joins_enabled();
  }
  bool partitions_enabled() const { return !partitions.empty(); }
  bool any() const {
    return stalls_enabled() || spikes_enabled() || messages_enabled() ||
           crashes_enabled() || membership_enabled() || partitions_enabled();
  }
};

/// Shared liveness board: one death-time word per rank, written once by the
/// crashing rank at its moment of death and read by everyone else. A viewer
/// sees the death only after the configured detection latency has elapsed
/// on the *viewer's* clock, so detection order is deterministic under the
/// simulator and racy-but-monotonic under real threads.
class Liveness {
 public:
  Liveness(int nranks, std::uint64_t detect_ns)
      : detect_ns_(detect_ns), death_(nranks), joined_(nranks) {
    for (auto& d : death_) d.store(kAlive, std::memory_order_relaxed);
    for (auto& j : joined_) j.store(1, std::memory_order_relaxed);
  }

  int nranks() const { return static_cast<int>(death_.size()); }
  std::uint64_t detect_ns() const { return detect_ns_; }

  /// Called once by rank `r` as it dies (and by nobody else).
  void mark_dead(int r, std::uint64_t t_ns) {
    death_[r].store(t_ns, std::memory_order_release);
  }

  /// Raw death time of `r` (kAlive if it has not crashed), ignoring the
  /// detection latency — for post-mortem reports only.
  std::uint64_t death_ns(int r) const {
    return death_[r].load(std::memory_order_acquire);
  }

  /// Does a viewer whose clock reads `viewer_now_ns` see rank `r` as dead?
  bool dead(int r, std::uint64_t viewer_now_ns) const {
    const std::uint64_t d = death_[r].load(std::memory_order_acquire);
    return d != kAlive && viewer_now_ns >= d + detect_ns_;
  }

  // ---- membership (joins): a raised-once flag, not a clock comparison ----
  //
  // Unlike death detection, join visibility must NOT be viewer-clock-based:
  // a joiner may acquire work the instant it joins, and a viewer whose
  // clock lags the join time would then exclude a working rank from its
  // barrier target — a false-termination window. The flag is monotonic
  // (0 -> 1, raised by the joiner before its first protocol action), so any
  // viewer that observes a consequence of the join also observes the flag.

  /// Pre-register `r` as a not-yet-joined rank (driver/engine, from the
  /// plan's JoinSpecs, before the run starts).
  void set_join_pending(int r) {
    joined_[r].store(0, std::memory_order_relaxed);
  }

  /// Called once by rank `r` itself when its join time arrives, before its
  /// first steal/push/barrier action.
  void mark_joined(int r) { joined_[r].store(1, std::memory_order_release); }

  /// Has `r` entered the membership? (True from the start for every rank
  /// without a JoinSpec.)
  bool joined(int r) const {
    return joined_[r].load(std::memory_order_acquire) != 0;
  }

  /// Not currently an active member: dead (as seen by the viewer) or not
  /// yet joined.
  bool absent(int r, std::uint64_t viewer_now_ns) const {
    return !joined(r) || dead(r, viewer_now_ns);
  }

  /// Flag every JoinSpec'd rank in `plan` as join-pending. Idempotent;
  /// engines call it on whatever board they attach.
  void apply_join_plan(const FaultPlan& plan) {
    for (const JoinSpec& j : plan.joins)
      if (j.rank >= 0 && j.rank < nranks()) set_join_pending(j.rank);
  }

  /// Number of ranks `viewer_now_ns` sees as dead / alive.
  int dead_count(std::uint64_t viewer_now_ns) const {
    int c = 0;
    for (int r = 0; r < nranks(); ++r)
      if (dead(r, viewer_now_ns)) ++c;
    return c;
  }
  int live_count(std::uint64_t viewer_now_ns) const {
    return nranks() - dead_count(viewer_now_ns);
  }

  static constexpr std::uint64_t kAlive = UINT64_MAX;

 private:
  std::uint64_t detect_ns_;
  std::vector<std::atomic<std::uint64_t>> death_;
  std::vector<std::atomic<std::uint8_t>> joined_;
};

/// What one rank's injector actually did during a run.
struct FaultCounters {
  std::uint64_t stalls = 0;            ///< rank freezes injected
  std::uint64_t stall_ns_total = 0;    ///< total frozen time (ns)
  std::uint64_t spikes = 0;            ///< latency spikes injected
  std::uint64_t spike_ns_total = 0;    ///< total extra latency (ns)
  std::uint64_t msgs_dropped = 0;      ///< messages lost at this sender
  std::uint64_t msgs_duplicated = 0;   ///< messages duplicated at this sender
  std::uint64_t crashes = 0;           ///< 0 or 1: this rank fail-stopped
  std::uint64_t drains = 0;            ///< 0 or 1: this rank drained out
  std::uint64_t joins = 0;             ///< 0 or 1: this rank joined mid-run
  std::uint64_t partition_delays = 0;  ///< cross-cut ops delayed to heal time
  std::uint64_t partition_delay_ns_total = 0;  ///< total added delay (ns)
};

/// One injected fault, timestamped in Ctx time (virtual ns under the
/// simulator). Collected per rank; the ws driver merges them into an
/// attached trace::Trace.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kStall,
    kSpike,
    kMsgDrop,
    kMsgDup,
    kCrash,
    kDrain,           ///< this rank drained out of the membership
    kJoin,            ///< this rank joined the membership
    kPartitionDelay,  ///< a cross-cut op was delayed until heal (ns = delay)
  };
  std::uint64_t t_ns = 0;
  Kind kind = Kind::kStall;
  std::uint64_t ns = 0;  ///< stall duration / extra latency (0 for messages)
};

/// Per-rank fault source. Engines construct one per rank when the plan has
/// any fault enabled and attach it to that rank's Ctx.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t run_seed, int rank);

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return c_; }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Interaction-point hook: returns the duration (ns of Ctx time) this
  /// rank must freeze for right now, or 0. The caller charges the time.
  std::uint64_t stall_due(std::uint64_t now_ns);

  /// Remote-op hook: returns `base_ns` possibly inflated by a heavy-tail
  /// latency spike.
  std::uint64_t spiked(std::uint64_t base_ns, std::uint64_t now_ns);

  /// Message hook: should this outgoing message be lost on the wire?
  bool drop_message(std::uint64_t now_ns);

  /// Message hook: if the message should be duplicated, returns the extra
  /// wire delay of the duplicate relative to the original's arrival
  /// (always > 0); returns 0 for no duplication. `wire_ns` is the modeled
  /// latency of the original copy.
  std::uint64_t duplicate_delay(std::uint64_t wire_ns, std::uint64_t now_ns);

  /// Interaction-point hook: should this rank fail-stop right now?
  /// `in_lock` / `in_steal` describe the rank's current scope so the
  /// kInLock / kMidSteal crash variants can target their windows. Fires at
  /// most once; the caller throws RankCrashed and kills the Ctx.
  bool crash_due(std::uint64_t now_ns, bool in_lock, bool in_steal);

  /// The instant from which crash_due() fires for a rank whose scope stays
  /// (`in_lock`, `in_steal`), or UINT64_MAX when it cannot fire: no crash
  /// is armed here, or the crash's scope excludes the rank's.
  std::uint64_t crash_armed_ns(bool in_lock, bool in_steal) const {
    if (!crash_here_ ||
        (crash_spec_.where == CrashSpec::Where::kInLock && !in_lock) ||
        (crash_spec_.where == CrashSpec::Where::kMidSteal && !in_steal))
      return UINT64_MAX;
    return crash_spec_.at_ns;
  }

  /// Safe-point hook: should this rank gracefully drain right now? Workers
  /// poll it only where no lock is held, no barrier is entered, and no
  /// steal is in flight. Fires at most once; the caller calls Ctx::leave()
  /// and exits its loop.
  bool drain_due(std::uint64_t now_ns);

  /// Join time of this rank (0 = a founding member, present from t=0).
  std::uint64_t join_at_ns() const { return join_here_ ? join_at_ns_ : 0; }

  /// Called once by a joining rank when it enters the membership.
  void note_joined(std::uint64_t now_ns);

  /// Cross-cut communication hook: extra delay (ns) an op from this rank to
  /// `peer`, initiated at `now_ns`, suffers from any active partition — the
  /// time remaining until the latest separating partition heals, 0 when
  /// none applies. Counts one partition_delays event per delayed op.
  std::uint64_t partition_extra_ns(int peer, std::uint64_t now_ns);

 private:
  void record(FaultEvent::Kind kind, std::uint64_t t_ns, std::uint64_t ns);
  /// U[0.5,1.5) scale factor for stall scheduling.
  double scale();

  FaultPlan plan_;
  int rank_ = -1;
  bool stall_here_ = false;  ///< stalls enabled and this rank is targeted
  bool crash_here_ = false;  ///< a CrashSpec targets this rank (and is armed)
  CrashSpec crash_spec_{};   ///< the (first) spec targeting this rank
  bool drain_here_ = false;  ///< a DrainSpec targets this rank (and is armed)
  std::uint64_t drain_at_ns_ = 0;
  bool join_here_ = false;  ///< this rank starts outside the membership
  std::uint64_t join_at_ns_ = 0;
  std::mt19937_64 rng_;
  std::uint64_t next_stall_ns_ = 0;
  FaultCounters c_;
  std::vector<FaultEvent> events_;
};

}  // namespace upcws::pgas
