// Execution-engine abstraction: the UPC-thread programming surface.
//
// Every load-balancing algorithm in src/ws is written once against Ctx and
// runs unchanged on three engines:
//
//   * SimEngine    — cooperative fibers with a virtual clock (src/sim), one
//                    SimCtx per rank. Remote references, locks, and polling
//                    advance virtual time per the NetModel; the run's
//                    "elapsed time" is the simulated makespan. This is how
//                    the paper's scaling studies are reproduced on one
//                    physical core.
//   * PsimEngine   — the same simulation sharded over OS worker threads
//                    (src/psim). Its PsimCtx is a SimCtx that ships
//                    cross-shard mediated ops to the owner's worker; runs
//                    are byte-identical to SimEngine.
//   * ThreadEngine — real std::thread execution with real synchronization,
//                    one ThreadCtx per rank. Used by tests to validate the
//                    protocols under genuine preemption and memory-ordering
//                    pressure.
//
// Ctx mirrors the UPC features the paper leans on:
//   shared-variable references with affinity-dependent cost   -> charge_ref
//   one-sided bulk memput/memget                              -> bulk_get/put
//   upc_lock_t with affinity                                  -> Lock + lock()
//   spinning on shared state (barriers, flags)                -> poll loops
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "pgas/shared.hpp"
#include "sim/schedule_policy.hpp"

namespace upcws::pgas {

/// Causality quantum of the simulation engines: a fiber that accumulates
/// this much charged virtual time must yield so ranks further behind in
/// virtual time can catch up before its stores become visible. A cross-rank
/// reference whose modeled cost is at least one quantum therefore always
/// trips the quantum — the actual memory access begins a fresh scheduling
/// slice keyed at the post-charge instant. The parallel PDES engine
/// (src/psim) builds its window protocol on exactly that property; see
/// docs/simulator.md.
inline constexpr std::uint64_t kChargeQuantumNs = 1000;

/// Non-owning reference to a small callable: the raw-memory half of a
/// mediated PGAS operation (one atomic access or one bulk memcpy). Passing
/// it through the virtual Ctx::mediated_op() hook lets an engine decide
/// *where* the access executes — inline for the sequential engines, or
/// shipped to the owning rank's worker thread by the parallel engine. No
/// allocation; the referenced callable must outlive the mediated_op() call
/// (it always does: the op is a lambda in the caller's frame).
class OpRef {
 public:
  template <typename F>
  OpRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* p) { (*static_cast<std::remove_reference_t<F>*>(p))(); }) {}
  void operator()() const { call_(obj_); }

 private:
  void* obj_;
  void (*call_)(void*);
};

/// The empty OpRef: an op with nothing more to do.
inline constexpr struct NoOp {
  void operator()() const {}
} kNoOp{};

/// A UPC-style lock with affinity. The lock word is always manipulated via
/// Ctx so every engine and the cost model see every operation.
///
/// The lock word packs a 32-bit *epoch* above the holder id. Under crash
/// injection (RunConfig::faults.crashes) every hold also publishes a lease
/// deadline; once the holder is seen dead by the liveness board *and* its
/// lease has expired, a contender revokes the lock by CASing in a bumped
/// epoch. A stale unlock from the revoked epoch then fails its CAS (the
/// holder field no longer matches) and is rejected — a crashed-then-revoked
/// holder can never release a lock someone else now owns. Without crash
/// injection the epoch stays 0 and the word behaves exactly like the old
/// plain holder word.
struct Lock {
  /// epoch << 32 | (holder + 1); low half 0 = free.
  std::atomic<std::uint64_t> word{0};
  /// Lease deadline (Ctx time) of the current hold; only maintained when
  /// crash injection is active.
  std::atomic<std::uint64_t> lease_expiry_ns{0};
  /// Affinity: the rank where this lock "lives" (remote acquisition of a
  /// lock owned elsewhere pays network round trips).
  int owner = 0;

  static constexpr int kFree = -1;

  static constexpr std::uint64_t pack(std::uint32_t epoch, int holder) {
    return (static_cast<std::uint64_t>(epoch) << 32) |
           static_cast<std::uint32_t>(holder + 1);
  }
  static constexpr int holder_of(std::uint64_t w) {
    return static_cast<int>(w & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t epoch_of(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }

  /// Current holder (kFree if free) — diagnostics only.
  int holder() const {
    return holder_of(word.load(std::memory_order_relaxed));
  }
  /// Current epoch (bumped once per revocation) — diagnostics only.
  std::uint32_t epoch() const {
    return epoch_of(word.load(std::memory_order_relaxed));
  }
};

/// Passive telemetry sink notified by the engines at interaction points
/// (see src/obs). Every hook is pure observation: implementations must not
/// charge time, block, or touch protocol state, and the engines call them
/// *after* all cost accounting for the interaction — so a run with a sink
/// attached is byte-identical (same clocks, same schedule) to one without.
///
/// Threading: hooks are invoked from the rank's own fiber (sim) or thread
/// (threads), so per-rank sink state needs no synchronization as long as
/// ranks never touch each other's slots.
class ObsSink {
 public:
  virtual ~ObsSink() = default;

  /// Interaction point on `rank` at local time `now_ns` (every yield and
  /// every accumulated charge quantum). Sampling cadence is the sink's job.
  virtual void on_tick(int rank, std::uint64_t now_ns) = 0;

  /// A blocking lock() on `rank` was contended and finally acquired at
  /// `now_ns` after `wait_ns` of spinning. Uncontended acquisitions are not
  /// reported.
  virtual void on_lock_wait(int rank, std::uint64_t now_ns,
                            std::uint64_t wait_ns) = 0;

  /// An injected fault stall of `stall_ns` was applied on `rank` starting
  /// at local time `t_ns`.
  virtual void on_stall(int rank, std::uint64_t t_ns,
                        std::uint64_t stall_ns) = 0;

  /// Mediated remote-operation kinds, for volume accounting by the sink.
  enum class OpKind : std::uint8_t {
    kGet,
    kPut,
    kAdd,
    kCas,
    kBulkGet,
    kBulkPut,
  };
  static const char* op_kind_name(OpKind k) {
    switch (k) {
      case OpKind::kGet: return "get";
      case OpKind::kPut: return "put";
      case OpKind::kAdd: return "add";
      case OpKind::kCas: return "cas";
      case OpKind::kBulkGet: return "bulk_get";
      case OpKind::kBulkPut: return "bulk_put";
    }
    return "?";
  }

  /// A mediated remote op of `kind` issued by `rank` (toward data owned by
  /// `owner`) finished at local time `now_ns`, all costs already charged.
  /// Default no-op so existing sinks are unaffected.
  virtual void on_remote_op(int rank, int owner, OpKind kind,
                            std::uint64_t now_ns) {
    (void)rank;
    (void)owner;
    (void)kind;
    (void)now_ns;
  }

  /// One conservative-PDES window as closed by the psim barrier (see
  /// src/psim). Reported from the single-threaded barrier completion, after
  /// the window's events were delivered and the next bound computed.
  struct PsimWindow {
    std::uint64_t index = 0;     ///< 0-based window number
    std::uint64_t begin_ns = 0;  ///< virtual-time bound the window opened at
    std::uint64_t end_ns = 0;    ///< bound it closed at (begin of the next)
    std::uint64_t events = 0;    ///< cross-shard events delivered at the barrier
    int shards = 0;
    std::uint64_t min_shard_switches = 0;  ///< occupancy imbalance: fewest…
    std::uint64_t max_shard_switches = 0;  ///< …and most fiber switches any
                                           ///< shard made during the window
  };

  /// A psim window barrier completed. Single-threaded context; must not
  /// touch per-rank sink slots. Default no-op.
  virtual void on_psim_window(const PsimWindow& w) { (void)w; }

  /// PsimEngine declined the parallel path and ran the serial lane instead.
  /// `reason` is a static string (see PsimEngine::fallback_reason). Called
  /// once per run, before any rank starts. Default no-op.
  virtual void on_psim_fallback(const char* reason) { (void)reason; }
};

struct RunConfig;
class RunFaults;

/// Per-rank execution context handed to the algorithm body. The base owns
/// the rank's identity, its RNG, the lock-word protocol and the run's fault
/// state; an engine supplies the clock, charging, yielding and lock().
class Ctx {
 public:
  virtual ~Ctx() = default;

  int rank() const { return rank_; }
  int nranks() const { return nranks_; }
  const NetModel& net() const { return net_; }

  /// Elapsed time for this rank: virtual ns (sim) or wall ns (threads).
  virtual std::uint64_t now_ns() = 0;

  /// Account `ns` of local computation/communication time.
  /// Sim: advances the virtual clock. Threads: no-op (real time passes by
  /// itself) unless delay injection is enabled.
  virtual void charge(std::uint64_t ns) = 0;

  /// Interaction point: let other ranks run. Poll loops must call this.
  virtual void yield() = 0;

  /// Acquire `l`, blocking. Charges affinity-dependent round-trip costs and
  /// spins (with yield) while contended.
  virtual void lock(Lock& l) = 0;

  /// Single acquisition attempt: one mediated reference to the lock word.
  bool try_lock(Lock& l) {
    bool ok = false;
    ref_op(l.owner, [&] { ok = lock_word_acquire(l); });
    return ok;
  }

  /// Release `l`; must hold it. One mediated reference to the lock word.
  void unlock(Lock& l);

  /// Deterministic per-rank random stream (probe order etc.); seeded from
  /// (RunConfig::seed, rank) so simulation runs are exactly reproducible.
  std::mt19937_64& rng() { return rng_; }

  /// One whole mediated access: charge `cost_ns` (already jitter- and
  /// partition-adjusted) and run `op` against `owner`'s memory. Default:
  /// the charge's quantum yield ends the current slice and the op executes
  /// inline at the post-charge slice key — the sequential semantics. The
  /// parallel engine overrides this to ship the op to the owner's worker
  /// *at charge time* (the op is keyed at the post-charge instant, which
  /// lies at least one lookahead beyond the current conservative window,
  /// so shipping from the pre-charge slice is what makes barrier-deferred
  /// delivery sound) and to park the caller across the charge.
  virtual void mediated_op(int owner, std::uint64_t cost_ns, OpRef op) {
    (void)owner;
    charge(cost_ns);
    op();
  }

  /// One small reference to `owner`'s memory whose access is `op`: a
  /// protocol step that reads or updates several of the owner's fields at
  /// once (a lock word, a victim's stack bookkeeping). Charged like one
  /// shared-variable reference; not counted as a remote op.
  void ref_op(int owner, OpRef op) { mediated_op(owner, ref_cost_ns(owner), op); }

  /// Virtual time at which the currently executing scheduling slice began
  /// (the slice's ready-queue key). Simulation engines override this;
  /// default is now_ns(). mp::Comm stamps outgoing messages with it so
  /// receivers can reconstruct the sequential engine's deterministic
  /// delivery order independent of physical enqueue order.
  virtual std::uint64_t slice_now_ns() { return now_ns(); }

  /// Monotone per-rank message sequence number (consumed by mp::Comm to
  /// break delivery-order ties between messages of one sending slice).
  std::uint64_t next_msg_seq() { return msg_seq_++; }

  /// This rank's fault injector, or nullptr when fault injection is off
  /// (RunConfig::faults all-zero). Engines attach it before running the
  /// body; algorithm code may consult the plan (e.g. for control-message
  /// redundancy) but must not mutate it.
  FaultInjector* faults() const { return faults_; }

  // ------- crash-fault surface (null/false unless crashes are injected) ---

  /// The run's shared liveness board, or nullptr when no crash is injected.
  /// Algorithms use its presence as the "crash mode" flag: every
  /// crash-tolerance code path is gated on it so a crash-free plan stays
  /// byte-identical to a run with no plan at all.
  Liveness* liveness() const { return live_; }

  /// True once this rank's injected crash has fired (the Ctx is dead:
  /// charges, stores, unlocks, and sends are suppressed while the stack
  /// unwinds).
  bool crashed() const { return dead_; }

  /// Does this rank currently see rank `r` as dead?
  bool rank_dead(int r) {
    return live_ != nullptr && live_->dead(r, now_ns());
  }

  /// Is rank `r` currently outside the membership — dead (as this rank sees
  /// it) or not yet joined? Use for victim selection, barrier targets, and
  /// push targets; use rank_dead() where the distinction matters (a
  /// not-yet-joined rank still reads its mailbox eventually, a dead one
  /// never will — and only truly dead ranks may be salvaged).
  bool rank_absent(int r) {
    return live_ != nullptr && live_->absent(r, now_ns());
  }

  /// Graceful drain: publish this rank's departure on the liveness board
  /// without killing the Ctx (unlike a crash, the worker exits its loop in
  /// an orderly way and its remaining work is handed off by the survivors
  /// through the recovery board). No-op without a liveness board.
  void leave() {
    if (live_ != nullptr) live_->mark_dead(rank(), now_ns());
  }

  /// Join protocol, called once by a joining rank when its join time
  /// arrives and before its first protocol action: raises the liveness
  /// board's joined flag and stamps the join in the fault log.
  void note_joined() {
    if (live_ != nullptr) live_->mark_joined(rank());
    if (faults_ != nullptr) faults_->note_joined(now_ns());
  }

  /// Mark entry/exit of a steal transfer so CrashSpec::Where::kMidSteal can
  /// target it (see StealScope).
  void set_steal_scope(bool on) { in_steal_ = on; }

  /// Locks this rank revoked from dead holders / own unlocks rejected
  /// because the lock had been revoked underneath us.
  std::uint64_t locks_revoked() const { return locks_revoked_; }
  std::uint64_t stale_unlocks() const { return stale_unlocks_; }

  /// Timestamped revocations this rank performed (for trace merging).
  struct RevokeEvent {
    std::uint64_t t_ns;
    int dead_holder;
  };
  const std::vector<RevokeEvent>& revocations() const { return revoke_log_; }

  // ------- convenience cost helpers (shared-memory abstraction à la UPC) --

  /// Apply the cost model's timing jitter — and any fault-plan latency
  /// spike — to a base remote-op cost. Deterministic per (seed, rank, call
  /// sequence).
  std::uint64_t jittered(std::uint64_t base) {
    std::uint64_t v = base;
    const double f = net().jitter_frac;
    if (f > 0.0 && base > 0) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      v = base + static_cast<std::uint64_t>(static_cast<double>(base) * f *
                                            u(rng()));
    }
    if (faults_ != nullptr) v = faults_->spiked(v, now_ns());
    return v;
  }

  /// Full modeled cost of one small shared-variable reference to data owned
  /// by `owner`: base latency, timing jitter, injected spikes, and — when a
  /// partition separates this rank from `owner` — the wait until it heals.
  std::uint64_t ref_cost_ns(int owner) {
    std::uint64_t c = jittered(net().ref_ns(rank(), owner));
    if (faults_ != nullptr) c += faults_->partition_extra_ns(owner, now_ns());
    return c;
  }

  /// Charge one small shared-variable reference to data owned by `owner`.
  /// An active partition separating this rank from `owner` stalls the op
  /// until the partition heals (the extra charge jumps the clock to heal
  /// time, so the access completes after it).
  void charge_ref(int owner) { charge(ref_cost_ns(owner)); }

  /// Charge one local poll-loop iteration.
  void charge_poll() { charge(net().poll_ns); }

  /// Charge one tree-node visit (SHA-1 + stack work); honours straggler
  /// slowdown for this rank. Also feeds the progress watchdog: node visits
  /// are the global progress measure (RunConfig::watchdog_ns).
  void charge_node_work() {
    note_progress();
    charge(net().work_ns(rank()));
  }

  /// One-sided bulk get: copy `bytes` from memory with affinity `owner`
  /// into local memory, charging latency + bandwidth. The caller's protocol
  /// must guarantee the source region is quiescent (that is exactly what
  /// the paper's chunk-reservation / request-response protocols establish).
  /// `then` runs at the owner in the same op, after the copy.
  void bulk_get(void* dst, const void* src, std::size_t bytes, int owner,
                OpRef then = kNoOp);

  /// One-sided bulk put: mirror image of bulk_get.
  void bulk_put(void* dst, const void* src, std::size_t bytes, int owner);

  // ------- shared words (pgas::Shared), mediated at their owner ----------

  /// Atomic load/store of a shared word with cost accounting. Mutations
  /// from a dead (crashed) Ctx are suppressed: destructors unwinding on the
  /// crashed rank's stack must not become visible to the survivors.
  template <typename T>
  T get(const Shared<T>& w) {
    T out{};
    mediated_op(w.owner(), ref_cost_ns(w.owner()),
                [&] { out = w.v_.load(std::memory_order_acquire); });
    note_remote_op(w.owner(), ObsSink::OpKind::kGet);
    return out;
  }
  /// `then` runs at the owner in the same op, after the store: a protocol
  /// step that must land together with it.
  template <typename T>
  void put(Shared<T>& w, T x, OpRef then = kNoOp) {
    if (dead_) return;
    mediated_op(w.owner(), ref_cost_ns(w.owner()), [&] {
      w.v_.store(x, std::memory_order_release);
      then();
    });
    note_remote_op(w.owner(), ObsSink::OpKind::kPut);
  }
  /// Atomic fetch-add on a shared word (one network round trip when
  /// remote). Returns the previous value.
  template <typename T>
  T add(Shared<T>& w, T delta) {
    if (dead_) return w.v_.load(std::memory_order_acquire);
    T out{};
    mediated_op(w.owner(), ref_cost_ns(w.owner()), [&] {
      out = w.v_.fetch_add(delta, std::memory_order_acq_rel);
    });
    note_remote_op(w.owner(), ObsSink::OpKind::kAdd);
    return out;
  }
  /// Atomic compare-exchange of a shared word (one network round trip when
  /// remote). Returns true on success; `expected` updated as usual.
  template <typename T>
  bool cas(Shared<T>& w, T& expected, T desired) {
    if (dead_) return false;
    bool ok = false;
    mediated_op(w.owner(), ref_cost_ns(w.owner()), [&] {
      ok = w.v_.compare_exchange_strong(expected, desired,
                                        std::memory_order_acq_rel);
    });
    note_remote_op(w.owner(), ObsSink::OpKind::kCas);
    return ok;
  }

  // ------- this rank's own shared words ----------------------------------
  //
  // Each throws std::logic_error unless `w` lives at this rank, and charges
  // what one access of its kind costs the owner: nothing (a read an earlier
  // charge covers), one poll-loop iteration, or one local reference.

  /// Read, uncharged.
  template <typename T>
  T peek(const Shared<T>& w) const {
    return own(w).load(std::memory_order_acquire);
  }
  /// One poll-loop iteration: a poll's charge, then the read.
  template <typename T>
  T poll(const Shared<T>& w) {
    auto& a = own(w);
    charge_poll();
    return a.load(std::memory_order_acquire);
  }
  /// Store, at one local reference.
  template <typename T>
  void put_local(Shared<T>& w, T x) {
    auto& a = own(w);
    charge(net().local_ref_ns);
    a.store(x, std::memory_order_release);
  }
  /// Compare-exchange, at one local reference.
  template <typename T>
  bool cas_local(Shared<T>& w, T& expected, T desired) {
    auto& a = own(w);
    charge(net().local_ref_ns);
    return a.compare_exchange_strong(expected, desired,
                                     std::memory_order_acq_rel);
  }
  /// Fetch-and, at one local reference. Returns the previous value.
  template <typename T>
  T and_local(Shared<T>& w, T mask) {
    auto& a = own(w);
    charge(net().local_ref_ns);
    return a.fetch_and(mask, std::memory_order_acq_rel);
  }

 protected:
  /// The rank's identity; the RNG is seeded here, once, from (seed, rank).
  Ctx(int rank, int nranks, const NetModel& net, std::uint64_t seed)
      : rank_(rank),
        nranks_(nranks),
        net_(net),
        rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rank)) {}

  /// Identity from `cfg`, plus this rank's share of the run's fault set-up
  /// and the telemetry sink.
  Ctx(int rank, const RunConfig& cfg, const RunFaults& faults);

  /// Hook for the progress watchdog (node-count progress); engines that
  /// support the watchdog override this. Must be free of cost accounting.
  virtual void note_progress() {}

  /// The atomic of `w` (a Shared<T>, maybe const), which must live at
  /// this rank (see peek()).
  template <typename W>
  auto& own(W& w) const {
    if (w.owner() != rank_)
      throw std::logic_error("pgas: rank " + std::to_string(rank_) +
                             " made a local access to a word of rank " +
                             std::to_string(w.owner()));
    return w.v_;
  }

  /// Report a finished mediated op to the sink (pure observation: runs
  /// after all cost accounting; now_ns() only reads the clock).
  void note_remote_op(int owner, ObsSink::OpKind kind) {
    if (obs_ != nullptr) obs_->on_remote_op(rank(), owner, kind, now_ns());
  }

  /// Engines call this from charge()/yield(). When the rank's injected
  /// crash fires, flips the Ctx into dead mode, publishes the death on the
  /// liveness board, and throws RankCrashed.
  void maybe_crash() {
    if (dead_ || faults_ == nullptr || live_ == nullptr) return;
    // Never throw from a charge made by an unlock or by a destructor during
    // unwinding (both would std::terminate). The crash simply fires at the
    // next safe interaction point instead.
    if (in_unlock_ || std::uncaught_exceptions() > 0) return;
    const std::uint64_t t = now_ns();
    if (!faults_->crash_due(t, lock_depth_ > 0, in_steal_)) return;
    dead_ = true;
    live_->mark_dead(rank(), t);
    throw RankCrashed{rank(), t};
  }

  /// One acquisition attempt on the packed lock word; shared by every
  /// engine. In crash mode a held lock whose holder is detected dead and
  /// whose lease has expired is revoked — acquired under a bumped epoch in
  /// a single CAS, so exactly one contender wins the revocation.
  bool lock_word_acquire(Lock& l) {
    std::uint64_t w = l.word.load(std::memory_order_acquire);
    if (Lock::holder_of(w) == Lock::kFree) {
      if (!l.word.compare_exchange_strong(
              w, Lock::pack(Lock::epoch_of(w), rank()),
              std::memory_order_acq_rel))
        return false;
    } else {
      if (live_ == nullptr) return false;
      const int h = Lock::holder_of(w);
      const std::uint64_t now = now_ns();
      if (now < revocable_ns(l, h))
        return false;  // live holder, or dead one still within its lease
      if (!l.word.compare_exchange_strong(
              w, Lock::pack(Lock::epoch_of(w) + 1, rank()),
              std::memory_order_acq_rel))
        return false;  // raced with the holder's release or another revoker
      ++locks_revoked_;
      if (revoke_log_.size() < 1024) revoke_log_.push_back({now, h});
    }
    if (live_ != nullptr)
      l.lease_expiry_ns.store(now_ns() + lease_ns_, std::memory_order_release);
    ++lock_depth_;
    return true;
  }

  /// The lease rule of lock_word_acquire (crash mode only): the instant
  /// from which a hold of `l` by `holder` may be revoked — once the holder
  /// is seen dead (its death plus the detection latency) and its lease has
  /// expired — or UINT64_MAX while the holder lives.
  std::uint64_t revocable_ns(const Lock& l, int holder) const {
    const std::uint64_t d = live_->death_ns(holder);
    if (d == Liveness::kAlive) return UINT64_MAX;
    return std::max(d + live_->detect_ns(),
                    l.lease_expiry_ns.load(std::memory_order_acquire));
  }

  /// Release the packed lock word. A release whose epoch was revoked out
  /// from under the caller is rejected (counted, not applied): the lock now
  /// belongs to the revoker.
  void lock_word_release(Lock& l) {
    if (lock_depth_ > 0) --lock_depth_;
    std::uint64_t w = l.word.load(std::memory_order_acquire);
    if (Lock::holder_of(w) != rank() ||
        !l.word.compare_exchange_strong(w,
                                        Lock::pack(Lock::epoch_of(w),
                                                   Lock::kFree),
                                        std::memory_order_acq_rel))
      ++stale_unlocks_;
  }

  /// Set by the engine before the body runs when RunConfig::faults has any
  /// fault enabled; otherwise stays null and every hook is skipped.
  FaultInjector* faults_ = nullptr;

  /// Telemetry sink (RunConfig::obs); null disables every observation hook.
  ObsSink* obs_ = nullptr;

  /// Crash-mode state; all null/zero (and every gate skipped) unless the
  /// plan injects crashes.
  Liveness* live_ = nullptr;
  std::uint64_t lease_ns_ = 0;
  bool dead_ = false;
  int lock_depth_ = 0;
  bool in_steal_ = false;
  bool in_unlock_ = false;
  std::uint64_t locks_revoked_ = 0;
  std::uint64_t stale_unlocks_ = 0;
  std::vector<RevokeEvent> revoke_log_;

 private:
  const int rank_;
  const int nranks_;
  const NetModel& net_;
  std::mt19937_64 rng_;
  std::uint64_t msg_seq_ = 0;
};

/// RAII guard for Lock acquisition through a Ctx (never plain
/// lock()/unlock() in algorithm code — Core Guidelines CP.20). Use
/// std::optional<LockGuard>::emplace for conditionally locked sections.
class LockGuard {
 public:
  LockGuard(Ctx& c, Lock& l) : c_(c), l_(l) { c_.lock(l_); }
  ~LockGuard() { c_.unlock(l_); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Ctx& c_;
  Lock& l_;
};

/// RAII marker for a steal transfer in progress, so an injected
/// CrashSpec::Where::kMidSteal lands inside the window where work is in
/// flight between two stacks.
class StealScope {
 public:
  explicit StealScope(Ctx& c) : c_(c) { c_.set_steal_scope(true); }
  ~StealScope() { c_.set_steal_scope(false); }
  StealScope(const StealScope&) = delete;
  StealScope& operator=(const StealScope&) = delete;

 private:
  Ctx& c_;
};

/// Per-run configuration shared by every engine.
struct RunConfig {
  int nranks = 4;
  NetModel net{};
  /// Seed for per-rank algorithm RNGs (probe order).
  std::uint64_t seed = 1;
  /// Sim only: abort if any virtual clock exceeds this; 0 = 10^13 ns guard.
  std::uint64_t vt_limit_ns = 0;
  /// Sim only: fiber stack size.
  std::size_t fiber_stack_bytes = 256 * 1024;
  /// Fault-injection plan, seeded from (seed, rank); all-zero (default)
  /// disables injection entirely — see pgas/faults.hpp. Stalls and message
  /// drop/dup work under both engines; latency spikes need the cost model
  /// (sim, or threads with delay injection).
  FaultPlan faults{};
  /// Sim only: progress watchdog. If no rank visits a tree node for this
  /// much virtual time, the scheduler aborts with a structured hang report
  /// (sim::HangDetected) instead of spinning to the time limit. 0 disables.
  std::uint64_t watchdog_ns = 0;
  /// Optional extra detail appended to the watchdog's hang report (e.g. the
  /// ws driver snapshots per-rank protocol state). Called from scheduler
  /// context with no fiber running.
  std::function<std::string()> hang_reporter{};
  /// Shared liveness board for crash injection. May be supplied by the
  /// caller (so post-run code and hang reporters can read it); if left null
  /// while faults.crashes is non-empty, the engine creates a board that
  /// lives for the duration of run().
  Liveness* liveness = nullptr;
  /// Lock lease duration under crash injection: a dead holder's lock may be
  /// revoked once its lease has expired. 0 = engine default (1 ms of Ctx
  /// time). Ignored when no crash is injected.
  std::uint64_t lock_lease_ns = 0;
  /// Sim only: scheduling-decision hook for systematic schedule exploration
  /// (src/check). Not owned; must outlive run(). Null = the original
  /// deterministic min-vt order, byte-identical to pre-hook builds.
  sim::SchedulePolicy* schedule_policy = nullptr;
  /// Sim only, policy runs: fairness window for candidate selection — only
  /// ranks within this many ns of the minimum virtual clock are offered to
  /// the policy. 0 = unbounded (see sim::Scheduler::Config::policy_window_ns).
  std::uint64_t schedule_window_ns = 0;
  /// Sim only: when non-null, receives the run's scheduling-decision trail
  /// (also on abnormal exit — HangDetected / TimeLimitExceeded propagate
  /// *after* the trail is copied out, so the failing schedule is replayable).
  std::vector<sim::Decision>* decision_trail = nullptr;
  /// Telemetry sink notified at interaction points (null = no telemetry;
  /// zero cost and byte-identical timing either way). Not owned; must
  /// outlive run(). See ObsSink and src/obs.
  ObsSink* obs = nullptr;
  /// Promise that the SPMD body performs every cross-rank memory access
  /// through the mediated Ctx surface (Shared words, locks, bulk_get/put)
  /// or mp::Comm — never by dereferencing another rank's memory directly.
  /// Set by ws::run_search unless the problem's expansion shares state
  /// across ranks outside Ctx (ws::Problem::shares_state()). The parallel
  /// PDES engine (src/psim) requires it to shard ranks across OS workers
  /// and silently falls back to the sequential engine when false. Ignored
  /// by SimEngine and ThreadEngine.
  bool remote_ops_mediated = false;
};

/// The fault set-up of one run, built once per run by every engine: a
/// FaultInjector per rank when the plan enables any fault, the liveness
/// board that crash and membership plans need, and the lock lease. Must
/// outlive every Ctx of the run.
class RunFaults {
 public:
  explicit RunFaults(const RunConfig& cfg);

  /// `rank`'s injector, or nullptr when the plan is all-zero.
  FaultInjector* injector(int rank) const { return injectors_[rank].get(); }
  /// The run's liveness board, or nullptr unless the plan injects crashes
  /// or membership changes.
  Liveness* liveness() const { return live_; }
  /// RunConfig::lock_lease_ns, or its 1 ms default.
  std::uint64_t lease_ns() const { return lease_ns_; }

 private:
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::unique_ptr<Liveness> own_live_;
  Liveness* live_ = nullptr;
  std::uint64_t lease_ns_;
};

struct RunResult {
  /// Simulated makespan (sim) or wall time (threads), seconds.
  double elapsed_s = 0.0;
  /// Scheduler context switches (sim; 0 for threads).
  std::uint64_t switches = 0;
};

/// An engine executes one SPMD body on nranks ranks.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual RunResult run(const RunConfig& cfg,
                        const std::function<void(Ctx&)>& body) = 0;
  virtual const char* name() const = 0;
};

}  // namespace upcws::pgas
