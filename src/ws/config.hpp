// Algorithm selection and tuning knobs.
//
// The five labels of the paper's Figure 3 map onto three orthogonal choices
// (plus the message-passing baseline):
//
//   label            stack protocol     steal amount   termination
//   --------------   ----------------   ------------   --------------------
//   upc-sharedmem    locked             one chunk      cancelable barrier
//   upc-term         locked             one chunk      probe-then-barrier
//   upc-term-rapdif  locked             half chunks    probe-then-barrier
//   upc-distmem      request/response   half chunks    probe-then-barrier
//   mpi-ws           message passing    one chunk      Dijkstra-style token
//
// Extensions beyond Figure 3 (work-push, lifeline, sampling) reuse the same
// axes plus a victim-selection policy; see the Algo enum.
//
// WsConfig exposes the choices independently so ablation benches can also
// evaluate off-diagonal combinations.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace upcws::trace {
class Trace;
}

namespace upcws::obs {
class Observer;
}

namespace upcws::ws {

struct SharedState;
class RecoveryBoard;

enum class Algo {
  kUpcSharedMem,
  kUpcTerm,
  kUpcTermRapdif,
  kUpcDistMem,
  kMpiWs,
  /// Extension (not in the paper's Figure 3): randomized work *pushing* in
  /// the spirit of Chakrabarti & Yelick (paper ref [16]) — workers push
  /// surplus chunks to random targets; idle threads wait. A baseline that
  /// shows why the paper bets on stealing for unbalanced trees.
  kWorkPush,
  /// Extension: lifeline-graph load balancing (APGAS/GLB line). Idle ranks
  /// park on a hypercube lifeline graph instead of spin-probing random
  /// victims; a victim that gains surplus wakes one distressed lifeline
  /// neighbor, which then pulls through the normal request/response steal.
  kLifeline,
  /// Extension: sampling/quantile victim selection. A thief probes a random
  /// sample of `sample_frac` of the other ranks and steals from the rank at
  /// the `quantile` point of the sampled load distribution.
  kSampling,
};

/// Number of Algo enum members. Keep in sync with the enum above;
/// static_asserts below pin the canonical list to it.
inline constexpr int kAlgoCount = 8;

/// Figure-3 label for an algorithm ("work-push" for the extension).
const char* algo_label(Algo a);

/// The paper's five Figure-3 algorithms, in improvements-ladder order.
inline constexpr Algo kAllAlgos[] = {
    Algo::kUpcSharedMem, Algo::kUpcTerm, Algo::kUpcTermRapdif,
    Algo::kUpcDistMem, Algo::kMpiWs};

/// All implemented algorithms, including extensions — THE canonical list.
/// Every loop over "all variants" (soaks, benches, label parsing, oracles)
/// must iterate this array (or kAllAlgos for paper-figure-only sweeps), so
/// a new variant lands everywhere by being appended here.
inline constexpr Algo kAllAlgosExtended[] = {
    Algo::kUpcSharedMem, Algo::kUpcTerm,  Algo::kUpcTermRapdif,
    Algo::kUpcDistMem,   Algo::kMpiWs,    Algo::kWorkPush,
    Algo::kLifeline,     Algo::kSampling};

static_assert(sizeof(kAllAlgosExtended) / sizeof(kAllAlgosExtended[0]) ==
                  kAlgoCount,
              "kAllAlgosExtended must list every Algo enum member");
static_assert(static_cast<int>(Algo::kSampling) + 1 == kAlgoCount,
              "kAlgoCount out of sync with the Algo enum");

enum class StealAmount {
  kOneChunk,  ///< steal exactly one chunk (§3.1)
  kHalf,      ///< steal half the available chunks, min 1 (§3.3.2)
};

enum class StackProtocol {
  kLocked,           ///< thieves lock the victim's shared region (§3.1)
  kRequestResponse,  ///< lock-less: victim polls a request word (§3.3.3)
};

enum class Termination {
  kCancelableBarrier,  ///< §3.1: barrier that releases cancel on new work
  kProbeBarrier,       ///< §3.3.1: enter barrier only when all appear idle
  kToken,              ///< §3.2: Dijkstra-style token ring (mpi-ws only)
};

/// How an idle rank picks its next victim (UPC family only; the token-ring
/// algorithms keep their own message-driven selection).
enum class VictimPolicy {
  kRandom,    ///< the paper's uniform random permutation sweep
  kLifeline,  ///< park on hypercube lifelines; wait for a victim's wake
  kSampling,  ///< probe a random sample, steal from the load quantile
};

struct WsConfig {
  /// Chunk size k: nodes moved per release/reacquire/steal granule.
  int chunk_size = 20;

  /// Nodes visited between polls of the steal-request word (lock-less
  /// protocol) or the message queue (mpi-ws).
  int poll_interval = 1;

  StealAmount steal_amount = StealAmount::kOneChunk;
  StackProtocol protocol = StackProtocol::kLocked;
  Termination termination = Termination::kCancelableBarrier;
  VictimPolicy victim_policy = VictimPolicy::kRandom;

  // --- victim-selection knobs (lifeline / sampling policies) -------------

  /// kSampling: fraction of the other live ranks a thief probes per
  /// selection round (at least one victim is always sampled). Defaults per
  /// the sampling load-balancer exemplar.
  double sample_frac = 0.5;

  /// kSampling: load quantile of the sampled victims to steal from
  /// (0 = lightest sampled, 1 = heaviest sampled).
  double quantile = 0.8;

  /// kLifeline: cap on the number of hypercube dimensions each rank keeps
  /// lifelines across. 0 = all ceil(log2(nranks)) dimensions. A smaller cap
  /// trims wake fan-out (and may disconnect the lifeline graph, which costs
  /// only steal latency — termination stays exact).
  int lifeline_dim = 0;

  /// §6.2 future-work extension: probe victims on the same SMP node before
  /// probing off-node (the bupc_thread_distance() idea). Only meaningful
  /// with a hierarchical NetModel topology.
  bool locality_first = false;

  /// Selects the work-pushing baseline instead of request/response stealing
  /// when termination == kToken (set by for_algo(Algo::kWorkPush)).
  bool push_based = false;

  /// Work-push only: a worker pushes at most one chunk per this many nodes
  /// visited (and only while it holds at least 2 chunks of surplus).
  int push_interval = 32;

  // --- hardened steal protocols (fault tolerance; off by default) --------

  /// If > 0, enables the hardened protocols: a distmem thief abandons a
  /// steal request unanswered for this long (Ctx-time ns) and re-probes,
  /// and an mpi-ws thief retransmits sequence-numbered requests on this
  /// period. 0 keeps the paper's original protocols bit-for-bit.
  std::uint64_t steal_timeout_ns = 0;

  /// True when the timeout/retry hardening is active.
  bool hardened() const { return steal_timeout_ns > 0; }

  // --- cooperative deadline cancellation (off by default) ----------------

  /// If > 0, every rank cancels the search cooperatively once its Ctx clock
  /// reaches this time (ns since run start). Cancelled ranks stop expanding:
  /// remaining nodes are popped and tallied as Counters::reclaimed instead
  /// of visited, no new steals are initiated, steal requests are denied,
  /// and the normal termination protocol (plus any crash recovery) runs to
  /// completion so no lineage record is left pending. The accounting
  /// invariant `nodes + reclaimed == 1 + spawned` holds whether or not the
  /// deadline fired. 0 keeps every run bit-for-bit identical.
  std::uint64_t cancel_at_ns = 0;

  /// Optional execution trace sink (state changes + load-balancing events);
  /// see trace/trace.hpp. Not owned; must outlive the run.
  trace::Trace* trace = nullptr;

  /// If > 0 and a trace is attached, bound each rank's trace buffer to this
  /// many events (ring semantics: newest win, overwrites are tallied in
  /// Trace::dropped_events and surfaced in the run report).
  std::size_t trace_cap = 0;

  // --- run telemetry (src/obs; off by default) ---------------------------

  /// Optional telemetry observer: metric registries sampled on a
  /// virtual-time cadence, causal steal-transaction spans, and the
  /// state/lock/stall/recovery streams the idle-time autopsy consumes
  /// (docs/observability.md). run_search calls obs->start_run() before the
  /// engine starts. Pure observation: attaching an observer never changes
  /// a run's schedule or results. Not owned; must outlive the run.
  obs::Observer* obs = nullptr;

  /// Sampling cadence (Ctx-time ns) for the observer's metric time-series.
  std::uint64_t obs_sample_ns = 100'000;

  // --- schedule-checking instrumentation (src/check; off by default) -----

  /// Called by run_search once the run's shared structures exist, before
  /// the engine starts: the SharedState for the UPC family (null for
  /// mpi-ws / work-push) and the RecoveryBoard when crash injection is on
  /// (null otherwise). The pointers are valid until check_detach (or until
  /// run_search propagates an exception) — the schedule checker's invariant
  /// oracles probe protocol state through them between fiber slices.
  std::function<void(SharedState*, RecoveryBoard*)> check_attach{};

  /// Called after the engine returns normally, while the shared structures
  /// are still alive — end-of-run oracle checks (no transfer record left
  /// pending, stacks drained) run here. Not called when the run throws.
  std::function<void()> check_detach{};

  /// Test-only protocol sabotage for validating the schedule checker: when
  /// true, the RecoveryBoard's retire/claim arbitration uses a deliberately
  /// non-atomic read-yield-write in place of the claim CAS, opening a
  /// schedule-dependent exactly-once violation (see recovery.hpp).
  bool bug_weak_claim = false;

  /// Test-only protocol sabotage for validating the schedule checker: when
  /// true, a lifeline thief woken by a victim's push starts its pull steal
  /// WITHOUT leaving the termination barrier first — its distress hand-off
  /// is effectively dropped from the barrier's books, so the count can
  /// reach the target while the thief holds freshly stolen work (a
  /// schedule-dependent false termination the barrier-work oracle flags).
  bool bug_drop_distress = false;

  /// Derive the paper's configuration for a Figure-3 label.
  static WsConfig for_algo(Algo a, int chunk_size = 20);

  /// Throws std::invalid_argument on nonsensical settings.
  void validate() const {
    if (chunk_size < 1) throw std::invalid_argument("chunk_size < 1");
    if (poll_interval < 1) throw std::invalid_argument("poll_interval < 1");
    if (!(sample_frac > 0.0) || sample_frac > 1.0)
      throw std::invalid_argument("sample_frac outside (0, 1]");
    if (quantile < 0.0 || quantile > 1.0)
      throw std::invalid_argument("quantile outside [0, 1]");
    if (lifeline_dim < 0) throw std::invalid_argument("lifeline_dim < 0");
  }
};

}  // namespace upcws::ws
