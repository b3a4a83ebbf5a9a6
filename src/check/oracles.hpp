// Invariant oracles: machine-checkable statements of the paper's informal
// correctness argument, probed while the schedule checker drives a run.
//
// Probing discipline: on_step() is invoked by the instrumented schedule
// policy at *every* scheduling step, i.e. between two fiber slices with no
// fiber running. The simulator's fibers are cooperative, so at that instant
// shared state is quiescent and plain relaxed reads give a consistent
// snapshot — the oracle sees every state the protocol ever exposes at an
// interaction point. on_detach() runs once after the SPMD body finished
// (shared structures still alive); on_end() runs on the SearchResult and
// trace after run_search returned.
//
// An oracle reports a violation by throwing OracleViolation, which aborts
// the run (the scheduler cancel-unwinds its fibers) and surfaces in the
// checker with the decision trail that produced it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pgas/faults.hpp"

namespace upcws::pgas {
struct Lock;
}
namespace upcws::trace {
class Trace;
}
namespace upcws::ws {
struct SharedState;
class RecoveryBoard;
struct SearchResult;
}

namespace upcws::check {

/// Thrown by an oracle when an invariant fails; caught by the checker.
struct OracleViolation {
  std::string oracle;   ///< Oracle::name() of the reporter
  std::string message;  ///< what was observed
};

/// What an oracle can see between fiber slices. Pointers may be null:
/// `shared` is null for the message-passing family, `board`/`liveness` are
/// null without crash injection.
struct StepProbe {
  ws::SharedState* shared = nullptr;
  ws::RecoveryBoard* board = nullptr;
  const pgas::Liveness* liveness = nullptr;
  int nranks = 0;
};

/// What an oracle can see after the run completed.
struct EndProbe {
  const ws::SearchResult* result = nullptr;
  const trace::Trace* trace = nullptr;
  std::uint64_t expected_nodes = 0;  ///< sequential-reference node count
  int chunk = 1;                     ///< chunk size k of the run
  bool request_response = false;     ///< protocol emits service grants
  pgas::FaultPlan faults;            ///< the run's fault plan
};

class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual const char* name() const = 0;
  virtual void on_step(const StepProbe&) {}
  virtual void on_detach(const StepProbe&) {}
  virtual void on_end(const EndProbe&) {}
  virtual void reset() {}

 protected:
  [[noreturn]] void fail(const std::string& message) const {
    throw OracleViolation{name(), message};
  }
};

/// Every tree node is visited exactly once: the parallel traversal's total
/// node count equals the sequential reference, crash/recovery replay
/// included. Loss shows as a deficit, a double-count as an excess.
class NodeConservationOracle final : public Oracle {
 public:
  const char* name() const override { return "node-conservation"; }
  void on_end(const EndProbe& p) override;
};

/// Lock epoch monotonicity and single-holder-per-epoch: a lock word's epoch
/// never decreases, at most one revocation happens per slice, and the
/// holder never changes hands within an epoch without passing through free
/// (only a revocation — which bumps the epoch — may transfer a held lock).
class LockEpochOracle final : public Oracle {
 public:
  const char* name() const override { return "lock-epoch"; }
  void on_step(const StepProbe& p) override;
  void reset() override { locks_.clear(), last_.clear(); }

 private:
  std::vector<pgas::Lock*> locks_;
  std::vector<std::uint64_t> last_;
};

/// No barrier completion while releasable or recoverable work exists: at
/// the instant termination is declared (probe-barrier term_root resolves,
/// or the cancelable barrier completes), every steal stack must be empty
/// and no lineage record may still be pending.
class BarrierWorkOracle final : public Oracle {
 public:
  const char* name() const override { return "barrier-work"; }
  void on_step(const StepProbe& p) override;
  void reset() override { declared_ = false; }

 private:
  bool declared_ = false;
};

/// Steal-chunk conservation: chunks move whole (every successful steal is a
/// positive multiple of k), every in-flight transfer is resolved by the end
/// of the run (no lineage record left pending), and granted nodes are
/// accounted for — exactly by steals in crash-free request/response runs,
/// and by steals + replays/salvages under crashes.
class StealConservationOracle final : public Oracle {
 public:
  const char* name() const override { return "steal-conservation"; }
  void on_detach(const StepProbe& p) override;
  void on_end(const EndProbe& p) override;
};

/// Elastic-membership and partition safety. Per step: the salvage word of
/// a rank may only ever leave 0 if that rank actually left the membership
/// (salvaging a live rank's stack would double-execute its work), and at
/// the instant termination is declared no salvage may be mid-flight
/// (claimed but unfinished: the recovered nodes are in no stack, so the
/// barrier would complete over invisible work — the false-termination
/// hazard a healed partition or late drain could open). At the end: each
/// planned drain/join fires at most once, and partition delays occur only
/// when a partition was planned.
class MembershipSafetyOracle final : public Oracle {
 public:
  const char* name() const override { return "membership-safety"; }
  void on_step(const StepProbe& p) override;
  void on_end(const EndProbe& p) override;
  void reset() override { declared_ = false; }

 private:
  bool declared_ = false;
};

/// The default oracle battery (all of the above, in that order).
std::vector<std::unique_ptr<Oracle>> default_oracles();

/// Helpers over a battery.
void oracles_step(const std::vector<std::unique_ptr<Oracle>>& os,
                  const StepProbe& p);
void oracles_detach(const std::vector<std::unique_ptr<Oracle>>& os,
                    const StepProbe& p);
void oracles_end(const std::vector<std::unique_ptr<Oracle>>& os,
                 const EndProbe& p);
void oracles_reset(const std::vector<std::unique_ptr<Oracle>>& os);

}  // namespace upcws::check
