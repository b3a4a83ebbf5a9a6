// The message-passing work-stealing baseline (paper §3.2; Dinan et al. [2]).
//
// Thieves send explicit steal-request messages; working threads poll their
// inbox every poll_interval nodes and answer with a chunk of work or a
// rejection. Global termination uses a Dijkstra-style (EWD840) token ring
// (ws/token_worker.hpp, shared with work-push), hardened for asynchronous
// channels with per-transfer acknowledgements: a rank holds the token while
// it is active *or* has unacknowledged work transfers outstanding, so a
// white token returning to rank 0 really means the system is quiescent.
#pragma once

#include "mp/comm.hpp"
#include "pgas/engine.hpp"
#include "stats/stats.hpp"
#include "ws/config.hpp"
#include "ws/problem.hpp"
#include "ws/recovery.hpp"
#include "ws/stealstack.hpp"

namespace upcws::ws {

/// Run one rank of mpi-ws to termination. `stack` is this rank's private
/// DFS stack (no shared region semantics are used — all transfers go
/// through messages).
///
/// `board` (non-null only under crash injection, and effective only with
/// the hardened protocol) enables crash-fault tolerance: transfers are
/// journaled as lineage records, survivors salvage dead ranks' stacks —
/// modeled as a resilient store, after the relocatable collections of
/// resilient APGAS runtimes — and the EWD840 ring skips dead ranks with
/// leadership falling to the lowest live rank.
stats::ThreadStats run_mpi_rank(pgas::Ctx& ctx, mp::Comm& comm,
                                StealStack& stack, const Problem& prob,
                                const WsConfig& cfg,
                                RecoveryBoard* board = nullptr);

}  // namespace upcws::ws
