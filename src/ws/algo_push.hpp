// Randomized work *pushing* — extension baseline after Chakrabarti & Yelick
// (paper ref [16]).
//
// The inverse of work stealing: load balancing is driven by the *busy*
// threads, which periodically push a surplus chunk to a uniformly random
// target, whether or not that target needs work. Idle threads simply poll
// their inbox. Termination is mpi-ws's token ring (ws/token_worker.hpp) in
// its unhardened form: the 1-byte token with the ack rule.
//
// On UTS-style workloads this policy wastes transfers (pushes often land on
// busy threads) and leaves idle threads waiting at the mercy of the push
// schedule — which is exactly why the paper's line of work bets on
// steal-based ("work-first") balancing. bench_paper --only pushing
// quantifies the gap.
#pragma once

#include "mp/comm.hpp"
#include "pgas/engine.hpp"
#include "stats/stats.hpp"
#include "ws/config.hpp"
#include "ws/problem.hpp"
#include "ws/stealstack.hpp"

namespace upcws::ws {

/// Run one rank of the work-pushing baseline to termination.
stats::ThreadStats run_push_rank(pgas::Ctx& ctx, mp::Comm& comm,
                                 StealStack& stack, const Problem& prob,
                                 const WsConfig& cfg);

}  // namespace upcws::ws
