// PGAS engine tests: cost-model arithmetic, lock semantics and cost
// accounting under both engines, shared-word helpers, determinism of
// simulated runs, lock spins and idle mailbox waits skipped in closed form
// checked against spins and passes run one by one, and SimEngine's
// run-ahead checked against the min-vt order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mp/comm.hpp"
#include "pgas/engine.hpp"
#include "pgas/netmodel.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"

namespace {

using namespace upcws::pgas;
using upcws::sim::Candidate;
using upcws::sim::HangDetected;
using upcws::sim::SchedulePolicy;
using upcws::sim::TimeLimitExceeded;

TEST(NetModel, RefCostTiers) {
  NetModel m = NetModel::hierarchical(4);
  m.local_ref_ns = 1;
  m.on_node_ref_ns = 100;
  m.remote_ref_ns = 1000;
  EXPECT_EQ(m.ref_ns(2, 2), 1u);     // self
  EXPECT_EQ(m.ref_ns(0, 3), 100u);   // same node (0..3)
  EXPECT_EQ(m.ref_ns(0, 4), 1000u);  // across nodes
}

TEST(NetModel, BulkAddsBandwidthTerm) {
  NetModel m = NetModel::distributed();
  const auto lat_only = m.bulk_ns(0, 1, 0);
  EXPECT_EQ(lat_only, m.remote_ref_ns);
  const auto big = m.bulk_ns(0, 1, 8000);
  EXPECT_EQ(big, m.remote_ref_ns +
                     static_cast<std::uint64_t>(8000 / m.bytes_per_ns));
}

TEST(NetModel, SharedMemoryProfileHasOneTier) {
  const NetModel m = NetModel::shared_memory();
  EXPECT_EQ(m.ref_ns(0, 511), m.on_node_ref_ns);
  EXPECT_TRUE(m.same_node(0, 1000));
}

TEST(SimEngineTest, RanksSeeCorrectIdentity) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 7;
  std::vector<int> seen(7, -1);
  eng.run(cfg, [&](Ctx& c) {
    EXPECT_EQ(c.nranks(), 7);
    seen[c.rank()] = c.rank();
  });
  for (int i = 0; i < 7; ++i) EXPECT_EQ(seen[i], i);
}

TEST(SimEngineTest, ElapsedIsMakespan) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 3;
  eng.run(cfg, [&](Ctx& c) {
    c.charge(1000 * static_cast<std::uint64_t>(c.rank() + 1));
  });
  // Ranks charge 1000/2000/3000 ns; makespan 3000 ns.
  const auto res = eng.run(cfg, [&](Ctx& c) {
    c.charge(1000 * static_cast<std::uint64_t>(c.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(res.elapsed_s, 3e-6);
}

TEST(SimEngineTest, RemoteRefsCostMoreThanLocal) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 2;
  cfg.net = NetModel::distributed();
  std::atomic<std::uint64_t> t_local{0}, t_remote{0};
  eng.run(cfg, [&](Ctx& c) {
    if (c.rank() == 0) {
      const auto a = c.now_ns();
      c.charge_ref(0);
      t_local = c.now_ns() - a;
      const auto b = c.now_ns();
      c.charge_ref(1);
      t_remote = c.now_ns() - b;
    }
  });
  EXPECT_EQ(t_local.load(), cfg.net.local_ref_ns);
  EXPECT_EQ(t_remote.load(), cfg.net.remote_ref_ns);
}

TEST(SimEngineTest, DeterministicAcrossRuns) {
  auto workload = [](Ctx& c) {
    std::uniform_int_distribution<int> d(1, 100);
    for (int i = 0; i < 50; ++i) {
      c.charge(static_cast<std::uint64_t>(d(c.rng())));
      c.yield();
    }
  };
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 9;
  cfg.seed = 77;
  const auto a = eng.run(cfg, workload);
  const auto b = eng.run(cfg, workload);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.switches, b.switches);
}

TEST(SimEngineTest, SeedChangesRngStreams) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 1;
  cfg.seed = 1;
  std::uint64_t v1 = 0, v2 = 0, v1b = 0;
  eng.run(cfg, [&](Ctx& c) { v1 = c.rng()(); });
  cfg.seed = 2;
  eng.run(cfg, [&](Ctx& c) { v2 = c.rng()(); });
  cfg.seed = 1;
  eng.run(cfg, [&](Ctx& c) { v1b = c.rng()(); });
  EXPECT_NE(v1, v2);
  EXPECT_EQ(v1, v1b);
}

TEST(SimEngineTest, LockMutualExclusionAndCost) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 4;
  cfg.net = NetModel::distributed();
  Lock lock;
  lock.owner = 0;
  int counter = 0;  // protected by `lock`
  eng.run(cfg, [&](Ctx& c) {
    for (int i = 0; i < 100; ++i) {
      c.lock(lock);
      const int v = counter;
      c.charge(50);  // hold the lock across a simulated critical section
      c.yield();     // other ranks may try to acquire meanwhile
      counter = v + 1;
      c.unlock(lock);
      c.yield();
    }
  });
  EXPECT_EQ(counter, 400);
}

TEST(SimEngineTest, TryLockFailsWhenHeld) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 2;
  Lock lock;
  std::atomic<int> failures{0};
  eng.run(cfg, [&](Ctx& c) {
    if (c.rank() == 0) {
      c.lock(lock);
      c.charge(10'000);
      c.yield();  // rank 1 runs while we hold
      c.unlock(lock);
    } else {
      c.charge(100);  // let rank 0 acquire first in virtual time
      if (!c.try_lock(lock))
        failures.fetch_add(1);
      else
        c.unlock(lock);
    }
  });
  EXPECT_EQ(failures.load(), 1);
}

TEST(ThreadEngineTest, RunsAllRanksConcurrently) {
  ThreadEngine eng;
  RunConfig cfg;
  cfg.nranks = 8;
  std::atomic<int> sum{0};
  const auto res = eng.run(cfg, [&](Ctx& c) { sum += c.rank(); });
  EXPECT_EQ(sum.load(), 28);
  EXPECT_GT(res.elapsed_s, 0.0);
}

TEST(ThreadEngineTest, LockMutualExclusion) {
  ThreadEngine eng;
  RunConfig cfg;
  cfg.nranks = 8;
  Lock lock;
  std::int64_t counter = 0;  // deliberately non-atomic: lock must protect it
  eng.run(cfg, [&](Ctx& c) {
    for (int i = 0; i < 2000; ++i) {
      c.lock(lock);
      ++counter;
      c.unlock(lock);
    }
  });
  EXPECT_EQ(counter, 16000);
}

TEST(ThreadEngineTest, SharedWordHelpers) {
  ThreadEngine eng;
  RunConfig cfg;
  cfg.nranks = 4;
  Shared<std::int64_t> word{0};
  eng.run(cfg, [&](Ctx& c) {
    for (int i = 0; i < 1000; ++i) c.add(word, std::int64_t{1});
  });
  EXPECT_EQ(word.unmediated().load(), 4000);
}

TEST(CtxHelpers, CasSemantics) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 1;
  eng.run(cfg, [&](Ctx& c) {
    Shared<int> w{5};
    int expect = 4;
    EXPECT_FALSE(c.cas(w, expect, 9));
    EXPECT_EQ(expect, 5);  // updated to observed value
    EXPECT_TRUE(c.cas(w, expect, 9));
    EXPECT_EQ(c.peek(w), 9);
  });
}

TEST(CtxHelpers, BulkTransferCopiesAndCharges) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 2;
  cfg.net = NetModel::distributed();
  std::vector<std::byte> src(4096), dst(4096);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i & 0xFF);
  std::atomic<std::uint64_t> cost{0};
  eng.run(cfg, [&](Ctx& c) {
    if (c.rank() == 1) {
      const auto t0 = c.now_ns();
      c.bulk_get(dst.data(), src.data(), src.size(), 0);
      cost = c.now_ns() - t0;
    }
  });
  EXPECT_EQ(dst, src);
  EXPECT_EQ(cost.load(), cfg.net.bulk_ns(1, 0, src.size()));
}

// --- Lock spins: accounted in closed form vs. run one by one ---------------
//
// SimCtx::lock accounts the spins no other rank can interrupt in one step.
// Under the pass-through policy below (always the default min-(vt, id)
// choice) no yield continues inline, so nothing is skipped and every spin
// runs through the scheduler loop. The two runs must agree on everything a
// spin can touch: clocks, switches, telemetry, crash and revocation times,
// and the guards' aborts.

struct PassThrough : SchedulePolicy {
  std::size_t pick(const std::vector<Candidate>&) override { return 0; }
};

/// Records every hook call, in call order.
class RecordingSink : public ObsSink {
 public:
  struct Rec {
    char kind;  // 't' tick, 'w' lock wait, 's' stall
    int rank;
    std::uint64_t t_ns;
    std::uint64_t ns;
    bool operator==(const Rec&) const = default;
  };
  void on_tick(int rank, std::uint64_t now_ns) override {
    recs.push_back({'t', rank, now_ns, 0});
  }
  void on_lock_wait(int rank, std::uint64_t now_ns,
                    std::uint64_t wait_ns) override {
    recs.push_back({'w', rank, now_ns, wait_ns});
  }
  void on_stall(int rank, std::uint64_t t_ns, std::uint64_t ns) override {
    recs.push_back({'s', rank, t_ns, ns});
  }
  std::vector<Rec> recs;
};

/// What a rank's body left behind.
struct RankEnd {
  std::uint64_t clock = 0;       // at the body's end, or frozen at death
  std::uint64_t crashed_at = 0;  // RankCrashed::t_ns; 0 if it lived
  std::vector<std::pair<std::uint64_t, int>> revocations;
  bool operator==(const RankEnd&) const = default;
};

struct SpinRun {
  std::vector<RecordingSink::Rec> recs;
  std::vector<RankEnd> ends;
  std::uint64_t switches = 0;
  std::string error;  // the guard's abort, as "kind figure"
};

SpinRun run_spins(RunConfig cfg, const std::function<void(Ctx&)>& body,
                  SchedulePolicy* policy) {
  SpinRun o;
  RecordingSink sink;
  cfg.obs = &sink;
  cfg.schedule_policy = policy;
  o.ends.resize(static_cast<std::size_t>(cfg.nranks));
  SimEngine eng;
  try {
    o.switches = eng.run(cfg, [&](Ctx& c) {
      RankEnd& e = o.ends[static_cast<std::size_t>(c.rank())];
      try {
        body(c);
      } catch (const RankCrashed& rc) {
        e.crashed_at = rc.t_ns;
      }
      e.clock = c.now_ns();
      if (const FaultInjector* fi = c.faults())
        for (const FaultEvent& f : fi->events())
          if (f.kind == upcws::trace::Kind::kLockRevoked)
            e.revocations.emplace_back(f.t_ns, f.peer);
    }).switches;
  } catch (const TimeLimitExceeded& e) {
    o.error = "limit " + std::to_string(e.task) + " " +
              std::to_string(e.clock_ns) + " @" + std::to_string(e.slice_ns);
  } catch (const HangDetected& h) {
    o.error = "hang " + std::to_string(h.stuck_at_ns);
  }
  o.recs = std::move(sink.recs);
  return o;
}

/// Runs a fresh body from `make` with and without the pass-through policy
/// and compares. Returns the skipping run.
SpinRun expect_spins_match(
    const RunConfig& cfg,
    const std::function<std::function<void(Ctx&)>()>& make) {
  PassThrough pass;
  const SpinRun ref = run_spins(cfg, make(), &pass);
  SpinRun got = run_spins(cfg, make(), nullptr);
  EXPECT_EQ(got.recs.size(), ref.recs.size());
  EXPECT_TRUE(got.recs == ref.recs) << "telemetry records differ";
  EXPECT_EQ(got.ends, ref.ends);
  EXPECT_EQ(got.switches, ref.switches);
  EXPECT_EQ(got.error, ref.error);
  return got;
}

/// The distributed model with a local reference of `local_ns`.
RunConfig spin_cfg(int nranks, std::uint64_t local_ns) {
  RunConfig cfg;
  cfg.nranks = nranks;
  cfg.net = NetModel::distributed();
  cfg.net.local_ref_ns = local_ns;
  return cfg;
}

/// Rank n-1 takes every other rank's own lock (remote acquisitions), holds
/// them across `hold` remote references, then releases them. Ranks 0..n-2
/// work locally for 9500 + `extra` ns, then lock their own lock and spin on
/// it locally until it is released (or revoked), all from the same instant.
/// `hold_other` makes rank 0 spin while holding a lock of its own, and
/// `in_steal` makes it spin inside a steal scope.
struct OwnerSpins {
  int nranks = 2;
  std::uint64_t extra = 0;
  bool hold_other = false;
  bool in_steal = false;

  /// A body with fresh locks, so every run starts with them free.
  std::function<std::function<void(Ctx&)>()> make() const {
    return [spins = *this] {
      auto locks = std::make_shared<std::vector<Lock>>(
          static_cast<std::size_t>(spins.nranks));
      for (int r = 0; r < spins.nranks; ++r)
        (*locks)[static_cast<std::size_t>(r)].owner = r;
      auto other = std::make_shared<Lock>();
      return std::function<void(Ctx&)>(
          [spins, locks, other](Ctx& c) { spins.run(c, *locks, *other); });
    };
  }

  void run(Ctx& c, std::vector<Lock>& locks, Lock& other) const {
    const int holder = c.nranks() - 1;
    if (c.rank() == holder) {
      for (int s = 0; s < holder; ++s) c.lock(locks[static_cast<std::size_t>(s)]);
      for (int i = 0; i < 5; ++i) c.charge_ref(0);
      for (int s = 0; s < holder; ++s) c.unlock(locks[static_cast<std::size_t>(s)]);
      return;
    }
    Lock& mine = locks[static_cast<std::size_t>(c.rank())];
    c.charge(9500);
    c.charge(extra);
    const bool other_held = hold_other && c.rank() == 0;
    if (other_held) c.lock(other);
    const bool steal = in_steal && c.rank() == 0;
    if (steal) c.set_steal_scope(true);
    c.lock(mine);
    if (steal) c.set_steal_scope(false);
    c.charge_ref(c.rank());
    c.unlock(mine);
    if (other_held) c.unlock(other);
  }
};

/// Every local reference cost, with quantum remainders of 0..999 ns at the
/// first spin (a step of 4 or 5 divides the quantum, so a skip that reaches
/// it exactly shows), for one spinner (which skips up to the holder's key)
/// and for two (which tie at every spin and skip nothing).
template <class Fn>
void for_each_spin_shape(const Fn& fn) {
  for (const int nranks : {2, 3})
    for (const std::uint64_t local_ns : {3u, 4u, 5u})
      for (const std::uint64_t extra : {0u, 1u, 2u, 7u, 500u, 995u}) {
        SCOPED_TRACE(testing::Message() << nranks << " ranks, local ref "
                                        << local_ns << " ns, extra "
                                        << extra << " ns");
        fn(nranks, local_ns, extra);
      }
}

/// The instants at which each rank's contended lock() began to wait.
std::vector<std::uint64_t> wait_starts(const SpinRun& run, int nranks) {
  std::vector<std::uint64_t> from(static_cast<std::size_t>(nranks), 0);
  for (const RecordingSink::Rec& r : run.recs)
    if (r.kind == 'w') from[static_cast<std::size_t>(r.rank)] = r.t_ns - r.ns;
  return from;
}

TEST(LockSpinSkip, SpinAcrossQuantaMatchesPassThrough) {
  for_each_spin_shape([](int n, std::uint64_t local_ns, std::uint64_t extra) {
    const OwnerSpins spins{n, extra};
    const SpinRun got =
        expect_spins_match(spin_cfg(n, local_ns), spins.make());
    // Rank 0 spun from ~9.5 us until the release at 21 us or later: 11+
    // quanta.
    ASSERT_EQ(got.error, "");
    const std::uint64_t from = wait_starts(got, n)[0];
    EXPECT_LT(from, 10'600u);
    EXPECT_GT(got.ends[0].clock, 21'000u);
  });
}

TEST(LockSpinSkip, ThreeRankTieMatchesPassThrough) {
  // Ranks 0, 1 and 2 spin from the same instant at the same step: their
  // keys tie at every spin, and the holder's too where its clock meets.
  for_each_spin_shape([](int, std::uint64_t local_ns, std::uint64_t extra) {
    const OwnerSpins spins{4, extra};
    const SpinRun got =
        expect_spins_match(spin_cfg(4, local_ns), spins.make());
    ASSERT_EQ(got.error, "");
    const std::vector<std::uint64_t> from = wait_starts(got, 4);
    EXPECT_GT(from[0], 0u);
    EXPECT_EQ(from[1], from[0]);
    EXPECT_EQ(from[2], from[0]);
  });
}

TEST(LockSpinSkip, CrashArmedMidSpinMatchesPassThrough) {
  using Where = CrashSpec::Where;
  struct Case {
    Where where;
    bool hold_other, in_steal;
  };
  // kInLock without another lock held and kMidSteal outside a steal cannot
  // fire while the rank spins; they fire once it holds its lock, or never.
  for (const Case k : {Case{Where::kAnywhere, false, false},
                       Case{Where::kInLock, true, false},
                       Case{Where::kInLock, false, false},
                       Case{Where::kMidSteal, false, true},
                       Case{Where::kMidSteal, false, false}}) {
    for (const std::uint64_t at : {11'000u, 14'001u, 20'002u}) {
      SCOPED_TRACE(testing::Message()
                   << "where " << static_cast<int>(k.where) << ", other "
                   << k.hold_other << ", steal " << k.in_steal << ", at "
                   << at);
      for_each_spin_shape([&](int n, std::uint64_t local_ns,
                              std::uint64_t extra) {
        RunConfig cfg = spin_cfg(n, local_ns);
        cfg.faults.crashes.push_back({0, at, k.where});
        const OwnerSpins spins{n, extra, k.hold_other, k.in_steal};
        const SpinRun got = expect_spins_match(cfg, spins.make());
        ASSERT_EQ(got.error, "");
        const std::uint64_t died = got.ends[0].crashed_at;
        if (k.where == Where::kAnywhere || k.hold_other || k.in_steal) {
          EXPECT_GE(died, at);  // mid-spin, at the first charge from `at`
          EXPECT_LT(died, at + local_ns);
        } else if (k.where == Where::kInLock) {
          EXPECT_GT(died, 21'000u);  // once it holds its own lock
        } else {
          EXPECT_EQ(died, 0u);
        }
      });
    }
  }
}

TEST(LockSpinSkip, HolderDeathRevocationMatchesPassThrough) {
  // The holder dies under the locks; each spinner revokes its own lock at
  // max(death + detection latency, lease expiry): the lease decides in
  // some cases, the detection latency in others.
  for (const std::uint64_t lease : {2'000u, 25'001u}) {
    for (const std::uint64_t detect : {0u, 4'999u}) {
      SCOPED_TRACE(testing::Message() << "lease " << lease << ", detect "
                                      << detect);
      for_each_spin_shape([&](int n, std::uint64_t local_ns,
                              std::uint64_t extra) {
        RunConfig cfg = spin_cfg(n, local_ns);
        cfg.faults.crashes.push_back(
            {n - 1, 13'000, CrashSpec::Where::kInLock});
        cfg.faults.crash_detect_ns = detect;
        cfg.lock_lease_ns = lease;
        const OwnerSpins spins{n, extra};
        const SpinRun got = expect_spins_match(cfg, spins.make());
        ASSERT_EQ(got.error, "");
        ASSERT_EQ(got.ends[static_cast<std::size_t>(n - 1)].crashed_at,
                  15'000u);
        for (std::size_t s = 0; s + 1 < static_cast<std::size_t>(n); ++s) {
          ASSERT_EQ(got.ends[s].revocations.size(), 1u);
          const std::uint64_t due =
              std::max(15'000 + detect, 3'000 * (s + 1) + lease);
          // Within a spin or two of it: at death + 0 the holder's key
          // (15000, 2) still trails the spinners'.
          EXPECT_GE(got.ends[s].revocations[0].first, due);
          EXPECT_LT(got.ends[s].revocations[0].first, due + 3 * local_ns);
          EXPECT_EQ(got.ends[s].revocations[0].second, n - 1);
        }
      });
    }
  }
}

/// `cfg` with the holder dying under the locks at 15 us and a lease that
/// outlasts the run, so the spinners spin on alone.
RunConfig holder_dies_for_good(RunConfig cfg) {
  cfg.faults.crashes.push_back(
      {cfg.nranks - 1, 13'000, CrashSpec::Where::kInLock});
  cfg.lock_lease_ns = 1'000'000'000;
  return cfg;
}

TEST(LockSpinSkip, WatchdogMidSpinMatchesPassThrough) {
  // The window closes while the holder still runs, or (at 50 us) while
  // the spinners spin behind a dead holder with nobody else left.
  for (const std::uint64_t window : {12'000u, 14'003u, 50'001u}) {
    for_each_spin_shape([&](int n, std::uint64_t local_ns,
                            std::uint64_t extra) {
      RunConfig cfg = spin_cfg(n, local_ns);
      if (window > 20'000) cfg = holder_dies_for_good(cfg);
      cfg.watchdog_ns = window;
      const OwnerSpins spins{n, extra};
      const SpinRun got = expect_spins_match(cfg, spins.make());
      EXPECT_EQ(got.error.rfind("hang ", 0), 0u) << got.error;
    });
  }
}

TEST(LockSpinSkip, VtLimitMidSpinMatchesPassThrough) {
  for (const std::uint64_t limit : {12'000u, 14'002u, 50'002u}) {
    for_each_spin_shape([&](int n, std::uint64_t local_ns,
                            std::uint64_t extra) {
      RunConfig cfg = spin_cfg(n, local_ns);
      if (limit > 20'000) cfg = holder_dies_for_good(cfg);
      cfg.vt_limit_ns = limit;
      const OwnerSpins spins{n, extra};
      const SpinRun got = expect_spins_match(cfg, spins.make());
      EXPECT_EQ(got.error.rfind("limit ", 0), 0u) << got.error;
    });
  }
}

TEST(LockSpinSkip, DrawingSpinsMatchPassThrough) {
  // Spins whose charge draws randomness or records an event are not
  // skipped: jitter, latency spikes, and a partition between the spinner
  // and the lock's owner (ranks on one SMP node, 180 ns refs).
  RunConfig jitter = spin_cfg(2, 4);
  jitter.net.jitter_frac = 0.5;
  RunConfig spikes = spin_cfg(2, 4);
  spikes.faults.spike_prob = 0.1;
  for (const RunConfig& cfg : {jitter, spikes})
    expect_spins_match(cfg, OwnerSpins{2}.make());
  RunConfig part = spin_cfg(3, 4);
  part.net.threads_per_node = 3;
  part.faults.partitions.push_back({0b010, 3'100, 5'000});
  const SpinRun got = expect_spins_match(part, [] {
    auto l = std::make_shared<Lock>();
    return std::function<void(Ctx&)>([l](Ctx& c) {
      // Rank 2 holds rank 0's lock across local work; rank 1 spins on it
      // from the same node, across a partition that cuts it off from rank
      // 0 mid-spin.
      if (c.rank() == 2) {
        c.lock(*l);
        for (int i = 0; i < 4; ++i) c.charge(2'500);
        c.unlock(*l);
      } else if (c.rank() == 1) {
        c.charge(1500);
        c.lock(*l);
        c.unlock(*l);
      }
    });
  });
  EXPECT_GT(got.ends[1].clock, 9'000u);
}

// --- Idle mailbox waits: accounted in closed form vs. run one by one -------
//
// mp::Comm::idle_wait has SimCtx account the coming passes of a wait that
// changed nothing, up to the earliest queued arrival and one wire time
// past the least key another rank can still send from. Those passes run
// ahead of other ranks' earlier slices, so hook calls interleave across
// ranks in another order than under the pass-through policy, which skips
// nothing: records are compared rank by rank.

namespace mp = upcws::mp;

constexpr int kReply = 1;
constexpr int kToken = 2;
constexpr int kDone = 3;

/// A body of one run: the communicator is fresh per run, and `passes`
/// counts the wait passes the body really ran.
using WaitBody = std::function<void(Ctx&, mp::Comm&, std::uint64_t& passes)>;

struct WaitRun {
  SpinRun run;
  std::uint64_t passes = 0;
};

WaitRun run_waits(const RunConfig& cfg, const WaitBody& body,
                  SchedulePolicy* policy) {
  WaitRun o;
  mp::Comm comm(cfg.nranks);
  o.run = run_spins(cfg, [&](Ctx& c) { body(c, comm, o.passes); }, policy);
  return o;
}

std::vector<RecordingSink::Rec> recs_of(
    const std::vector<RecordingSink::Rec>& recs, int rank) {
  std::vector<RecordingSink::Rec> out;
  for (const RecordingSink::Rec& r : recs)
    if (r.rank == rank) out.push_back(r);
  return out;
}

/// Runs `body` with and without the pass-through policy and compares them
/// rank by rank. A time-limit abort ends the run at the crossing slice, in
/// key order; a rank that ran ahead of it has records past it, so there
/// the reference's records must be a prefix of the skipping run's. Returns
/// the skipping run; `skips` says whether it must have skipped passes.
WaitRun expect_waits_match(const RunConfig& cfg, const WaitBody& body,
                           bool skips = true) {
  PassThrough pass;
  const WaitRun ref = run_waits(cfg, body, &pass);
  WaitRun got = run_waits(cfg, body, nullptr);
  EXPECT_EQ(got.run.error, ref.run.error);
  const bool limit = ref.run.error.rfind("limit ", 0) == 0;
  for (int r = 0; r < cfg.nranks; ++r) {
    std::vector<RecordingSink::Rec> g = recs_of(got.run.recs, r);
    const std::vector<RecordingSink::Rec> w = recs_of(ref.run.recs, r);
    if (limit && g.size() > w.size()) g.resize(w.size());
    EXPECT_TRUE(g == w) << "rank " << r << ": " << g.size() << " vs "
                        << w.size() << " records, or they differ";
  }
  EXPECT_EQ(got.run.ends, ref.run.ends);
  EXPECT_EQ(got.run.switches, ref.run.switches);
  if (skips)
    EXPECT_LT(got.passes, ref.passes);
  else
    EXPECT_EQ(got.passes, ref.passes);
  return got;
}

/// An mpi-ws-shaped idle wait for a reply from `from`: each pass makes six
/// polls (the reply, then five tags nobody sends) and yields, and
/// Comm::idle_wait follows every yield. `until` is the caller's deadline.
void await_reply(Ctx& c, mp::Comm& comm, int from, std::uint64_t& passes,
                 std::uint64_t until = mp::Comm::kNever) {
  mp::IdleWait idle;
  mp::Message m;
  for (;;) {
    ++passes;
    if (comm.try_recv(c, from, kReply, m)) return;
    for (int tag = 10; tag < 15; ++tag)
      EXPECT_FALSE(comm.try_recv(c, mp::kAny, tag, m));
    c.yield();
    comm.idle_wait(c, idle, until);
  }
}

/// Local work in slices of `slice` ns up to `until`, with a yield after
/// each, the way a busy rank interleaves with waiters.
void work_until(Ctx& c, std::uint64_t until, std::uint64_t slice) {
  while (c.now_ns() < until) {
    c.charge(slice);
    c.yield();
  }
}

/// The distributed model; `n` ranks. The vt limit, far past every wait
/// here, bounds a skip that would overrun one.
RunConfig wait_cfg(int n) {
  RunConfig cfg;
  cfg.nranks = n;
  cfg.net = NetModel::distributed();
  cfg.vt_limit_ns = 10'000'000;
  return cfg;
}

TEST(MailboxWaitSkip, QueuedReplyWithLaterArrivalMatchesPassThrough) {
  // Rank 1 sends at once and leaves: the queued reply's arrival is rank
  // 0's only bound.
  for (const std::uint64_t at : {0u, 1u, 7u, 500u, 995u, 5'000u, 40'000u}) {
    SCOPED_TRACE(testing::Message() << "send at " << at);
    const WaitRun got = expect_waits_match(
        wait_cfg(2), [at](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
          if (c.rank() == 1) {
            c.charge(at);
            comm.send(c, 0, kReply);
          } else {
            await_reply(c, comm, 1, passes);
          }
        });
    EXPECT_GE(got.run.ends[0].clock, at + 3'400);
  }
}

TEST(MailboxWaitSkip, LowerKeyRankSendingDuringTheSpanMatchesPassThrough) {
  // Rank 1 works behind rank 0's run-ahead in slices of every remainder,
  // then sends at the start of a slice: its message arrives a wire time
  // after its key, plus the send overhead when there is one.
  const auto body = [](std::uint64_t slice, std::uint64_t at) -> WaitBody {
    return [=](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
      if (c.rank() == 1) {
        work_until(c, at, slice);
        comm.send(c, 0, kReply);
        work_until(c, at + 20'000, slice);
      } else {
        await_reply(c, comm, 1, passes);
      }
    };
  };
  for (const std::uint64_t overhead : {400u, 0u}) {
    RunConfig cfg = wait_cfg(2);
    cfg.net.mp_send_overhead_ns = overhead;
    for (const std::uint64_t slice : {1u, 29u, 210u, 450u, 999u, 3'001u}) {
      for (const std::uint64_t at : {2'000u, 7'777u}) {
        SCOPED_TRACE(testing::Message() << "overhead " << overhead
                                        << ", slice " << slice
                                        << ", send at " << at);
        expect_waits_match(cfg, body(slice, at));
      }
    }
  }
}

TEST(MailboxWaitSkip, ReplyLandingWhileTheWaiterIsYieldedMatchesPassThrough) {
  // Rank 1 sends while rank 0 is yielded — at the end of a pass or of a
  // skip — then jumps far ahead: only the mailbox, read after the yield,
  // still bounds rank 0's run-ahead.
  for (std::uint64_t at = 100; at < 4'000; at += 37) {
    for (const std::uint64_t jump : {5'000u, 50'000u}) {
      SCOPED_TRACE(testing::Message() << "send at " << at << ", jump "
                                      << jump);
      expect_waits_match(wait_cfg(2), [=](Ctx& c, mp::Comm& comm,
                                          std::uint64_t& passes) {
        if (c.rank() == 1) {
          work_until(c, at, 50);
          comm.send(c, 0, kReply);
          c.charge(jump);
        } else {
          await_reply(c, comm, 1, passes);
        }
      });
    }
  }
}

TEST(MailboxWaitSkip, EqualKeyTiesMatchPassThrough) {
  // Ranks 0-2 wait from the same instant at the same pass length, so their
  // keys tie at every pass; rank 3 answers each in turn.
  for (const std::uint64_t gap : {0u, 210u, 1'000u}) {
    SCOPED_TRACE(testing::Message() << "gap " << gap);
    expect_waits_match(wait_cfg(4), [gap](Ctx& c, mp::Comm& comm,
                                          std::uint64_t& passes) {
      if (c.rank() == 3) {
        for (int r = 0; r < 3; ++r) {
          work_until(c, 6'000 + gap * static_cast<std::uint64_t>(r), 210);
          comm.send(c, r, kReply);
        }
      } else {
        await_reply(c, comm, 3, passes);
      }
    });
  }
}

/// Ranks idle on a token ring, as token-terminated ranks do with every
/// stack empty: each pass makes five polls (the token, the done message,
/// three tags nobody sends) and, holding the token, forwards it to the
/// next rank down — a pass that sends, so the pass after it must run.
/// Rank 0 retires the token after `rounds` trips and tells every rank.
WaitBody token_ring(int rounds) {
  return [rounds](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
    const int n = c.nranks();
    bool token = c.rank() == 0;
    int trips = 0;
    mp::IdleWait idle;
    mp::Message m;
    for (;;) {
      ++passes;
      if (comm.try_recv(c, mp::kAny, kToken, m)) {
        token = true;
        if (c.rank() == 0) ++trips;
      }
      if (comm.try_recv(c, mp::kAny, kDone, m)) return;
      for (int tag = 10; tag < 13; ++tag)
        EXPECT_FALSE(comm.try_recv(c, mp::kAny, tag, m));
      if (token && trips == rounds) {
        for (int r = 1; r < n; ++r) comm.send(c, r, kDone);
        return;
      }
      if (token) {
        token = false;
        comm.send(c, c.rank() == 0 ? n - 1 : c.rank() - 1, kToken);
      }
      c.yield();
      comm.idle_wait(c, idle);
    }
  };
}

TEST(MailboxWaitSkip, TokenForwardMatchesPassThrough) {
  for (const int n : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << n << " ranks");
    const WaitRun got = expect_waits_match(wait_cfg(n), token_ring(3));
    EXPECT_GT(got.run.ends[0].clock, 3u * static_cast<std::uint64_t>(n) *
                                         3'400);
  }
}

TEST(MailboxWaitSkip, FirstPassWithPartOfAQuantumChargedMatchesPassThrough) {
  // The first pass's polls may end the quantum charged before the wait:
  // it yields an extra time, so the pass after it is not its repeat.
  for (const std::uint64_t pre : {0u, 700u, 820u, 821u, 850u, 999u}) {
    SCOPED_TRACE(testing::Message() << "charged " << pre);
    expect_waits_match(wait_cfg(2), [pre](Ctx& c, mp::Comm& comm,
                                          std::uint64_t& passes) {
      if (c.rank() == 1) {
        work_until(c, 9'000, 300);
        comm.send(c, 0, kReply);
      } else {
        c.charge(pre);
        await_reply(c, comm, 1, passes);
      }
    });
  }
}

TEST(MailboxWaitSkip, CallersDeadlineMatchesPassThrough) {
  // The first pass from the deadline on differs (as a cooperative cancel
  // flips its flag there): here it tells rank 1, which answers only then.
  // So every pass that begins at or past the deadline must run.
  for (const std::uint64_t until : {2'345u, 8'000u, 15'001u}) {
    SCOPED_TRACE(testing::Message() << "until " << until);
    const WaitRun got = expect_waits_match(
        wait_cfg(2), [until](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
          mp::Message m;
          if (c.rank() == 1) {
            c.charge(20'000);
            while (!comm.try_recv(c, 0, kToken, m)) c.yield();
            comm.send(c, 0, kReply);
            return;
          }
          mp::IdleWait idle;
          bool told = false;
          for (;;) {
            ++passes;
            if (!told && c.now_ns() >= until) {
              told = true;
              comm.send(c, 1, kToken);
            }
            if (comm.try_recv(c, 1, kReply, m)) return;
            for (int tag = 10; tag < 15; ++tag)
              EXPECT_FALSE(comm.try_recv(c, mp::kAny, tag, m));
            c.yield();
            comm.idle_wait(c, idle, told ? mp::Comm::kNever : until);
          }
        });
    EXPECT_GT(got.run.ends[0].clock, 20'000u);
  }
}

TEST(MailboxWaitSkip, VtLimitAndWatchdogMidWaitMatchPassThrough) {
  // Three waiters whose replies never come, beside a rank that visits
  // nodes until 5 us: the run ends at the vt limit or at the watchdog,
  // in the middle of the waits.
  const WaitBody body = [](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
    if (c.rank() == 3) {
      while (c.now_ns() < 5'000) {
        c.charge_node_work();
        c.yield();
      }
      return;
    }
    await_reply(c, comm, 3, passes);
  };
  for (const std::uint64_t limit : {9'000u, 12'345u, 30'001u}) {
    SCOPED_TRACE(testing::Message() << "limit " << limit);
    RunConfig cfg = wait_cfg(4);
    cfg.vt_limit_ns = limit;
    const WaitRun got = expect_waits_match(cfg, body);
    EXPECT_EQ(got.run.error.rfind("limit ", 0), 0u) << got.run.error;
  }
  for (const std::uint64_t window : {4'000u, 10'003u, 25'000u}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    RunConfig cfg = wait_cfg(4);
    cfg.watchdog_ns = window;
    const WaitRun got = expect_waits_match(cfg, body);
    EXPECT_EQ(got.run.error.rfind("hang ", 0), 0u) << got.run.error;
  }
}

TEST(MailboxWaitSkip, WatchdogFromTheLeastProgressMatchesPassThrough) {
  // Rank 0 reports progress at 900 ns, ahead of rank 1's next slice at
  // 430 ns, which reports progress at its own, earlier clock: the window
  // runs from 430, not 900, for every yield rank 2's wait could skip.
  RunConfig cfg = wait_cfg(3);
  cfg.watchdog_ns = 1'000;
  const WaitRun got = expect_waits_match(
      cfg, [](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
        if (c.rank() == 0) {
          c.charge(900);
          c.charge_node_work();
        } else if (c.rank() == 1) {
          c.charge(400);
          c.yield();
          c.charge_node_work();
        } else {
          await_reply(c, comm, 0, passes);
        }
      });
  EXPECT_EQ(got.run.error, "hang 1470");
}

TEST(MailboxWaitSkip, DeclinedWaitsRunEveryPass) {
  // Jitter, any fault plan, a wire no longer than a pass, or a pass whose
  // polls end a quantum: every pass runs, as under the pass-through
  // policy.
  const WaitBody body = [](Ctx& c, mp::Comm& comm, std::uint64_t& passes) {
    if (c.rank() == 1) {
      work_until(c, 9'000, 300);
      comm.send(c, 0, kReply);
    } else {
      await_reply(c, comm, 1, passes);
    }
  };
  RunConfig jitter = wait_cfg(2);
  jitter.net.jitter_frac = 0.5;
  RunConfig stalls = wait_cfg(2);
  stalls.faults.stall_period_ns = 1'000'000;
  stalls.faults.stall_ns = 10;
  RunConfig short_wire = wait_cfg(2);
  short_wire.net.remote_ref_ns = 209;
  RunConfig long_polls = wait_cfg(2);  // six polls end a quantum
  long_polls.net.poll_ns = 167;
  for (const RunConfig& cfg : {jitter, stalls, short_wire, long_polls})
    expect_waits_match(cfg, body, /*skips=*/false);
}

// --- Run-ahead: SimEngine with a lead vs. the pass-through policy ---------
//
// A run that mediates every cross-rank access runs ahead by psim's
// one-rank-per-shard lookahead (SimEngine::lead_ns); a policy turns that
// off, so the pass-through run is the reference. Programs of charges,
// yields, ops on other ranks' words, polls of own words, locks and
// messages must read the same values at the same clocks, and leave the
// same clocks, switches and telemetry, rank by rank: run-ahead reorders
// hook calls across ranks. A time-limit abort must name the same offender.

/// What one rank saw: the step, its clock, and the value it read.
struct Seen {
  int op;
  std::uint64_t t;
  std::int64_t v;
  bool operator==(const Seen&) const = default;
};

constexpr int kAheadTag = 7;

/// The shared state of one run: two words and a lock per rank, and a
/// communicator.
struct AheadWorld {
  explicit AheadWorld(int n)
      : words(static_cast<std::size_t>(2 * n)),
        locks(static_cast<std::size_t>(n)),
        comm(n) {
    for (int r = 0; r < n; ++r) {
      word(r, 0).set_owner(r);
      word(r, 1).set_owner(r);
      locks[static_cast<std::size_t>(r)].owner = r;
    }
  }
  Shared<std::int64_t>& word(int rank, std::uint64_t k) {
    return words[static_cast<std::size_t>(2 * rank) + k];
  }
  std::vector<Shared<std::int64_t>> words;
  std::vector<Lock> locks;
  mp::Comm comm;
};

using AheadBody = std::function<void(Ctx&, AheadWorld&, std::vector<Seen>&)>;

struct AheadRun {
  SpinRun run;
  std::vector<std::vector<Seen>> seen;  // per rank
};

AheadRun run_ahead(const RunConfig& cfg, const AheadBody& body,
                   SchedulePolicy* policy) {
  AheadRun o;
  AheadWorld world(cfg.nranks);
  o.seen.resize(static_cast<std::size_t>(cfg.nranks));
  o.run = run_spins(
      cfg,
      [&](Ctx& c) { body(c, world, o.seen[static_cast<std::size_t>(c.rank())]); },
      policy);
  return o;
}

/// Truncates `got` to `want`'s length under an abort: a rank that ran
/// ahead of the crossing went on past it.
template <class T>
bool same_prefix(std::vector<T> got, const std::vector<T>& want, bool limit) {
  if (limit && got.size() > want.size()) got.resize(want.size());
  return got == want;
}

/// How a run ahead went: whether it called the hooks in another order
/// than the reference (some rank ran ahead), and whether it aborted.
struct AheadMatch {
  bool reordered = false;
  bool aborted = false;
};

/// Runs `body` on `cfg` with every cross-rank access mediated, with and
/// without the pass-through policy, and compares them rank by rank.
AheadMatch expect_ahead_match(RunConfig cfg, const AheadBody& body) {
  cfg.remote_ops_mediated = true;
  PassThrough pass;
  const AheadRun ref = run_ahead(cfg, body, &pass);
  const AheadRun got = run_ahead(cfg, body, nullptr);
  EXPECT_EQ(got.run.error, ref.run.error);
  const bool limit = ref.run.error.rfind("limit ", 0) == 0;
  for (int r = 0; r < cfg.nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_TRUE(same_prefix(got.seen[i], ref.seen[i], limit))
        << "rank " << r << " read other values";
    EXPECT_TRUE(same_prefix(recs_of(got.run.recs, r), recs_of(ref.run.recs, r),
                            limit))
        << "rank " << r << " telemetry differs";
  }
  if (!limit) {
    EXPECT_EQ(got.run.ends, ref.run.ends);
    EXPECT_EQ(got.run.switches, ref.run.switches);
  }
  return {!(got.run.recs == ref.run.recs), !ref.run.error.empty()};
}

/// A random program of `steps` steps per rank: charges, yields, put, get
/// and cas on other ranks' words, polls and stores of its own words, a
/// wait on an own word, a lock of any rank's lock, and sends and receives.
AheadBody random_program(std::uint64_t seed, int steps) {
  return [seed, steps](Ctx& c, AheadWorld& w, std::vector<Seen>& seen) {
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(c.rank()));
    const int n = c.nranks();
    const auto other = [&] {
      const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(n - 1));
      return r >= c.rank() ? r + 1 : r;
    };
    const auto note = [&](int op, std::int64_t v) {
      seen.push_back({op, c.now_ns(), v});
    };
    Shared<std::int64_t>& mine = w.word(c.rank(), 0);
    for (int i = 0; i < steps; ++i) {
      const std::int64_t x = c.rank() * 1000 + i;
      switch (rng() % 11) {
        case 0:
          c.charge(rng() % 4 == 0 ? rng() % 40 : rng() % 1500);
          break;
        case 1:
          c.yield();
          break;
        case 2:
          c.put(w.word(other(), rng() % 2), x);
          break;
        case 3:
          note(3, c.get(w.word(other(), rng() % 2)));
          break;
        case 4: {
          std::int64_t expected = static_cast<std::int64_t>(rng() % 3);
          note(4, c.cas(w.word(other(), rng() % 2), expected, x) ? 1 : 0);
          break;
        }
        case 5:
          note(5, c.poll(w.word(c.rank(), rng() % 2)));
          break;
        case 6:
          c.put_local(w.word(c.rank(), 1), x);
          break;
        case 7:
          w.comm.send(c, other(), kAheadTag, &x, sizeof x);
          break;
        case 8: {
          mp::Message m;
          std::int64_t v = -1;
          if (w.comm.try_recv(c, mp::kAny, kAheadTag, m))
            std::memcpy(&v, m.payload.data(), sizeof v);
          note(8, v);
          break;
        }
        case 9: {  // wait for an own word to change, at most 50 polls
          const std::int64_t v0 = c.peek(mine);
          std::int64_t k = 0;
          for (; k < 50 && c.poll(mine) == v0; ++k) c.yield();
          note(9, k);
          break;
        }
        default: {
          LockGuard g(c, w.locks[rng() % static_cast<std::uint64_t>(n)]);
          c.charge(rng() % 200);
          note(10, 0);
        }
      }
    }
  };
}

/// The distributed model on `n` ranks.
RunConfig ahead_cfg(int n) {
  RunConfig cfg;
  cfg.nranks = n;
  cfg.net = NetModel::distributed();
  return cfg;
}

TEST(RunAhead, LeadIsDecidedPerRun) {
  RunConfig cfg = ahead_cfg(8);
  EXPECT_EQ(SimEngine::lead_ns(cfg), 0u);  // unmediated
  cfg.remote_ops_mediated = true;
  EXPECT_EQ(SimEngine::lead_ns(cfg), 2'000u);
  PassThrough pass;
  RunConfig policy = cfg;
  policy.schedule_policy = &pass;
  RunConfig faults = cfg;
  faults.faults.stall_period_ns = 1'000'000;
  faults.faults.stall_ns = 10;
  RunConfig watchdog = cfg;
  watchdog.watchdog_ns = 1'000'000;
  RunConfig one_rank = cfg;
  one_rank.nranks = 1;
  for (const RunConfig& off : {policy, faults, watchdog, one_rank})
    EXPECT_EQ(SimEngine::lead_ns(off), 0u);
  // No cross-rank reference reaches past a quantum: node-mates, shared
  // memory, the free model.
  for (const NetModel& net :
       {NetModel::hierarchical(2), NetModel::hierarchical(4),
        NetModel::shared_memory(), NetModel::free()}) {
    RunConfig c = cfg;
    c.net = net;
    EXPECT_EQ(SimEngine::lead_ns(c), 0u);
  }
}

TEST(RunAhead, RandomProgramsMatchPassThrough) {
  int reordered = 0, runs = 0;
  for (const int n : {2, 3, 5, 8}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE(testing::Message() << n << " ranks, seed " << seed);
      reordered +=
          expect_ahead_match(ahead_cfg(n), random_program(seed, 60)).reordered;
      ++runs;
    }
  }
  EXPECT_GT(reordered, runs / 2) << "ranks rarely ran ahead";
}

TEST(RunAhead, RandomProgramsMatchPassThroughOnVariedNets) {
  // No send overhead (a message arrives a wire time after its slice key),
  // jitter, a slow poll, and a network just past a quantum (lead 1 ns).
  RunConfig no_overhead = ahead_cfg(4);
  no_overhead.net.mp_send_overhead_ns = 0;
  RunConfig jitter = ahead_cfg(4);
  jitter.net.jitter_frac = 0.3;
  RunConfig slow_poll = ahead_cfg(4);
  slow_poll.net.poll_ns = 333;
  RunConfig thin = ahead_cfg(4);
  thin.net.remote_ref_ns = kChargeQuantumNs + 1;
  for (RunConfig cfg : {no_overhead, jitter, slow_poll, thin}) {
    cfg.remote_ops_mediated = true;
    EXPECT_GT(SimEngine::lead_ns(cfg), 0u);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      expect_ahead_match(cfg, random_program(seed, 60));
    }
  }
}

TEST(RunAhead, VtLimitNamesTheReferencesOffender) {
  // Limits inside the programs: a rank that ran ahead may cross first in
  // host order while a lower-keyed slice crosses too.
  int aborted = 0;
  for (const std::uint64_t limit : {3'000u, 9'000u, 20'000u, 40'000u}) {
    for (const int n : {2, 5, 8}) {
      for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        SCOPED_TRACE(testing::Message() << "limit " << limit << ", " << n
                                        << " ranks, seed " << seed);
        RunConfig cfg = ahead_cfg(n);
        cfg.vt_limit_ns = limit;
        aborted += expect_ahead_match(cfg, random_program(seed, 60)).aborted;
      }
    }
  }
  EXPECT_GT(aborted, 100);
}

TEST(RunAhead, RankAheadOfALowerCrossingIsNotTheOffender) {
  // Rank 0 runs ahead of rank 1 (at key 0) in slices of 450 ns and
  // crosses the limit first in host order; rank 1 then crosses from a
  // lower key in one big charge. The reference names rank 1.
  for (const std::uint64_t limit : {1'500u, 1'900u}) {
    RunConfig cfg = ahead_cfg(2);
    cfg.vt_limit_ns = limit;
    const AheadBody body = [](Ctx& c, AheadWorld&, std::vector<Seen>&) {
      if (c.rank() == 0) {
        for (int i = 0; i < 10; ++i) {
          c.charge(450);
          c.yield();
        }
      } else {
        c.charge(5'000);
      }
    };
    expect_ahead_match(cfg, body);
    RunConfig mediated = cfg;
    mediated.remote_ops_mediated = true;
    EXPECT_EQ(run_ahead(mediated, body, nullptr).run.error.substr(0, 8),
              "limit 1 ")
        << "limit " << limit;
  }
}

TEST(RunAhead, MessageArrivingInTheLastQuantumIsSeen) {
  // Rank 0 polls its mailbox late in each slice, after `pre` ns of work,
  // while rank 1 works behind it in slices of every remainder, then
  // sends: with no send overhead the message arrives one wire time R
  // after rank 1's slice key M. Rank 0 runs ahead of M by R - Q, so its
  // last polls there read just below M + R and must still miss it, and
  // its first poll at or past the arrival must see it, as in key order.
  const auto body = [](std::uint64_t slice, std::uint64_t at,
                       std::uint64_t pre) -> AheadBody {
    return [=](Ctx& c, AheadWorld& w, std::vector<Seen>& seen) {
      if (c.rank() == 1) {
        work_until(c, at, slice);
        const std::int64_t x = 1;
        w.comm.send(c, 0, kAheadTag, &x, sizeof x);
        work_until(c, at + 20'000, slice);
        return;
      }
      mp::Message m;
      for (;;) {
        c.charge(pre);
        if (w.comm.try_recv(c, 1, kAheadTag, m)) break;
        c.yield();
      }
      seen.push_back({8, c.now_ns(), 1});
    };
  };
  for (const std::uint64_t overhead : {0u, 400u}) {
    RunConfig cfg = ahead_cfg(2);
    cfg.net.mp_send_overhead_ns = overhead;
    for (const std::uint64_t slice : {1u, 29u, 210u, 450u, 999u, 3'001u})
      for (const std::uint64_t at : {0u, 2'000u, 7'777u})
        for (const std::uint64_t pre : {0u, 500u, 900u, 969u}) {
          SCOPED_TRACE(testing::Message()
                       << "overhead " << overhead << ", slice " << slice
                       << ", send at " << at << ", poll after " << pre);
          expect_ahead_match(cfg, body(slice, at, pre));
        }
  }
}

TEST(RunAhead, PutOnAPolledWordLandsAtItsKey) {
  // Rank 0 polls its own word while rank 1, behind it, puts to it: the
  // put's op lands at rank 1's post-charge key. Rank 0 must neither run
  // ahead past that key while the op is pending nor see it early.
  const auto body = [](std::uint64_t delay, bool remote) -> AheadBody {
    return [=](Ctx& c, AheadWorld& w, std::vector<Seen>& seen) {
      if (c.rank() == 1) {
        c.charge(delay);
        if (remote)
          c.put(w.word(0, 0), std::int64_t{1});
        else
          w.comm.send(c, 0, kAheadTag);
        c.charge(5'000);
        return;
      }
      Shared<std::int64_t>& mine = w.word(0, 0);
      mp::Message m;
      while (c.poll(mine) == 0 && !w.comm.try_recv(c, 1, kAheadTag, m))
        c.yield();
      seen.push_back({5, c.now_ns(), c.peek(mine)});
    };
  };
  for (const bool remote : {true, false})
    for (const std::uint64_t delay :
         {0u, 1u, 500u, 999u, 1'000u, 1'700u, 2'500u, 4'321u}) {
      SCOPED_TRACE(testing::Message()
                   << (remote ? "put" : "send") << " after " << delay);
      expect_ahead_match(ahead_cfg(2), body(delay, remote));
    }
}

}  // namespace
