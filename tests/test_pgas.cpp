// PGAS engine tests: cost-model arithmetic, lock semantics and cost
// accounting under both engines, shared-word helpers, determinism of
// simulated runs, and lock spins skipped in closed form checked against
// spins run one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
  std::atomic<std::int64_t> word{0};
  eng.run(cfg, [&](Ctx& c) {
    for (int i = 0; i < 1000; ++i) c.add(word, 0, std::int64_t{1});
  });
  EXPECT_EQ(word.load(), 4000);
}

TEST(CtxHelpers, CasSemantics) {
  SimEngine eng;
  RunConfig cfg;
  cfg.nranks = 1;
  eng.run(cfg, [&](Ctx& c) {
    std::atomic<int> w{5};
    int expect = 4;
    EXPECT_FALSE(c.cas(w, 0, expect, 9));
    EXPECT_EQ(expect, 5);  // updated to observed value
    EXPECT_TRUE(c.cas(w, 0, expect, 9));
    EXPECT_EQ(w.load(), 9);
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
      for (const Ctx::RevokeEvent& r : c.revocations())
        e.revocations.emplace_back(r.t_ns, r.dead_holder);
    }).switches;
  } catch (const TimeLimitExceeded& e) {
    o.error = "limit " + std::to_string(e.task) + " " +
              std::to_string(e.clock_ns);
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

}  // namespace
