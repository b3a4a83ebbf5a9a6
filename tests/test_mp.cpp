// Message-passing layer tests: matching, ordering, latency gating, and
// multi-rank traffic under both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "mp/comm.hpp"
#include "pgas/faults.hpp"
#include "pgas/sim_engine.hpp"
#include "pgas/thread_engine.hpp"

namespace {

using namespace upcws;

TEST(Comm, SendRecvRoundTrip) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  mp::Comm comm(2);
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() == 0) {
      const int payload = 1234;
      comm.send(c, 1, 7, &payload, sizeof payload);
    } else {
      const mp::Message m = comm.recv(c, 0, 7);
      ASSERT_EQ(m.payload.size(), sizeof(int));
      int v;
      std::memcpy(&v, m.payload.data(), sizeof v);
      EXPECT_EQ(v, 1234);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
    }
  });
}

TEST(Comm, TagAndSourceFiltering) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 3;
  mp::Comm comm(3);
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() != 2) {
      const int tag = c.rank() == 0 ? 10 : 20;
      comm.send(c, 2, tag);
    } else {
      // Receive tag 20 first even though tag 10 may arrive earlier.
      (void)comm.recv(c, mp::kAny, 20);
      mp::Message m;
      // try_recv with explicit src filter.
      while (!comm.try_recv(c, 0, 10, m)) c.yield();
      EXPECT_EQ(m.src, 0);
    }
  });
}

TEST(Comm, IprobeDoesNotConsume) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  mp::Comm comm(2);
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() == 0) {
      comm.send(c, 1, 5);
    } else {
      int src = -1, tag = -1;
      while (!comm.iprobe(c, mp::kAny, mp::kAny, &src, &tag)) c.yield();
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 5);
      // Still there:
      mp::Message m;
      EXPECT_TRUE(comm.try_recv(c, 0, 5, m));
      EXPECT_FALSE(comm.try_recv(c, 0, 5, m));
    }
  });
}

TEST(Comm, LatencyGatesDeliveryInVirtualTime) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  cfg.net = pgas::NetModel::distributed();
  mp::Comm comm(2);
  std::uint64_t recv_time = 0, send_time = 0;
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() == 0) {
      send_time = c.now_ns();
      comm.send(c, 1, 1);
    } else {
      const mp::Message m = comm.recv(c, 0, 1);
      (void)m;
      recv_time = c.now_ns();
    }
  });
  // The receiver cannot observe the message before one wire latency after
  // the send was issued.
  EXPECT_GE(recv_time, send_time + cfg.net.remote_ref_ns);
}

TEST(Comm, FifoPerPairAndTag) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  mp::Comm comm(2);
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) comm.send(c, 1, 3, &i, sizeof i);
    } else {
      for (int i = 0; i < 20; ++i) {
        const mp::Message m = comm.recv(c, 0, 3);
        int v;
        std::memcpy(&v, m.payload.data(), sizeof v);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Comm, AllToAllTraffic) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 6;
  mp::Comm comm(6);
  std::atomic<int> received{0};
  eng.run(cfg, [&](pgas::Ctx& c) {
    for (int d = 0; d < 6; ++d)
      if (d != c.rank()) comm.send(c, d, 9, &d, sizeof d);
    for (int i = 0; i < 5; ++i) {
      (void)comm.recv(c, mp::kAny, 9);
      received.fetch_add(1);
    }
  });
  EXPECT_EQ(received.load(), 30);
  EXPECT_EQ(comm.total_sends(), 30u);
}

TEST(Comm, SelfSendWorks) {
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 1;
  mp::Comm comm(1);
  eng.run(cfg, [&](pgas::Ctx& c) {
    comm.send(c, 0, 4);
    (void)comm.recv(c, 0, 4);
  });
  EXPECT_EQ(comm.total_sends(), 1u);
}

/// Minimal concrete Ctx with a hand-set clock, so a test can poll a mailbox
/// at exact instants: charges are free and the clock moves only when the
/// test sets it.
class ClockCtx : public pgas::Ctx {
 public:
  explicit ClockCtx(int rank, pgas::FaultInjector* fi = nullptr)
      : Ctx(rank, 2, kNet, 1) {
    faults_ = fi;
  }

  std::uint64_t now = 0;

  std::uint64_t now_ns() override { return now; }
  void charge(std::uint64_t) override {}
  void yield() override {}
  void lock(pgas::Lock&) override {}

 private:
  static inline const pgas::NetModel kNet = pgas::NetModel::distributed();
};

// iprobe/try_recv return without taking the mailbox lock while nothing
// queued has arrived. These pin that the shortcut never moves the instant
// a message becomes visible.

TEST(Comm, MessageBecomesVisibleExactlyAtArrival) {
  mp::Comm comm(2);
  ClockCtx tx(0), rx(1);
  tx.now = 1000;
  comm.send(tx, 1, 7);
  const std::uint64_t arrival = 1000 + tx.net().bulk_ns(0, 1, 0);
  mp::Message m;
  rx.now = arrival - 1;
  EXPECT_FALSE(comm.iprobe(rx, mp::kAny, mp::kAny));
  EXPECT_FALSE(comm.try_recv(rx, mp::kAny, mp::kAny, m));
  rx.now = arrival;
  EXPECT_TRUE(comm.iprobe(rx, 0, 7));
  ASSERT_TRUE(comm.try_recv(rx, 0, 7, m));
  EXPECT_EQ(m.arrival_ns, arrival);
  EXPECT_FALSE(comm.iprobe(rx, mp::kAny, mp::kAny));
}

TEST(Comm, LaterArrivalStaysGatedAfterEarliestIsReceived) {
  mp::Comm comm(2);
  ClockCtx tx(0), rx(1);
  const std::uint64_t wire = tx.net().bulk_ns(0, 1, 0);
  for (const std::uint64_t t : {3000u, 1000u, 2000u}) {
    tx.now = t;
    comm.send(tx, 1, 5);
  }
  mp::Message m;
  for (const std::uint64_t t : {1000u, 2000u, 3000u}) {
    rx.now = t + wire - 1;
    EXPECT_FALSE(comm.iprobe(rx, 0, 5)) << t;
    EXPECT_FALSE(comm.try_recv(rx, 0, 5, m)) << t;
    rx.now = t + wire;
    EXPECT_TRUE(comm.iprobe(rx, 0, 5)) << t;
    ASSERT_TRUE(comm.try_recv(rx, 0, 5, m)) << t;
    EXPECT_EQ(m.arrival_ns, t + wire);
  }
  rx.now = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(comm.iprobe(rx, mp::kAny, mp::kAny));
}

TEST(Comm, DuplicateIsGatedByItsOwnArrival) {
  pgas::FaultPlan plan;
  plan.dup_prob = 1.0;
  // The injector is deterministic per (plan, seed, rank), so every call
  // sends the same original and the same trailing duplicate.
  const auto send_twice = [&plan](mp::Comm& comm) {
    pgas::FaultInjector fi(plan, 1, 0);
    ClockCtx tx(0, &fi);
    tx.now = 1000;
    comm.send(tx, 1, 3);
  };
  ClockCtx rx(1);
  mp::Message m;
  std::uint64_t orig = 0, dup = 0;
  {
    mp::Comm comm(2);
    send_twice(comm);
    rx.now = std::numeric_limits<std::uint64_t>::max();
    ASSERT_TRUE(comm.try_recv(rx, 0, 3, m));
    const std::uint64_t a = m.arrival_ns;
    ASSERT_TRUE(comm.try_recv(rx, 0, 3, m));
    orig = std::min(a, m.arrival_ns);
    dup = std::max(a, m.arrival_ns);
  }
  ASSERT_GT(dup, orig);
  mp::Comm comm(2);
  send_twice(comm);
  rx.now = orig;
  ASSERT_TRUE(comm.try_recv(rx, 0, 3, m));
  EXPECT_EQ(m.arrival_ns, orig);
  rx.now = dup - 1;
  EXPECT_FALSE(comm.iprobe(rx, 0, 3));
  EXPECT_FALSE(comm.try_recv(rx, 0, 3, m));
  rx.now = dup;
  EXPECT_TRUE(comm.iprobe(rx, 0, 3));
  ASSERT_TRUE(comm.try_recv(rx, 0, 3, m));
  EXPECT_EQ(m.arrival_ns, dup);
}

TEST(Comm, ThreadEngineDelivery) {
  pgas::ThreadEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 4;
  cfg.net = pgas::NetModel::free();
  mp::Comm comm(4);
  std::atomic<int> sum{0};
  eng.run(cfg, [&](pgas::Ctx& c) {
    const int next = (c.rank() + 1) % 4;
    comm.send(c, next, 1, &next, sizeof next);
    const mp::Message m = comm.recv(c, mp::kAny, 1);
    int v;
    std::memcpy(&v, m.payload.data(), sizeof v);
    sum.fetch_add(v);
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Comm, ThreadEngineConcurrentSendersLoseNothing) {
  // Every other rank floods rank 0 at once, so sends race the receiver's
  // lock-free empty-mailbox check on real threads: each message must
  // arrive exactly once, and in send order per sender.
  constexpr int kRanks = 6;
  constexpr int kPerSender = 400;
  pgas::ThreadEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = kRanks;
  cfg.net = pgas::NetModel::distributed();
  mp::Comm comm(kRanks);
  std::vector<int> next(kRanks, 0);  // rank 0 only
  int bad = 0;
  eng.run(cfg, [&](pgas::Ctx& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < kPerSender; ++i) {
        comm.send(c, 0, 2, &i, sizeof i);
        if (i % 16 == 0) c.yield();
      }
      return;
    }
    mp::Message m;
    for (int got = 0; got < (kRanks - 1) * kPerSender;) {
      if (!comm.iprobe(c, mp::kAny, 2) || !comm.try_recv(c, mp::kAny, 2, m)) {
        c.yield();
        continue;
      }
      int v;
      std::memcpy(&v, m.payload.data(), sizeof v);
      if (v != next[m.src]++) ++bad;
      ++got;
    }
  });
  EXPECT_EQ(bad, 0);
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(next[r], kPerSender) << r;
  EXPECT_EQ(comm.total_sends(), std::uint64_t{(kRanks - 1) * kPerSender});
}

}  // namespace
