// Microbenchmarks (google-benchmark) of the implementation substrates:
// SHA-1, UTS node expansion, steal-stack operations, fiber context
// switching, the discrete-event scheduler, lock spins, and the message
// layer. These quantify the real costs underlying the simulator (and back
// the paper's §2 point that UTS performance at small chunk sizes measures
// small-message efficiency).
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "mp/comm.hpp"
#include "pgas/sim_engine.hpp"
#include "sha1/sha1.hpp"
#include "sim/fiber.hpp"
#include "sim/ready_queue.hpp"
#include "sim/scheduler.hpp"
#include "uts/sequential.hpp"
#include "uts/tree.hpp"
#include "ws/stealstack.hpp"

using namespace upcws;

// One SHA-1 compression of a padded 64-byte block from the IV, the block
// and digest in memory. kernel:0 is the portable reference, kernel:1 the
// dispatched kernel (its name is the label). Each digest seeds the next
// block, as a parent's seeds its children's. UTS children take
// sha1::spawn instead; BM_UtsSpawn prices that.
static void BM_Sha1(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::uint8_t block[64] = {};
  block[24] = 0x80;  // a 24-byte spawn message, padded
  block[63] = 192;
  for (auto _ : state) {
    const sha1::Digest d = dispatched ? sha1::compress_block(block)
                                      : sha1::compress_block_portable(block);
    std::memcpy(block, d.data(), d.size());
    benchmark::DoNotOptimize(block);
  }
  state.SetLabel(dispatched ? sha1::kernel_name() : "portable");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizeof block));
}
BENCHMARK(BM_Sha1)->ArgName("kernel")->Arg(0)->Arg(1);

// One binomial parent's two children through uts::make_children, the
// routine both expansion loops use: the unit cost of expansion per
// non-leaf node. The next parent is one of the two children, so the
// iterations chain as a tree walk does. Time per iteration is ns per
// parent; the label is the SHA-1 kernel in use.
static void BM_UtsSpawn(benchmark::State& state) {
  const uts::Params p = uts::test_small();
  uts::Node parent = uts::make_root(p);
  uts::Node kids[2];
  std::uint32_t i = 0;
  for (auto _ : state) {
    uts::make_children(parent, 0, 2, kids);
    benchmark::DoNotOptimize(kids);
    parent = kids[i++ & 1];
    if (parent.height > 1000) parent.height = 0;
  }
  state.SetLabel(sha1::kernel_name());
}
BENCHMARK(BM_UtsSpawn);

static void BM_UtsChildGen(benchmark::State& state) {
  const uts::Params p = uts::test_small();
  uts::Node n = uts::make_root(p);
  int i = 0;
  for (auto _ : state) {
    n = uts::make_child(n, i++ & 1);
    benchmark::DoNotOptimize(n);
    if (n.height > 1000) n = uts::make_root(p);
  }
}
BENCHMARK(BM_UtsChildGen);

static void BM_UtsSequentialSearch(benchmark::State& state) {
  const uts::Params p = uts::test_small(2);
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const auto r = uts::search_sequential(p);
    nodes = r->nodes;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(nodes) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UtsSequentialSearch);

static void BM_StealStackPushPop(benchmark::State& state) {
  ws::StealStack s;
  s.init(24, 0);
  std::byte node[24] = {};
  for (auto _ : state) {
    s.push(node);
    s.push(node);
    benchmark::DoNotOptimize(s.pop(node));
    benchmark::DoNotOptimize(s.pop(node));
  }
}
BENCHMARK(BM_StealStackPushPop);

static void BM_StealStackReleaseReacquire(benchmark::State& state) {
  ws::StealStack s;
  s.init(24, 0);
  std::byte node[24] = {};
  for (int i = 0; i < 64; ++i) s.push(node);
  for (auto _ : state) {
    s.release(16);
    s.reacquire(16);
  }
}
BENCHMARK(BM_StealStackReleaseReacquire);

static void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber f([] {
    for (;;) sim::Fiber::yield_current();
  });
  for (auto _ : state) f.resume();
  // The fiber is abandoned suspended; its destructor tolerates that.
}
BENCHMARK(BM_FiberSwitch);

// One ready-queue step of the scheduler's round-robin pattern across
// `range` tasks: the running task re-queues 10 ns later and the minimum
// comes out, as the fused push_pop of a handoff.
static void BM_ReadyQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::ReadyQueue rq;
  for (int t = 1; t < n; ++t) rq.push(0, t);
  sim::ReadyQueue::Entry cur{0, 0};
  for (auto _ : state) {
    cur = rq.push_pop(cur.vt + 10, cur.task);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_ReadyQueuePushPop)->Arg(16)->Arg(32)->Arg(128);

static void BM_SchedulerRoundRobin(benchmark::State& state) {
  // Cost of one scheduler dispatch across `range` runnable fibers: each
  // yield hands the step straight to the next fiber.
  const int n = static_cast<int>(state.range(0));
  const std::uint64_t yields = 2000;
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < n; ++i) {
      s.spawn([yields] {
        auto& sc = sim::Scheduler::current();
        for (std::uint64_t j = 0; j < yields; ++j) {
          sc.advance(10);
          sc.yield();
        }
      });
    }
    s.run();
    benchmark::DoNotOptimize(s.makespan_ns());
  }
  state.counters["switch_ns"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * yields,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SchedulerRoundRobin)->Arg(2)->Arg(16)->Arg(128);

static void BM_LockSpin(benchmark::State& state) {
  // Host cost of one lock spin: rank 0 spins on its own lock (3 ns local
  // references on the distributed model) while rank 1 holds it across one
  // fixed 1 ms charge, ~333k spins per run. Each spin charges exactly one
  // local reference, so the spins are counted from rank 0's wait.
  // crash_plan:1 arms a crash that never fires, as svc-mix's crash jobs
  // do: every charge then also runs the fault hooks.
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  cfg.net = pgas::NetModel::distributed();
  if (state.range(0) != 0) {
    pgas::CrashSpec never;
    never.rank = 1;
    never.at_ns = UINT64_MAX;
    cfg.faults.crashes.push_back(never);
  }
  std::uint64_t spins = 0;
  for (auto _ : state) {
    pgas::Lock l;  // rank 0's
    const pgas::RunResult r = eng.run(cfg, [&](pgas::Ctx& c) {
      if (c.rank() == 1) {
        pgas::LockGuard g(c, l);
        c.charge(1'000'000);
        return;
      }
      c.charge(3'500);  // rank 1 takes the lock first, at 3 us
      const std::uint64_t from = c.now_ns();
      pgas::LockGuard g(c, l);
      spins += (c.now_ns() - from) / c.net().local_ref_ns - 1;
    });
    benchmark::DoNotOptimize(r.switches);
  }
  state.counters["spin_ns"] = benchmark::Counter(
      static_cast<double>(spins),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LockSpin)->ArgName("crash_plan")->Arg(0)->Arg(1);

static void BM_CommSendRecv(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  pgas::SimEngine eng;
  pgas::RunConfig cfg;
  cfg.nranks = 2;
  cfg.net = pgas::NetModel::free();
  std::vector<std::uint8_t> payload(bytes, 1);
  for (auto _ : state) {
    mp::Comm comm(2);
    eng.run(cfg, [&](pgas::Ctx& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 100; ++i)
          comm.send(c, 1, 7, payload.data(), payload.size());
      } else {
        for (int i = 0; i < 100; ++i) {
          auto m = comm.recv(c, 0, 7);
          benchmark::DoNotOptimize(m.payload.data());
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CommSendRecv)->Arg(24)->Arg(480);

BENCHMARK_MAIN();
