// Microbenchmarks (google-benchmark) of the implementation substrates:
// SHA-1, UTS node expansion, steal-stack operations, fiber context
// switching, the discrete-event scheduler, and the message layer. These
// quantify the real costs underlying the simulator (and back the paper's
// §2 point that UTS performance at small chunk sizes measures small-message
// efficiency).
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

// One SHA-1 compression of a padded 64-byte block from the IV: the unit
// cost behind every UTS child (uts::rng::Spawner). kernel:0 is the portable
// reference, kernel:1 the dispatched kernel the searches use (its name is
// the label). Each digest seeds the next block, as a parent's seeds its
// children's.
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
