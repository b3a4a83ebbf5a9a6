// Branch-and-bound 0/1 knapsack on the work-stealing engine — the "more
// sophisticated strategies such as branch-and-bound" the paper's §3/§6.1
// says the UPC model readily supports.
//
// This example builds the B&B by hand through the generic ws::make_problem
// facade, to show there is no magic; src/bnb/ packages the same pattern as
// a reusable library (see tests/test_bnb.cpp and bench_paper --only bnb).
//
// Each task is a partial decision prefix (items 0..idx-1 decided) with its
// accumulated profit/weight. A shared incumbent (best complete solution so
// far) lives in the global address space as an atomic; expansion prunes any
// branch whose fractional upper bound cannot beat the incumbent.
//
// Because pruning depends on how fast the incumbent improves, the *node
// count* is schedule-dependent — but the returned optimum must always equal
// the sequential dynamic-programming answer, which this example verifies.
//
// Run: ./build/examples/knapsack_bnb [items]   (default 30)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pgas/sim_engine.hpp"
#include "ws/search.hpp"

using namespace upcws;

namespace {

struct Item {
  std::int64_t weight;
  std::int64_t profit;
};

/// Deterministic, weakly correlated instance (hard enough to branch).
std::vector<Item> make_instance(int n, std::uint64_t seed) {
  std::vector<Item> items(n);
  std::uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& it : items) {
    it.weight = 1 + static_cast<std::int64_t>(next() % 1000);
    it.profit = it.weight + static_cast<std::int64_t>(next() % 200);
  }
  // Sort by profit density so the greedy fractional bound is tight.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.profit * b.weight > b.profit * a.weight;
  });
  return items;
}

/// Exact reference via branch-and-bound DFS, sequential (the instance
/// weights are too large for table DP; a sequential B&B with the same bound
/// is exact and fast).
std::int64_t solve_sequential(const std::vector<Item>& items,
                              std::int64_t capacity);

struct Task {
  std::int32_t idx;
  std::int64_t profit;
  std::int64_t weight;
};

/// Greedy fractional relaxation: an upper bound on any completion of `t`.
std::int64_t upper_bound(const std::vector<Item>& items, std::int64_t capacity,
                         const Task& t) {
  std::int64_t bound = t.profit;
  std::int64_t room = capacity - t.weight;
  for (std::size_t i = static_cast<std::size_t>(t.idx);
       i < items.size() && room > 0; ++i) {
    if (items[i].weight <= room) {
      room -= items[i].weight;
      bound += items[i].profit;
    } else {
      bound += items[i].profit * room / items[i].weight;
      room = 0;
    }
  }
  return bound;
}

std::int64_t solve_sequential(const std::vector<Item>& items,
                              std::int64_t capacity) {
  std::int64_t best = 0;
  std::vector<Task> stack{{0, 0, 0}};
  while (!stack.empty()) {
    const Task t = stack.back();
    stack.pop_back();
    best = std::max(best, t.profit);
    if (static_cast<std::size_t>(t.idx) == items.size()) continue;
    if (upper_bound(items, capacity, t) <= best) continue;
    const Item& it = items[static_cast<std::size_t>(t.idx)];
    stack.push_back({t.idx + 1, t.profit, t.weight});  // skip item
    if (t.weight + it.weight <= capacity)              // take item
      stack.push_back({t.idx + 1, t.profit + it.profit, t.weight + it.weight});
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 30;
  const auto items = make_instance(n, 12345);
  std::int64_t total_weight = 0;
  for (const auto& it : items) total_weight += it.weight;
  const std::int64_t capacity = total_weight / 2;

  const std::int64_t reference = solve_sequential(items, capacity);
  std::printf("knapsack: %d items, capacity %lld, optimum (sequential) %lld\n",
              n, static_cast<long long>(capacity),
              static_cast<long long>(reference));

  // Shared incumbent: conceptually a UPC shared variable; here an atomic in
  // the global address space, improved with a CAS loop.
  std::atomic<std::int64_t> incumbent{0};
  auto improve = [&incumbent](std::int64_t v) {
    std::int64_t cur = incumbent.load(std::memory_order_relaxed);
    while (v > cur && !incumbent.compare_exchange_weak(
                          cur, v, std::memory_order_acq_rel)) {
    }
  };

  auto prob = ws::make_problem(
      Task{0, 0, 0},
      [&](const Task& t, auto&& emit) {
        improve(t.profit);
        if (static_cast<std::size_t>(t.idx) == items.size()) return;
        if (upper_bound(items, capacity, t) <=
            incumbent.load(std::memory_order_relaxed))
          return;  // prune: no completion can beat the incumbent
        const Item& it = items[static_cast<std::size_t>(t.idx)];
        emit(Task{t.idx + 1, t.profit, t.weight});
        if (t.weight + it.weight <= capacity)
          emit(Task{t.idx + 1, t.profit + it.profit, t.weight + it.weight});
      },
      [](const Task& t) { return static_cast<int>(t.idx); });

  pgas::SimEngine eng;
  pgas::RunConfig rcfg;
  rcfg.nranks = 8;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.net.work_ns_per_node = 120;  // bound computation per node

  const auto res = ws::run_search(
      eng, rcfg, prob, ws::WsConfig::for_algo(ws::Algo::kUpcDistMem, 4));

  std::printf("parallel optimum: %lld\n",
              static_cast<long long>(incumbent.load()));
  std::printf("search: %s\n", res.agg.summary().c_str());

  const bool ok = incumbent.load() == reference;
  std::printf("matches sequential optimum: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
