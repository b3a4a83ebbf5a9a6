#include "pgas/thread_engine.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace upcws::pgas {
namespace {

class ThreadCtx final : public Ctx {
 public:
  ThreadCtx(int rank, const RunConfig& cfg, const RunFaults& faults,
            double inject_scale, std::chrono::steady_clock::time_point epoch)
      : Ctx(rank, cfg, faults), inject_scale_(inject_scale), start_(epoch) {}

  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  void charge(std::uint64_t ns) override {
    if (dead_) return;
    maybe_crash();
    if (inject_scale_ <= 0.0) return;
    busy_wait(static_cast<std::uint64_t>(static_cast<double>(ns) *
                                         inject_scale_));
  }

  void yield() override {
    if (dead_) return;
    maybe_crash();
    // Fault-plan stalls freeze the thread for real wall time — including
    // while holding a Lock, which is how a stuck lock holder is produced
    // under genuine preemption. Stall durations are wall ns here (no
    // virtual clock), so plans for ThreadEngine should use small values.
    if (faults_ != nullptr) {
      const std::uint64_t t = now_ns();
      const std::uint64_t s = faults_->stall_due(t);
      if (s > 0) {
        busy_wait(s);
        if (obs_ != nullptr) obs_->on_stall(rank(), t, s);
      }
    }
    if (obs_ != nullptr) obs_->on_tick(rank(), now_ns());
    std::this_thread::yield();
  }

  void lock(Lock& l) override {
    if (try_lock(l)) return;
    // Real threads reach the lock word directly; the spins are uncharged.
    const std::uint64_t wait_from = now_ns();
    do {
      std::this_thread::yield();
    } while (!lock_word_acquire(l));
    if (obs_ != nullptr) {
      const std::uint64_t now = now_ns();
      obs_->on_lock_wait(rank(), now, now - wait_from);
    }
  }

 private:
  static void busy_wait(std::uint64_t ns) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  }

  double inject_scale_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

RunResult ThreadEngine::run(const RunConfig& cfg,
                            const std::function<void(Ctx&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(cfg.nranks);
  std::atomic<int> ready{0};
  const RunFaults faults(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < cfg.nranks; ++r) {
    threads.emplace_back([&, r] {
      ThreadCtx ctx(r, cfg, faults, opt_.inject_scale, t0);
      // Crude start-line barrier so ranks begin together.
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < cfg.nranks)
        std::this_thread::yield();
      try {
        body(ctx);
      } catch (const RankCrashed&) {
        // The rank fail-stopped; its thread ends here.
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult res;
  res.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

}  // namespace upcws::pgas
