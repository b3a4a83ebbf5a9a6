#include "sim/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <vector>

// Two context-switch backends:
//
//  * UPCWS_FAST_FIBER (x86-64, no sanitizers): a ~20-instruction assembly
//    switch that saves the callee-saved registers on the suspending stack
//    and swaps %rsp. POSIX swapcontext makes an rt_sigprocmask syscall on
//    every switch (it must preserve the signal mask); at the simulator's
//    switch rates that syscall dominates the entire engine, and fibers
//    never touch the signal mask, so the engine skips it. The fibers also
//    never change the FP control/MXCSR modes, so those are not saved
//    either.
//
//  * ucontext fallback everywhere else. Under ASan the switch must be
//    announced via __sanitizer_*_switch_fiber or fake-stack bookkeeping
//    corrupts; under TSan each fiber carries its own shadow state and the
//    switch is announced via __tsan_switch_to_fiber (without it, TSan
//    attributes post-switch accesses to the pre-switch context and reports
//    phantom races). Sanitizer builds therefore always take this path.
#if defined(__x86_64__) && !defined(UPCWS_ASAN_FIBERS) &&      \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define UPCWS_FAST_FIBER 1
#endif
#else
#define UPCWS_FAST_FIBER 1
#endif
#endif

#ifndef UPCWS_FAST_FIBER
#include <ucontext.h>
#ifdef UPCWS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef UPCWS_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#endif

namespace upcws::sim {

namespace {
// The fiber currently executing on this OS thread (nullptr in scheduler
// context). thread_local so independent schedulers may run on different
// OS threads concurrently.
thread_local Fiber* g_current_fiber = nullptr;

// Stack pool: schedule checking and the benches construct thousands of
// short-lived Schedulers with identically sized fiber stacks; recycling
// the buffers through a small thread-local free list turns per-run stack
// allocation (and first-touch faulting) into a pointer swap.
class StackPool {
 public:
  std::vector<std::uint8_t> acquire(std::size_t bytes) {
    for (std::size_t i = free_.size(); i-- > 0;) {
      if (free_[i].size() == bytes) {
        std::vector<std::uint8_t> buf = std::move(free_[i]);
        free_[i] = std::move(free_.back());
        free_.pop_back();
        cached_bytes_ -= bytes;
        return buf;
      }
    }
    return std::vector<std::uint8_t>(bytes);
  }

  void release(std::vector<std::uint8_t>&& buf) {
    if (cached_bytes_ + buf.size() > kMaxCachedBytes) return;  // drop it
    cached_bytes_ += buf.size();
    free_.push_back(std::move(buf));
  }

 private:
  // Enough for several hundred default-size (256 KiB) stacks; a bound so
  // an unusual mix of stack sizes cannot pin memory forever.
  static constexpr std::size_t kMaxCachedBytes = 128u << 20;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t cached_bytes_ = 0;
};

thread_local StackPool g_stack_pool;
}  // namespace

#ifdef UPCWS_FAST_FIBER

// upcws_fiber_switch(void** save_sp, void* restore_sp):
// push callee-saved registers, publish %rsp through save_sp, adopt
// restore_sp, pop, return "into" the restored context.
asm(R"(
.text
.align 16
.globl upcws_fiber_switch
.hidden upcws_fiber_switch
.type upcws_fiber_switch, @function
upcws_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size upcws_fiber_switch, .-upcws_fiber_switch
)");

extern "C" {
void upcws_fiber_switch(void** save_sp, void* restore_sp);

// First activation target: the prepared frame parks the Fiber* in the %r12
// slot, and a tiny thunk moves it into %rdi for the C++ entry below.
asm(R"(
.text
.align 16
.globl upcws_fiber_entry_thunk
.hidden upcws_fiber_entry_thunk
.type upcws_fiber_entry_thunk, @function
upcws_fiber_entry_thunk:
  movq %r12, %rdi
  xorl %ebp, %ebp
  call upcws_fiber_entry
.size upcws_fiber_entry_thunk, .-upcws_fiber_entry_thunk
)");
void upcws_fiber_entry_thunk();
void upcws_fiber_entry(void* fiber);
}

struct Fiber::Impl {
  void* self_sp = nullptr;     // fiber's saved %rsp while suspended
  void* resumer_sp = nullptr;  // resumer's saved %rsp while fiber runs
  std::vector<std::uint8_t> stack;

  /// Build the initial frame so the first switch "returns" into the entry
  /// thunk with `f` in %r12 and the ABI-required stack alignment (%rsp
  /// ≡ 0 mod 16 at the thunk, hence ≡ 8 at upcws_fiber_entry's entry).
  void prepare(Fiber* f) {
    auto top_addr =
        reinterpret_cast<std::uintptr_t>(stack.data() + stack.size());
    top_addr &= ~std::uintptr_t{15};
    auto* top = reinterpret_cast<void**>(top_addr);
    top[-1] = reinterpret_cast<void*>(&upcws_fiber_entry_thunk);  // ret addr
    top[-2] = nullptr;                     // rbp
    top[-3] = nullptr;                     // rbx
    top[-4] = reinterpret_cast<void*>(f);  // r12
    top[-5] = nullptr;                     // r13
    top[-6] = nullptr;                     // r14
    top[-7] = nullptr;                     // r15
    self_sp = &top[-7];
  }

  /// From the resumer into this fiber; returns when control comes back.
  void switch_in() { upcws_fiber_switch(&resumer_sp, self_sp); }
  /// From this fiber to its resumer (`last`: it finished, never returns).
  void switch_out(bool /*last*/) { upcws_fiber_switch(&self_sp, resumer_sp); }
  /// From this fiber straight into `next`, which inherits the resumer.
  void switch_to(Impl& next) {
    next.resumer_sp = resumer_sp;
    upcws_fiber_switch(&self_sp, next.self_sp);
  }
};

}  // namespace upcws::sim

// Global scope: must be the same declaration the header befriended
// (::upcws_fiber_entry), not a namespace-qualified twin.
extern "C" void upcws_fiber_entry(void* fiber) {
  auto* f = static_cast<upcws::sim::Fiber*>(fiber);
  f->entry();
  // entry() switches away for good and never comes back here.
  std::abort();
}

namespace upcws::sim {

Fiber::Fiber(Fn fn, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = g_stack_pool.acquire(stack_bytes);
}

Fiber::~Fiber() {
  // Destroying a suspended (started, unfinished) fiber would leak whatever
  // is on its stack; the scheduler cancel()s unfinished fibers before
  // destroying them (abnormal teardown after TimeLimitExceeded or
  // HangDetected), so destructors on fiber stacks always run.
  g_stack_pool.release(std::move(impl_->stack));
}

#else  // !UPCWS_FAST_FIBER — ucontext backend (sanitizers, other arches)

// A handoff (switch_to) passes three things from the running fiber to the
// next rather than letting the next re-learn them from its peer: the
// resumer's context, its stack bounds (ASan) and its TSan fiber.
struct Fiber::Impl {
  ucontext_t self{};               // context of the fiber
  ucontext_t* resumer = nullptr;   // context to return to on yield/finish
  std::vector<std::uint8_t> stack;
#ifdef UPCWS_ASAN_FIBERS
  void* fiber_fake = nullptr;  // fiber's fake stack while suspended
  // The resumer's stack: switch_in clears it so the fiber learns it on its
  // next wake; switch_to copies it into the next fiber.
  const void* sched_bottom = nullptr;
  std::size_t sched_size = 0;
#endif
#ifdef UPCWS_TSAN_FIBERS
  // TSan keeps per-fiber shadow state (clock, shadow stack); every
  // swapcontext must be announced via __tsan_switch_to_fiber or TSan
  // attributes the new stack's accesses to the old context and reports
  // phantom races / use-after-free. Switches synchronize (flag 0):
  // cooperative scheduling is a happens-before edge.
  void* tsan_self = nullptr;     // this fiber's TSan state
  void* tsan_resumer = nullptr;  // the resumer's state, set by switch_in
#endif

  void prepare(Fiber* f) {
    getcontext(&self);
    self.uc_stack.ss_sp = stack.data();
    self.uc_stack.ss_size = stack.size();
    self.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(f);
    makecontext(&self, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xFFFFFFFFu));
  }

  /// First code on this fiber's stack after any switch into it.
  void arrived() {
#ifdef UPCWS_ASAN_FIBERS
    const bool learn = sched_bottom == nullptr;
    __sanitizer_finish_switch_fiber(fiber_fake, learn ? &sched_bottom : nullptr,
                                    learn ? &sched_size : nullptr);
#endif
  }

  void switch_in() {
    ucontext_t here;
    resumer = &here;
#ifdef UPCWS_ASAN_FIBERS
    sched_bottom = nullptr;
    void* sched_fake = nullptr;
    __sanitizer_start_switch_fiber(&sched_fake, stack.data(), stack.size());
#endif
#ifdef UPCWS_TSAN_FIBERS
    tsan_resumer = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_self, 0);
#endif
    swapcontext(&here, &self);
#ifdef UPCWS_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
  }

  void switch_out([[maybe_unused]] bool last) {
#ifdef UPCWS_ASAN_FIBERS
    // nullptr fake-stack save on the last switch: that stack is destroyed.
    __sanitizer_start_switch_fiber(last ? nullptr : &fiber_fake, sched_bottom,
                                   sched_size);
#endif
#ifdef UPCWS_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_resumer, 0);
#endif
    swapcontext(&self, resumer);
    arrived();
  }

  void switch_to(Impl& next) {
    next.resumer = resumer;
#ifdef UPCWS_ASAN_FIBERS
    next.sched_bottom = sched_bottom;
    next.sched_size = sched_size;
    __sanitizer_start_switch_fiber(&fiber_fake, next.stack.data(),
                                   next.stack.size());
#endif
#ifdef UPCWS_TSAN_FIBERS
    next.tsan_resumer = tsan_resumer;
    __tsan_switch_to_fiber(next.tsan_self, 0);
#endif
    swapcontext(&self, &next.self);
    arrived();
  }
};

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
  f->impl_->arrived();
  f->entry();
}

Fiber::Fiber(Fn fn, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = g_stack_pool.acquire(stack_bytes);
#ifdef UPCWS_TSAN_FIBERS
  impl_->tsan_self = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // See the fast-backend note: unfinished fibers are cancel()ed by the
  // scheduler before destruction, so their stacks are clean by now.
#ifdef UPCWS_TSAN_FIBERS
  __tsan_destroy_fiber(impl_->tsan_self);
#endif
  g_stack_pool.release(std::move(impl_->stack));
}

#endif  // UPCWS_FAST_FIBER

/// Body of the first activation (both backends): run the task, mark
/// finished, switch to the resumer. Do NOT fall off the end: neither
/// backend has a frame to return to (the ucontext uc_link is unset).
void Fiber::entry() {
  try {
    fn_();
  } catch (const Cancelled&) {
    // cancel() unwound the fiber stack; destructors have run.
  }
  finished_ = true;
  g_current_fiber = nullptr;
  impl_->switch_out(/*last=*/true);
}

void Fiber::enter(int uncaught) {
  g_current_fiber = this;
  eh_base_ = uncaught;
  if (!started_) {
    started_ = true;
    impl_->prepare(this);
  }
}

bool Fiber::may_suspend(int uncaught) {
  if (unwinding_) return false;
  unwind_depth_ = uncaught - eh_base_;
  return true;
}

void Fiber::woke() {
  g_current_fiber = this;
  // Throwing here is only safe from a plain suspend: if the fiber
  // suspended mid-unwind of another exception, or inside a shielded region
  // (a lock release reached from a noexcept destructor), a second throw
  // terminates the process. Leave the cancel pending; the next safe
  // suspend delivers it.
  if (!cancel_ || unwind_depth_ > 0 || shield_) return;
  unwinding_ = true;
  throw Cancelled{};
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* prev = g_current_fiber;
  enter(std::uncaught_exceptions());
  impl_->switch_in();
  g_current_fiber = prev;
}

void Fiber::yield_current() {
  Fiber* f = g_current_fiber;
  if (f == nullptr)
    throw std::logic_error("Fiber::yield_current outside fiber context");
  if (!f->may_suspend(std::uncaught_exceptions())) return;
  g_current_fiber = nullptr;
  f->impl_->switch_out(/*last=*/false);
  f->woke();
}

void Fiber::switch_to(Fiber& next) {
  Fiber* f = g_current_fiber;
  if (f == nullptr || &next == f || next.finished_)
    throw std::logic_error("Fiber::switch_to needs a fiber caller and an "
                           "unfinished peer");
  // One exception count serves both sides: it is taken at one instant.
  const int uncaught = std::uncaught_exceptions();
  if (!f->may_suspend(uncaught)) return;
  next.enter(uncaught);
  f->impl_->switch_to(*next.impl_);
  f->woke();
}

void Fiber::shield_current(bool on) {
  if (g_current_fiber != nullptr) g_current_fiber->shield_ = on;
}

void Fiber::cancel() {
  if (!started_ || finished_) return;
  cancel_ = true;
  // One resume normally suffices: the fiber wakes at its suspended yield,
  // throws Cancelled, and unwinds to the trampoline. Loop regardless in
  // case a destructor on the unwinding stack suspends again.
  while (!finished_) resume();
}

}  // namespace upcws::sim
