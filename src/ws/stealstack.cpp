#include "ws/stealstack.hpp"

#include <cassert>
#include <cstring>

namespace upcws::ws {

namespace {
/// Compact once the dead prefix exceeds this many nodes.
constexpr std::size_t kCompactThresholdNodes = 8192;
}  // namespace

void StealStack::init(std::size_t node_bytes, int owner) {
  node_bytes_ = node_bytes;
  owner_ = owner;
  lock_.owner = owner;
  work_avail_.set_owner(owner);
  // Small warm-up reserve only: ensure_capacity() doubles on demand, and a
  // big up-front block multiplied by thousands of simulated ranks in one
  // process (full-scale psim runs) dominates the footprint for ranks that
  // never hold more than a chunk or two.
  buf_.reserve(64 * node_bytes_);
  data_.store(buf_.data(), std::memory_order_release);
}

void StealStack::ensure_capacity(std::size_t nodes) {
  const std::size_t need = nodes * node_bytes_;
  if (buf_.size() >= need) return;
  const std::size_t grown = std::max(need, buf_.size() * 2);
  if (grown <= buf_.capacity()) {
    buf_.resize(grown);  // in place: the published data pointer is unchanged
    return;
  }
  // Growth reallocates, but a thief may still be copying its reserved chunk
  // out of the current block (locked-family transfers run outside the
  // critical section, and the copy is charged virtual time, so the owner
  // can grow mid-transfer — and under real threads there is no window in
  // which the owner could safely re-check the in-flight counter). So never
  // free the old block here: move the data to a fresh block, retire the old
  // one, and let maybe_compact() — which runs under the lock with no
  // transfers in flight — reclaim it. The reserved slots sit below
  // shared_base_, so a thief holding either block's pointer reads identical
  // bytes. Retired blocks sum to less than the live buffer (geometric
  // doubling), bounding the transient overhead at 2x.
  std::vector<std::byte> next(grown);
  if (!buf_.empty()) std::memcpy(next.data(), buf_.data(), buf_.size());
  retired_.push_back(std::move(buf_));
  buf_ = std::move(next);
  data_.store(buf_.data(), std::memory_order_release);
}

void StealStack::push(const std::byte* node) {
  ensure_capacity(top_ + 1);
  std::memcpy(buf_.data() + top_ * node_bytes_, node, node_bytes_);
  ++top_;
  peak_ = std::max<std::uint64_t>(peak_, depth());
}

void StealStack::push_n(const std::byte* nodes, std::size_t count) {
  if (count == 0) return;
  ensure_capacity(top_ + count);
  std::memcpy(buf_.data() + top_ * node_bytes_, nodes, count * node_bytes_);
  top_ += count;
  peak_ = std::max<std::uint64_t>(peak_, depth());
}

bool StealStack::pop(std::byte* out) {
  if (top_ == local_) return false;
  --top_;
  std::memcpy(out, buf_.data() + top_ * node_bytes_, node_bytes_);
  return true;
}

void StealStack::release(std::size_t k) {
  assert(local_size() >= k);
  local_ += k;
}

void StealStack::reacquire(std::size_t k) {
  assert(shared_size() >= k);
  local_ -= k;
}

std::size_t StealStack::reserve(std::size_t nodes) {
  assert(shared_size() >= nodes);
  const std::size_t begin = shared_base_.load(std::memory_order_relaxed);
  shared_base_.store(begin + nodes, std::memory_order_relaxed);
  return begin;
}

void StealStack::maybe_compact() {
  if (inflight_.load(std::memory_order_acquire) != 0) return;
  retired_.clear();  // no transfer in flight: retired blocks are unreferenced
  const std::size_t base = shared_base_.load(std::memory_order_relaxed);
  if (top_ == base) {
    shared_base_.store(0, std::memory_order_relaxed);
    local_ = top_ = 0;
    return;
  }
  if (base < kCompactThresholdNodes) return;
  const std::size_t live = top_ - base;
  std::memmove(buf_.data(), buf_.data() + base * node_bytes_,
               live * node_bytes_);
  local_ -= base;
  top_ -= base;
  shared_base_.store(0, std::memory_order_relaxed);
}

}  // namespace upcws::ws
