// UPC-style shared arrays with explicit data distribution.
//
// UPC's defining data structure is the shared array whose elements have
// affinity to specific threads (blocked or cyclic layout), accessed through
// the global address space — cheap when local, a network reference when
// not, with upc_forall iterating only the indices a thread owns. This
// header provides that substrate over the Ctx cost model, completing the
// UPC runtime picture the paper's programs assume (§3: "a collection of
// local and global state variables ... accomplished through shared variable
// references").
#pragma once

#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "pgas/engine.hpp"

namespace upcws::pgas {

enum class Layout {
  kBlocked,  ///< contiguous ranges per rank (upc blocksize = ceil(n/ranks))
  kCyclic,   ///< element i lives at rank i % nranks (upc default)
};

/// A fixed-size shared array of trivially copyable elements, one
/// pgas::Shared word each. All ranks may call get/put/fetch_add
/// concurrently; accesses are atomic per element and mediated by affinity.
template <typename T>
class GlobalArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "shared array elements must be trivially copyable");

 public:
  GlobalArray(std::size_t n, int nranks, Layout layout = Layout::kCyclic)
      : n_(n), nranks_(nranks), layout_(layout), cells_(n) {
    if (nranks < 1) throw std::invalid_argument("nranks < 1");
    block_ = (n + static_cast<std::size_t>(nranks) - 1) /
             static_cast<std::size_t>(nranks);
    if (block_ == 0) block_ = 1;
    for (std::size_t i = 0; i < n; ++i) cells_[i].set_owner(owner(i));
  }

  std::size_t size() const { return n_; }
  Layout layout() const { return layout_; }

  /// Rank that element `i` has affinity to.
  int owner(std::size_t i) const {
    return layout_ == Layout::kCyclic
               ? static_cast<int>(i % static_cast<std::size_t>(nranks_))
               : static_cast<int>(i / block_);
  }

  /// Shared read (charges by affinity).
  T get(Ctx& c, std::size_t i) const { return c.get(cells_[i]); }

  /// Shared write (charges by affinity).
  void put(Ctx& c, std::size_t i, T x) { c.put(cells_[i], x); }

  /// Atomic read-modify-write add; returns the previous value.
  T fetch_add(Ctx& c, std::size_t i, T delta) {
    return c.add(cells_[i], delta);
  }

  /// Local write of an element the caller owns (UPC's cast-to-local-
  /// pointer idiom: no address translation, no network). Throws
  /// std::logic_error if the element is not local to `c.rank()`.
  void local_put(Ctx& c, std::size_t i, T x) { c.put_local(cells_[i], x); }

  /// upc_forall(i; affinity i): invoke f(i) for every index with affinity
  /// to the calling rank, in ascending order.
  template <typename F>
  void forall_local(Ctx& c, F&& f) const {
    if (layout_ == Layout::kCyclic) {
      for (std::size_t i = static_cast<std::size_t>(c.rank()); i < n_;
           i += static_cast<std::size_t>(nranks_))
        f(i);
    } else {
      const std::size_t lo = static_cast<std::size_t>(c.rank()) * block_;
      const std::size_t hi = std::min(n_, lo + block_);
      for (std::size_t i = lo; i < hi; ++i) f(i);
    }
  }

  /// Unsynchronized raw access for setup/teardown outside the SPMD region.
  T read_raw(std::size_t i) const {
    return cells_[i].unmediated().load(std::memory_order_relaxed);
  }
  void write_raw(std::size_t i, T x) {
    cells_[i].unmediated().store(x, std::memory_order_relaxed);
  }

 private:
  std::size_t n_;
  int nranks_;
  Layout layout_;
  std::size_t block_ = 1;
  std::vector<Shared<T>> cells_;
};

}  // namespace upcws::pgas
