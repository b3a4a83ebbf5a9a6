// Typed facade: run the load balancer over any user task type.
//
// The engine itself is type-erased (ws/problem.hpp); this header restores a
// clean, safe template API. A task type T must be trivially copyable — the
// protocols move tasks between ranks with one-sided memory transfers — and
// the user supplies an Expander: a callable
//
//     void expander(const T& task, auto&& emit_child)
//
// that calls emit_child(T) once per child. See examples/nqueens.cpp and
// examples/knapsack_bnb.cpp for end-to-end uses.
#pragma once

#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>

#include "ws/driver.hpp"
#include "ws/problem.hpp"

namespace upcws::ws {

/// A Problem over a trivially copyable task type.
///
/// Expand must be callable as expand(const T&, Emit&&) where Emit is a
/// callable taking const T&. Depth (optional) maps a task to a depth for
/// statistics.
template <typename T, typename Expand,
          typename Depth = int (*)(const T&)>
class TypedProblem final : public Problem {
  static_assert(std::is_trivially_copyable_v<T>,
                "tasks are moved by one-sided transfers; T must be "
                "trivially copyable");

 public:
  TypedProblem(T root, Expand expand,
               Depth depth = [](const T&) { return 0; })
      : root_(root), expand_(std::move(expand)), depth_(std::move(depth)) {}

  std::size_t node_bytes() const override { return sizeof(T); }

  void root(std::byte* out) const override {
    std::memcpy(out, &root_, sizeof(T));
  }

  int expand(const std::byte* node, NodeSink& sink) const override {
    T t;
    std::memcpy(&t, node, sizeof(T));
    int n = 0;
    expand_(t, [&](const T& child) {
      sink.push(reinterpret_cast<const std::byte*>(&child));
      ++n;
    });
    return n;
  }

  int depth(const std::byte* node) const override {
    T t;
    std::memcpy(&t, node, sizeof(T));
    return depth_(t);
  }

 private:
  T root_;
  Expand expand_;
  Depth depth_;
};

/// Deduction helper: make_problem(root, expander [, depth_fn]). The
/// problem it builds states no shared state (Problem::shares_state() is
/// false). Captured state that only collects results (a solution counter)
/// keeps that true; an expander whose captured state steers what it
/// expands (a pruning incumbent) belongs in a Problem subclass that
/// states it, or psim's parallel lane will not reproduce SimEngine.
template <typename T, typename Expand>
TypedProblem<T, Expand> make_problem(T root, Expand expand) {
  return TypedProblem<T, Expand>(root, std::move(expand));
}

template <typename T, typename Expand, typename Depth>
TypedProblem<T, Expand, Depth> make_problem(T root, Expand expand,
                                            Depth depth) {
  return TypedProblem<T, Expand, Depth>(root, std::move(expand),
                                        std::move(depth));
}

}  // namespace upcws::ws
