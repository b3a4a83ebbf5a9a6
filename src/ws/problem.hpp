// Type-erased tree-search problem interface.
//
// The paper's load balancer is agnostic to what a "node" means: UTS ships
// 24-byte SHA-1 descriptors, but the same protocols apply to any depth-first
// state-space search whose states are small PODs ("the algorithms ... could
// be easily augmented to use more complex search methods such as
// branch-and-bound", §6.1/§3). The engine therefore works on fixed-size
// byte slots described by a Problem, and the typed facade in ws/search.hpp
// restores a clean template API for user task types (see examples/).
#pragma once

#include <cstddef>
#include <cstdint>

namespace upcws::ws {

/// Receives the children produced by Problem::expand. Implemented by the
/// engine (pushes directly onto the DFS stack — children never touch an
/// intermediate buffer).
class NodeSink {
 public:
  virtual ~NodeSink() = default;
  /// Append one child node (exactly node_bytes() bytes).
  virtual void push(const std::byte* node) = 0;

  /// Append `count` consecutive nodes from a packed buffer of
  /// `count * node_bytes` bytes, in order. The default forwards to push()
  /// one node at a time, so sinks that inspect or filter individual nodes
  /// (static partitioning, counting shims) keep their semantics; hot sinks
  /// override this with a single bulk copy.
  virtual void push_n(const std::byte* nodes, std::size_t count,
                      std::size_t node_bytes) {
    for (std::size_t i = 0; i < count; ++i) push(nodes + i * node_bytes);
  }
};

/// A depth-first enumeration problem over trivially copyable nodes.
/// Implementations must be safe to call concurrently from multiple ranks
/// (const methods, no mutable shared state unless shares_state() says so).
class Problem {
 public:
  virtual ~Problem() = default;

  /// Size of one node descriptor in bytes. Nodes are moved between ranks by
  /// memcpy-like one-sided transfers, so they must be trivially copyable
  /// and self-contained.
  virtual std::size_t node_bytes() const = 0;

  /// Write the root node into `out` (node_bytes() bytes).
  virtual void root(std::byte* out) const = 0;

  /// Expand `node`, pushing each child into `sink`.
  /// Returns the number of children (0 for a leaf).
  virtual int expand(const std::byte* node, NodeSink& sink) const = 0;

  /// Depth of a node, if the problem tracks one (used only for statistics;
  /// return 0 if not meaningful).
  virtual int depth(const std::byte* node) const { (void)node; return 0; }

  /// True when expand() reads or writes state that all ranks share (a
  /// branch-and-bound incumbent). Such accesses bypass pgas::Ctx, so the
  /// parallel PDES engine cannot order them and runs the search on its
  /// serial lane (fallback reason "unmediated"). A fact about the problem
  /// type, not a setting.
  virtual bool shares_state() const { return false; }
};

}  // namespace upcws::ws
