// UTS implicit tree generation: root construction and child expansion.
#pragma once

#include <vector>

#include "uts/node.hpp"
#include "uts/params.hpp"

namespace upcws::uts {

/// Construct the tree root for the given parameters.
Node make_root(const Params& p);

/// Number of children of `n` under parameters `p`.
/// Deterministic: derived from the node's RNG state.
int num_children(const Node& n, const Params& p);

/// Write children `first` .. `first + count - 1` of `parent` to
/// out[0 .. count): the one child routine behind make_child, expand and
/// ws::UtsProblem::expand. Each state is sha1::spawn of the parent's;
/// `out` must not overlap `parent`.
void make_children(const Node& parent, int first, int count, Node* out);

/// Construct child `index` (0-based) of `parent`.
Node make_child(const Node& parent, int index);

/// Expand `n`, appending all of its children to `out` (does not clear;
/// `n` must not be an element of `out`). Returns the number of children
/// appended.
int expand(const Node& n, const Params& p, std::vector<Node>& out);

}  // namespace upcws::uts
