#include "uts/tree.hpp"

#include <cmath>

#include "sha1/sha1.hpp"
#include "uts/rng.hpp"

namespace upcws::uts {
namespace {

/// Expected branching factor at depth d for geometric trees.
double geo_bi(const Params& p, int depth) {
  if (depth == 0) return p.b0;
  if (depth >= p.gen_mx) return 0.0;
  switch (p.shape) {
    case GeomShape::kLinear:
      return p.b0 * (1.0 - static_cast<double>(depth) / p.gen_mx);
    case GeomShape::kExpDec:
      return p.b0 *
             std::pow(static_cast<double>(depth),
                      -std::log(p.b0) / std::log(static_cast<double>(p.gen_mx)));
    case GeomShape::kCyclic: {
      // Periodic bursts: full branching in the first quarter of each period,
      // strongly damped otherwise (mirrors the UTS cyclic intent).
      if (depth > 5 * p.gen_mx) return 0.0;
      const double phase =
          std::sin(2.0 * 3.141592653589793 * depth / p.gen_mx);
      return std::pow(p.b0, phase);
    }
    case GeomShape::kFixed:
      return p.b0;
  }
  return 0.0;
}

}  // namespace

Node make_root(const Params& p) {
  Node root;
  root.state = rng::init(p.root_seed);
  root.height = 0;
  return root;
}

int num_children(const Node& n, const Params& p) {
  switch (p.type) {
    case TreeType::kBinomial: {
      if (n.height == 0) return static_cast<int>(p.b0);
      return (rng::to_prob(n.state) < p.q) ? p.m : 0;
    }
    case TreeType::kHybrid: {
      // UTS T2-style: geometric shape down to shift_depth * gen_mx, then a
      // binomial fringe (which is what makes the hybrid unbalanced).
      if (n.height < p.shift_depth * p.gen_mx) {
        Params geo = p;
        geo.type = TreeType::kGeometric;
        return num_children(n, geo);
      }
      return (rng::to_prob(n.state) < p.q) ? p.m : 0;
    }
    case TreeType::kGeometric: {
      const double bi = geo_bi(p, n.height);
      if (bi <= 0.0) return 0;
      // Draw from the geometric distribution with mean bi:
      // P(children = k) = pr * (1-pr)^k with pr = 1/(1+bi).
      const double pr = 1.0 / (1.0 + bi);
      const double u = rng::to_prob(n.state);
      const int k =
          static_cast<int>(std::floor(std::log(1.0 - u) / std::log(1.0 - pr)));
      // Cap to keep pathological draws bounded, as in the UTS reference.
      return std::min(k, 10 * static_cast<int>(p.b0) + 1);
    }
  }
  return 0;
}

void make_children(const Node& parent, int first, int count, Node* out) {
  const std::int32_t height = parent.height + 1;
  for (int i = 0; i < count; ++i) {
    sha1::spawn(parent.state, static_cast<std::uint32_t>(first + i),
                out[i].state);
    out[i].height = height;
  }
}

Node make_child(const Node& parent, int index) {
  Node c;
  make_children(parent, index, 1, &c);
  return c;
}

int expand(const Node& n, const Params& p, std::vector<Node>& out) {
  const int nc = num_children(n, p);
  if (nc <= 0) return nc;
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(nc));
  make_children(n, 0, nc, out.data() + at);
  return nc;
}

}  // namespace upcws::uts
