#include "ws/uts_problem.hpp"

#include <algorithm>
#include <cstring>

#include "uts/tree.hpp"

namespace upcws::ws {

void UtsProblem::root(std::byte* out) const {
  const uts::Node r = uts::make_root(params_);
  std::memcpy(out, &r, sizeof(r));
}

int UtsProblem::expand(const std::byte* node, NodeSink& sink) const {
  uts::Node n;
  std::memcpy(&n, node, sizeof(n));
  const int nc = uts::num_children(n, params_);
  if (nc <= 0) return nc;

  // Children reach the sink in small packed batches: the common leaf-ish
  // cases (m = 2 or a geometric handful) take a single push_n.
  constexpr int kBatch = 16;
  uts::Node batch[kBatch];
  for (int done = 0; done < nc; done += kBatch) {
    const int take = std::min(nc - done, kBatch);
    uts::make_children(n, done, take, batch);
    sink.push_n(reinterpret_cast<const std::byte*>(batch),
                static_cast<std::size_t>(take), sizeof(uts::Node));
  }
  return nc;
}

int UtsProblem::depth(const std::byte* node) const {
  uts::Node n;
  std::memcpy(&n, node, sizeof(n));
  return n.height;
}

}  // namespace upcws::ws
