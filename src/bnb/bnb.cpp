#include "bnb/bnb.hpp"

#include <vector>

namespace upcws::bnb {
namespace {

/// Adapts a BnbProblem + shared Incumbent into a ws::Problem: expansion
/// evaluates solutions, improves the incumbent, prunes, and branches.
class BnbAdapter final : public ws::Problem {
 public:
  BnbAdapter(const BnbProblem& p, Incumbent& inc) : p_(p), inc_(inc) {}

  std::size_t node_bytes() const override { return p_.node_bytes(); }
  void root(std::byte* out) const override { p_.root(out); }

  int expand(const std::byte* node, ws::NodeSink& sink) const override {
    if (const auto v = p_.solution_value(node)) {
      inc_.improve(*v);
      return 0;  // complete solutions are leaves
    }
    if (p_.bound(node) <= inc_.load()) return 0;  // pruned
    CountingSink cs{sink};
    p_.branch(node, cs);
    return cs.n;
  }

  int depth(const std::byte* node) const override { return p_.depth(node); }

  /// Every rank's expand reads and improves the one incumbent directly.
  bool shares_state() const override { return true; }

 private:
  struct CountingSink final : ws::NodeSink {
    explicit CountingSink(ws::NodeSink& inner) : inner(inner) {}
    void push(const std::byte* node) override {
      inner.push(node);
      ++n;
    }
    ws::NodeSink& inner;
    int n = 0;
  };

  const BnbProblem& p_;
  Incumbent& inc_;
};

}  // namespace

BnbResult solve(pgas::Engine& engine, const pgas::RunConfig& rcfg,
                const BnbProblem& prob, const ws::WsConfig& cfg,
                std::int64_t initial_bound) {
  Incumbent inc(initial_bound);
  BnbAdapter adapter(prob, inc);
  BnbResult out;
  out.search = ws::run_search(engine, rcfg, adapter, cfg);
  out.optimum = inc.load();
  return out;
}

std::int64_t solve_sequential(const BnbProblem& prob,
                              std::int64_t initial_bound,
                              std::uint64_t node_budget) {
  Incumbent inc(initial_bound);

  struct VecSink final : ws::NodeSink {
    explicit VecSink(std::size_t nb) : nb(nb) {}
    void push(const std::byte* node) override {
      buf.insert(buf.end(), node, node + nb);
    }
    std::size_t nb;
    std::vector<std::byte> buf;
  };

  const std::size_t nb = prob.node_bytes();
  std::vector<std::byte> stack(nb);
  prob.root(stack.data());
  std::uint64_t visited = 0;

  while (!stack.empty()) {
    std::vector<std::byte> node(stack.end() - static_cast<std::ptrdiff_t>(nb),
                                stack.end());
    stack.resize(stack.size() - nb);
    if (++visited > node_budget) break;
    if (const auto v = prob.solution_value(node.data())) {
      inc.improve(*v);
      continue;
    }
    if (prob.bound(node.data()) <= inc.load()) continue;
    VecSink sink(nb);
    prob.branch(node.data(), sink);
    stack.insert(stack.end(), sink.buf.begin(), sink.buf.end());
  }
  return inc.load();
}

}  // namespace upcws::bnb
