// UTS generator and sequential-search tests: determinism, structure,
// statistical shape of the binomial family, and budget guarding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "sha1/sha1.hpp"
#include "uts/params.hpp"
#include "uts/rng.hpp"
#include "uts/sequential.hpp"
#include "uts/tree.hpp"
#include "ws/uts_problem.hpp"

namespace {

using namespace upcws::uts;

TEST(UtsRng, InitIsDeterministic) {
  EXPECT_EQ(rng::init(0), rng::init(0));
  EXPECT_NE(rng::init(0), rng::init(1));
}

TEST(UtsRng, SpawnDependsOnParentAndIndex) {
  const auto root = rng::init(42);
  EXPECT_EQ(rng::spawn(root, 0), rng::spawn(root, 0));
  EXPECT_NE(rng::spawn(root, 0), rng::spawn(root, 1));
  const auto other = rng::init(43);
  EXPECT_NE(rng::spawn(root, 0), rng::spawn(other, 0));
}

TEST(UtsRng, MakeChildrenMatchesSpawnAndReference) {
  // The batched child routine (make_children, behind both expansion loops)
  // must produce exactly what spawn() does, which in turn must equal a
  // from-scratch incremental SHA-1 over parent-state || be32(index).
  const auto parent = rng::init(99);
  Node p;
  p.state = parent;
  p.height = 5;
  Node kids[64];
  make_children(p, 0, 64, kids);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto fast = kids[i].state;
    EXPECT_EQ(kids[i].height, 6) << "index " << i;
    EXPECT_EQ(fast, rng::spawn(parent, i)) << "index " << i;
    upcws::sha1::Hasher h;
    h.update(parent.data(), parent.size());
    const std::uint8_t be[4] = {static_cast<std::uint8_t>(i >> 24),
                                static_cast<std::uint8_t>(i >> 16),
                                static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i)};
    h.update(be, sizeof be);
    EXPECT_EQ(fast, h.finish()) << "index " << i;
  }
  // Out-of-order, offset and repeated children of one parent must agree.
  for (const int i : {3, 0, 3}) {
    Node c;
    make_children(p, i, 1, &c);
    EXPECT_EQ(c.state, rng::spawn(parent, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(c, make_child(p, i));
  }
}

TEST(UtsRng, ToProbInUnitInterval) {
  auto s = rng::init(7);
  for (int i = 0; i < 1000; ++i) {
    const double p = rng::to_prob(s);
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);
    s = rng::spawn(s, 0);
  }
}

TEST(UtsRng, ToProbLooksUniform) {
  // Chain of spawns; mean of uniform [0,1) should be ~0.5.
  auto s = rng::init(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng::to_prob(s);
    s = rng::spawn(s, 1);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(UtsTree, RootHasB0Children) {
  const Params p = test_small();
  const Node root = make_root(p);
  EXPECT_EQ(root.height, 0);
  EXPECT_EQ(num_children(root, p), 64);
}

TEST(UtsTree, BinomialChildCountIsTwoOrZero) {
  const Params p = test_small();
  const Node root = make_root(p);
  for (int i = 0; i < 64; ++i) {
    const Node c = make_child(root, i);
    EXPECT_EQ(c.height, 1);
    const int nc = num_children(c, p);
    EXPECT_TRUE(nc == 0 || nc == p.m) << "child " << i << " had " << nc;
  }
}

TEST(UtsTree, NonLeafFractionMatchesQ) {
  // Over many nodes, the fraction with children should approximate q.
  Params p = test_small();
  p.q = 0.3;
  const Node root = make_root(p);
  int nonleaf = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    // Use distinct grandchildren as samples.
    Node c = make_child(root, i % 64);
    c = make_child(c, i / 64 % 2);
    c.state = rng::spawn(c.state, static_cast<std::uint32_t>(i));
    if (num_children(c, p) > 0) ++nonleaf;
  }
  EXPECT_NEAR(static_cast<double>(nonleaf) / trials, p.q, 0.02);
}

TEST(UtsTree, ExpandAppendsChildren) {
  const Params p = test_small();
  const Node root = make_root(p);
  std::vector<Node> out;
  const int nc = expand(root, p, out);
  EXPECT_EQ(nc, 64);
  ASSERT_EQ(out.size(), 64u);
  std::set<std::array<std::uint8_t, 20>> unique;
  for (const Node& n : out) {
    EXPECT_EQ(n.height, 1);
    unique.insert(n.state);
  }
  EXPECT_EQ(unique.size(), 64u) << "children must be distinct";
}

TEST(UtsTree, ExpandersMatchSpawnForEveryChildCount) {
  // uts::expand (the sequential search) and ws::UtsProblem::expand (the
  // parallel engines, batching 16 children per push_n) must yield exactly
  // the nodes rng::spawn gives, for parents of 1 to 33 children: geometric
  // draws, so every batch boundary and tail length is crossed.
  Params p = test_small();
  p.type = TreeType::kGeometric;
  p.shape = GeomShape::kFixed;
  p.b0 = 8;
  p.gen_mx = 100;
  const upcws::ws::UtsProblem problem(p);
  struct Collect final : upcws::ws::NodeSink {
    std::vector<Node> nodes;
    void push(const std::byte* node) override {
      Node n;
      std::memcpy(&n, node, sizeof n);
      nodes.push_back(n);
    }
  };
  const Node root = make_root(p);
  std::set<int> seen;
  for (std::uint32_t j = 0; seen.size() < 33 && j < 100'000; ++j) {
    Node parent;
    parent.state = rng::spawn(root.state, j);
    parent.height = 1 + static_cast<int>(j % 7);
    const int nc = num_children(parent, p);
    if (nc < 1 || nc > 33 || !seen.insert(nc).second) continue;
    std::vector<Node> want;
    for (int i = 0; i < nc; ++i)
      want.push_back({rng::spawn(parent.state, static_cast<std::uint32_t>(i)),
                      parent.height + 1});
    std::vector<Node> seq = {root};  // expand appends after what is there
    EXPECT_EQ(expand(parent, p, seq), nc);
    seq.erase(seq.begin());
    EXPECT_EQ(seq, want) << nc << " children";
    Collect sink;
    EXPECT_EQ(problem.expand(reinterpret_cast<const std::byte*>(&parent),
                             sink),
              nc);
    EXPECT_EQ(sink.nodes, want) << nc << " children";
  }
  EXPECT_EQ(seen.size(), 33u);
}

TEST(UtsSeq, DeterministicSize) {
  const Params p = test_small();
  const auto a = search_sequential(p);
  const auto b = search_sequential(p);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->nodes, b->nodes);
  EXPECT_EQ(a->leaves, b->leaves);
  EXPECT_EQ(a->max_depth, b->max_depth);
  EXPECT_GT(a->nodes, 64u);  // at least the root's children
}

TEST(UtsSeq, DifferentSeedsDifferentTrees) {
  const auto a = search_sequential(test_small(0));
  const auto b = search_sequential(test_small(1));
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->nodes, b->nodes);
}

TEST(UtsSeq, LeafIdentityHolds) {
  // In a tree where non-leaves have exactly m=2 children:
  // nodes = 1 (root) + b0 (root children) + 2 * internal_nonroot.
  // Leaves + internal = nodes. Check internal consistency instead:
  // every node except the root and its b0 children has a parent with 2
  // children, so nodes - 1 - b0 must be even.
  const Params p = test_small();
  const auto r = search_sequential(p);
  ASSERT_TRUE(r);
  EXPECT_EQ((r->nodes - 1 - 64) % 2, 0u);
  EXPECT_LT(r->leaves, r->nodes);
}

TEST(UtsSeq, ExpectedSizeBallpark) {
  // Average over seeds should be within a factor of ~3 of the analytic
  // expectation (heavy-tailed, so generous tolerance over many seeds).
  const double expected = test_small().expected_size();
  double total = 0;
  const int seeds = 24;
  for (int s = 0; s < seeds; ++s) {
    const auto r = search_sequential(test_small(static_cast<unsigned>(s)));
    ASSERT_TRUE(r);
    total += static_cast<double>(r->nodes);
  }
  const double mean = total / seeds;
  EXPECT_GT(mean, expected / 3.0);
  EXPECT_LT(mean, expected * 3.0);
}

TEST(UtsSeq, BudgetGuardTriggers) {
  const auto r = search_sequential(test_small(), 10);
  EXPECT_FALSE(r.has_value());
}

TEST(UtsSeq, PaperTreeParametersPreserved) {
  const Params t1 = paper_t1();
  EXPECT_EQ(t1.b0, 2000);
  EXPECT_EQ(t1.m, 2);
  EXPECT_NEAR(t1.q, 0.5 * (1 - 1e-8), 1e-12);
  // Expected size ~ 1 + 2000 / 1e-8 = 2e11; same order as the paper's
  // "approximately 10.6 billion" actual instance (heavy-tailed draw).
  EXPECT_GT(t1.expected_size(), 1e10);

  const Params xxl = paper_t1xxl();
  EXPECT_EQ(xxl.root_seed, 559u);
  EXPECT_GT(xxl.expected_size(), 1e8);
}

TEST(UtsSeq, GeometricTreeTerminatesAtHorizon) {
  const Params p = geo_test();
  const auto r = search_sequential(p, 2'000'000);
  ASSERT_TRUE(r);
  EXPECT_LE(r->max_depth, p.gen_mx);
  EXPECT_GT(r->nodes, 1u);
}

TEST(UtsSeq, MaxStackBoundedByDepthTimesBranch) {
  const Params p = test_small();
  const auto r = search_sequential(p);
  ASSERT_TRUE(r);
  // DFS stack holds at most b0 + m*depth-ish entries for binomial trees.
  EXPECT_LE(r->max_stack, 64u + 2u * static_cast<std::size_t>(r->max_depth) + 2u);
}

}  // namespace
