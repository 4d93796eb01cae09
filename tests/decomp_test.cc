// Unit tests for decompositions: exact treewidth, decomposition validity,
// hypertree width (det-k-decomp) and generalized hypertree width.

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "decomp/hypertree.h"
#include "decomp/tree_decomposition.h"
#include "decomp/treewidth.h"
#include "graph/standard.h"
#include "hypergraph/acyclicity.h"

namespace cqa {
namespace {

Digraph Grid(int rows, int cols) {
  Digraph g(rows * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(r * cols + c, r * cols + c + 1);
      if (r + 1 < rows) g.AddEdge(r * cols + c, (r + 1) * cols + c);
    }
  }
  return g;
}

// True iff no bag is a subset of a tree neighbour's bag.
bool BagsAreMaximal(const TreeDecomposition& td) {
  for (const auto& [x, y] : td.tree_edges) {
    const std::vector<int>& a = td.bags[x];
    const std::vector<int>& b = td.bags[y];
    if (std::includes(a.begin(), a.end(), b.begin(), b.end()) ||
        std::includes(b.begin(), b.end(), a.begin(), a.end())) {
      return false;
    }
  }
  return true;
}

TEST(TreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(DirectedPath(5)), 1);
  EXPECT_EQ(ExactTreewidth(DirectedCycle(5)), 2);
  EXPECT_EQ(ExactTreewidth(CompleteDigraph(5)), 4);
  EXPECT_EQ(ExactTreewidth(CompleteDigraph(2)), 1);
  EXPECT_EQ(ExactTreewidth(Grid(3, 3)), 3);
  EXPECT_EQ(ExactTreewidth(Grid(2, 4)), 2);
  EXPECT_EQ(ExactTreewidth(Digraph(3)), 0);  // edgeless
  EXPECT_EQ(ExactTreewidth(Digraph(0)), -1);
}

TEST(TreewidthTest, LoopsIgnored) {
  Digraph g = DirectedPath(3);
  g.AddEdge(1, 1);
  EXPECT_EQ(ExactTreewidth(g), 1);
}

TEST(TreewidthTest, AtMostConsistentWithExact) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(6));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.4)) g.AddEdge(u, v);
      }
    }
    const int tw = ExactTreewidth(g);
    EXPECT_TRUE(TreewidthAtMost(g, tw));
    if (tw > 0) EXPECT_FALSE(TreewidthAtMost(g, tw - 1));
  }
}

TEST(TreewidthTest, MinFillUpperBounds) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(5));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.5)) g.AddEdge(u, v);
      }
    }
    const auto order = MinFillOrder(g);
    EXPECT_GE(WidthOfEliminationOrder(g, order), ExactTreewidth(g));
  }
}

TEST(TreeDecompositionTest, FromOrderIsValid) {
  const Digraph g = Grid(3, 3);
  const TreeDecomposition td = MinFillDecomposition(g);
  EXPECT_TRUE(ValidateTreeDecomposition(td, g));
  EXPECT_GE(td.Width(), 3);
}

TEST(TreeDecompositionTest, ExactDecompositionOptimal) {
  const Digraph g = Grid(3, 3);
  const TreeDecomposition td = ExactDecomposition(g);
  EXPECT_TRUE(ValidateTreeDecomposition(td, g));
  EXPECT_EQ(td.Width(), 3);
  const Digraph cyc = DirectedCycle(7);
  const TreeDecomposition td2 = ExactDecomposition(cyc);
  EXPECT_TRUE(ValidateTreeDecomposition(td2, cyc));
  EXPECT_EQ(td2.Width(), 2);
}

TEST(TreeDecompositionTest, BagsAreMaximalWithWidthsKept) {
  // One bag per eliminated vertex would leave {4} beside {3, 4} here.
  const TreeDecomposition path = MinFillDecomposition(DirectedPath(4));
  EXPECT_EQ(path.bags.size(), 4u);
  EXPECT_EQ(path.tree_edges.size(), 3u);

  Rng rng(59);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(9));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.1 + 0.1 * (trial % 6))) g.AddEdge(u, v);
      }
    }
    const TreeDecomposition heuristic = MinFillDecomposition(g);
    EXPECT_TRUE(ValidateTreeDecomposition(heuristic, g));
    EXPECT_EQ(heuristic.Width(), WidthOfEliminationOrder(g, MinFillOrder(g)));
    EXPECT_TRUE(BagsAreMaximal(heuristic));
    const TreeDecomposition exact = ExactDecomposition(g);
    EXPECT_TRUE(ValidateTreeDecomposition(exact, g));
    EXPECT_EQ(exact.Width(), ExactTreewidth(g));
    EXPECT_TRUE(BagsAreMaximal(exact));
  }
  for (const Digraph& g : {Grid(3, 4), CompleteDigraph(5), Digraph(3)}) {
    const TreeDecomposition td = MinFillDecomposition(g);
    EXPECT_TRUE(ValidateTreeDecomposition(td, g));
    EXPECT_TRUE(BagsAreMaximal(td));
  }
}

TEST(TreeDecompositionTest, ValidatorCatchesMissingEdge) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TreeDecomposition td;
  td.bags = {{0, 1}, {2}};  // edge {1,2} uncovered
  td.tree_edges = {{0, 1}};
  EXPECT_FALSE(ValidateTreeDecomposition(td, g));
}

TEST(TreeDecompositionTest, ValidatorCatchesDisconnectedOccurrences) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TreeDecomposition td;
  td.bags = {{0, 1}, {2, 1}, {0}};
  td.tree_edges = {{0, 2}, {2, 1}};  // node 1 in bags 0,1 but not bag 2
  EXPECT_FALSE(ValidateTreeDecomposition(td, g));
}

TEST(TreeDecompositionTest, ValidatorCatchesCycle) {
  Digraph g(2);
  g.AddEdge(0, 1);
  TreeDecomposition td;
  td.bags = {{0, 1}, {0, 1}, {0, 1}};
  td.tree_edges = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(ValidateTreeDecomposition(td, g));
}

Hypergraph TriangleH() {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({2, 0});
  return h;
}

Hypergraph AcyclicH() {
  Hypergraph h(5);
  h.AddEdge({0, 1, 2});
  h.AddEdge({2, 3});
  h.AddEdge({3, 4});
  return h;
}

TEST(HypertreeTest, AcyclicIsWidthOne) {
  EXPECT_TRUE(HypertreeWidthAtMost(AcyclicH(), 1));
  EXPECT_EQ(HypertreeWidth(AcyclicH()), 1);
}

TEST(HypertreeTest, TriangleIsWidthTwo) {
  EXPECT_FALSE(HypertreeWidthAtMost(TriangleH(), 1));
  EXPECT_TRUE(HypertreeWidthAtMost(TriangleH(), 2));
  EXPECT_EQ(HypertreeWidth(TriangleH()), 2);
}

TEST(HypertreeTest, WitnessValidates) {
  const auto hd = FindHypertreeDecomposition(TriangleH(), 2);
  ASSERT_TRUE(hd.has_value());
  EXPECT_LE(hd->Width(), 2);
  EXPECT_TRUE(ValidateGeneralizedHypertree(TriangleH(), *hd));
  EXPECT_TRUE(ValidateHypertree(TriangleH(), *hd));
}

TEST(HypertreeTest, AcyclicWitnessValidates) {
  const auto hd = FindHypertreeDecomposition(AcyclicH(), 1);
  ASSERT_TRUE(hd.has_value());
  EXPECT_EQ(hd->Width(), 1);
  EXPECT_TRUE(ValidateHypertree(AcyclicH(), *hd));
}

TEST(HypertreeTest, LongCycleWidthTwo) {
  // A cycle of 6 binary edges has hypertree width 2.
  Hypergraph h(6);
  for (int i = 0; i < 6; ++i) h.AddEdge({i, (i + 1) % 6});
  EXPECT_FALSE(HypertreeWidthAtMost(h, 1));
  EXPECT_TRUE(HypertreeWidthAtMost(h, 2));
}

TEST(HypertreeTest, GyoMatchesWidthOne) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(5));
    Hypergraph h(n);
    const int m = 1 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < m; ++i) {
      std::vector<int> edge;
      const int size = 1 + static_cast<int>(rng.UniformInt(3));
      for (int j = 0; j < size; ++j) {
        edge.push_back(static_cast<int>(rng.UniformInt(n)));
      }
      h.AddEdge(std::move(edge));
    }
    // Skip hypergraphs with isolated nodes (HTW requires covering bags
    // only for nodes in edges; our builder treats them as width-1-safe).
    bool isolated = false;
    for (int v = 0; v < n; ++v) isolated |= h.edges_of(v).empty();
    if (isolated) continue;
    EXPECT_EQ(IsAcyclicGYO(h), HypertreeWidthAtMost(h, 1))
        << "trial " << trial;
  }
}

TEST(GeneralizedHypertreeTest, BoundsHypertreeWidth) {
  // ghw <= htw always.
  EXPECT_TRUE(GeneralizedHypertreeWidthAtMost(TriangleH(), 2));
  EXPECT_FALSE(GeneralizedHypertreeWidthAtMost(TriangleH(), 1));
  EXPECT_EQ(GeneralizedHypertreeWidth(TriangleH()), 2);
  EXPECT_EQ(GeneralizedHypertreeWidth(AcyclicH()), 1);
}

TEST(GeneralizedHypertreeTest, AgreesWithHypertreeOnSmallRandoms) {
  // On small random hypergraphs ghw <= htw; and ghw(k) membership is
  // monotone in k.
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.UniformInt(4));
    Hypergraph h(n);
    const int m = 2 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < m; ++i) {
      std::vector<int> edge;
      const int size = 2 + static_cast<int>(rng.UniformInt(2));
      for (int j = 0; j < size; ++j) {
        edge.push_back(static_cast<int>(rng.UniformInt(n)));
      }
      h.AddEdge(std::move(edge));
    }
    bool isolated = false;
    for (int v = 0; v < n; ++v) isolated |= h.edges_of(v).empty();
    if (isolated) continue;
    const int htw = HypertreeWidth(h);
    const int ghw = GeneralizedHypertreeWidth(h);
    EXPECT_LE(ghw, htw) << "trial " << trial;
    EXPECT_TRUE(GeneralizedHypertreeWidthAtMost(h, htw));
  }
}

}  // namespace
}  // namespace cqa
