// Property-based sweeps (parameterized gtest): randomized invariants of
// the approximation engine, the hom machinery, decompositions and the
// evaluation engines, across seeds.

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "core/approximator.h"
#include "core/query_class.h"
#include "core/structure.h"
#include "core/verifier.h"
#include "cq/containment.h"
#include "cq/minimize.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "cq/tableau.h"
#include "cq/trivial.h"
#include "data/generators.h"
#include "decomp/treewidth.h"
#include "eval/naive.h"
#include "eval/yannakakis.h"
#include "gadgets/workloads.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "hom/partitions.h"
#include "hypergraph/acyclicity.h"

namespace cqa {
namespace {

class SeededProperty : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(SeededProperty, ApproximationInvariants) {
  // For random small Boolean graph CQs: TW(1)-approximations exist, are
  // sound, in-class, minimized, pairwise incomparable, and pass the
  // verifier.
  Rng rng(GetParam());
  const ConjunctiveQuery q =
      RandomGraphCQ(3 + static_cast<int>(rng.UniformInt(4)),
                    4 + static_cast<int>(rng.UniformInt(4)), &rng);
  const auto cls = MakeTreewidthClass(1);
  const auto result = ComputeApproximations(q, *cls);
  ASSERT_FALSE(result.approximations.empty());
  EXPECT_TRUE(result.provably_complete);
  for (const auto& approx : result.approximations) {
    EXPECT_TRUE(cls->Contains(approx)) << PrintQuery(approx);
    EXPECT_TRUE(IsContainedIn(approx, q)) << PrintQuery(approx);
    EXPECT_TRUE(IsMinimal(approx)) << PrintQuery(approx);
    EXPECT_LE(approx.NumJoins(), q.NumJoins());
    EXPECT_TRUE(VerifyApproximation(approx, q, *cls).is_approximation)
        << PrintQuery(approx);
  }
  for (size_t i = 0; i < result.approximations.size(); ++i) {
    for (size_t j = i + 1; j < result.approximations.size(); ++j) {
      EXPECT_FALSE(AreEquivalent(result.approximations[i],
                                 result.approximations[j]));
    }
  }
}

TEST_P(SeededProperty, TrichotomyMatchesEngine) {
  // Theorem 5.1 as a property: the trichotomy class predicts the shape of
  // every computed acyclic approximation of a random cyclic Boolean CQ.
  Rng rng(GetParam() * 7919);
  const ConjunctiveQuery q =
      RandomCyclicGraphCQ(3 + static_cast<int>(rng.UniformInt(3)),
                          static_cast<int>(rng.UniformInt(3)), &rng);
  const TableauClass cls = ClassifyBooleanGraphTableau(q);
  const auto result = ComputeApproximations(q, *MakeTreewidthClass(1));
  for (const auto& approx : result.approximations) {
    switch (cls) {
      case TableauClass::kNotBipartite:
        EXPECT_TRUE(AreEquivalent(approx, TrivialLoopQuery()))
            << PrintQuery(q);
        break;
      case TableauClass::kBipartiteUnbalanced:
        EXPECT_TRUE(AreEquivalent(approx, TrivialBipartiteQuery()))
            << PrintQuery(q);
        break;
      case TableauClass::kBipartiteBalanced:
        EXPECT_FALSE(IsTrivialQuery(approx)) << PrintQuery(q);
        break;
    }
  }
}

TEST_P(SeededProperty, QuotientsAreHomomorphicImages) {
  Rng rng(GetParam() * 31);
  const ConjunctiveQuery q = RandomGraphCQ(4, 5, &rng, 1);
  const PointedDatabase tableau = ToTableau(q);
  int checked = 0;
  EnumerateSetPartitions(
      tableau.db.num_elements(),
      [&](const std::vector<int>& labels, int blocks) {
        const PointedDatabase quotient =
            QuotientDatabase(tableau, labels, blocks);
        EXPECT_TRUE(ExistsHomomorphism(tableau, quotient));
        return ++checked < 25;
      });
  EXPECT_GT(checked, 0);
}

TEST_P(SeededProperty, CoreIsHomEquivalentAndMinimal) {
  Rng rng(GetParam() * 101);
  const Database db = RandomDigraphDatabase(7, 0.3, &rng, true);
  const CoreResult res = ComputeCore(db);
  EXPECT_TRUE(ExistsHomomorphism(db, res.core));
  EXPECT_TRUE(ExistsHomomorphism(res.core, db));
  EXPECT_TRUE(IsCore(res.core));
  EXPECT_LE(res.core.num_elements(), db.num_elements());
}

TEST_P(SeededProperty, MinimizationPreservesSemantics) {
  Rng rng(GetParam() * 211);
  const ConjunctiveQuery q = RandomGraphCQ(5, 7, &rng, 2);
  const ConjunctiveQuery min = Minimize(q);
  EXPECT_TRUE(AreEquivalent(q, min));
  EXPECT_LE(min.num_variables(), q.num_variables());
  // Semantics on a concrete database.
  const Database db = RandomDigraphDatabase(7, 0.35, &rng, true);
  EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateNaive(min, db));
}

TEST_P(SeededProperty, ContainmentImpliesAnswerContainment) {
  Rng rng(GetParam() * 499);
  const ConjunctiveQuery a = RandomGraphCQ(4, 5, &rng, 1);
  const ConjunctiveQuery b = RandomGraphCQ(4, 4, &rng, 1);
  const Database db = RandomDigraphDatabase(8, 0.3, &rng, true);
  if (IsContainedIn(a, b)) {
    EXPECT_TRUE(EvaluateNaive(a, db).IsSubsetOf(EvaluateNaive(b, db)));
  }
  if (IsContainedIn(b, a)) {
    EXPECT_TRUE(EvaluateNaive(b, db).IsSubsetOf(EvaluateNaive(a, db)));
  }
}

TEST_P(SeededProperty, YannakakisMatchesNaive) {
  Rng rng(GetParam() * 7);
  for (int trial = 0; trial < 5; ++trial) {
    const ConjunctiveQuery q = RandomGraphCQ(
        3 + static_cast<int>(rng.UniformInt(3)),
        3 + static_cast<int>(rng.UniformInt(3)), &rng,
        static_cast<int>(rng.UniformInt(3)));
    if (!IsAcyclicQuery(q)) continue;
    const Database db = RandomDigraphDatabase(8, 0.3, &rng, true);
    EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateYannakakis(q, db))
        << PrintQuery(q);
  }
}

TEST_P(SeededProperty, TreewidthDecompositionInvariants) {
  Rng rng(GetParam() * 61);
  const int n = 4 + static_cast<int>(rng.UniformInt(5));
  Digraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.4)) g.AddEdge(u, v);
    }
  }
  // Bags are inclusion-maximal: none is a subset of a tree neighbour's.
  const auto maximal = [](const TreeDecomposition& td) {
    for (const auto& [x, y] : td.tree_edges) {
      const std::vector<int>& a = td.bags[x];
      const std::vector<int>& b = td.bags[y];
      if (std::includes(a.begin(), a.end(), b.begin(), b.end()) ||
          std::includes(b.begin(), b.end(), a.begin(), a.end())) {
        return false;
      }
    }
    return true;
  };
  const int tw = ExactTreewidth(g);
  const TreeDecomposition exact = ExactDecomposition(g);
  EXPECT_TRUE(ValidateTreeDecomposition(exact, g));
  EXPECT_EQ(exact.Width(), tw);
  EXPECT_TRUE(maximal(exact));
  const TreeDecomposition heuristic = MinFillDecomposition(g);
  EXPECT_TRUE(ValidateTreeDecomposition(heuristic, g));
  EXPECT_EQ(heuristic.Width(), WidthOfEliminationOrder(g, MinFillOrder(g)));
  EXPECT_GE(heuristic.Width(), tw);
  EXPECT_TRUE(maximal(heuristic));
}

TEST_P(SeededProperty, HypergraphApproximationSoundness) {
  // Random ternary CQs approximated in AC: soundness and class membership
  // (completeness is budget-bounded, so only the one-sided checks).
  Rng rng(GetParam() * 1009);
  const ConjunctiveQuery q =
      RandomCQ(Vocabulary::Single("R", 3), 5, 3, &rng);
  ApproximationOptions options;
  options.candidates.augmentation_budget = 1;
  const auto cls = MakeAcyclicClass();
  const auto result = ComputeApproximations(q, *cls, options);
  ASSERT_FALSE(result.approximations.empty());
  for (const auto& approx : result.approximations) {
    EXPECT_TRUE(cls->Contains(approx)) << PrintQuery(approx);
    EXPECT_TRUE(IsContainedIn(approx, q)) << PrintQuery(approx);
    EXPECT_TRUE(IsMinimal(approx)) << PrintQuery(approx);
  }
}

TEST_P(SeededProperty, HomCompositionClosure) {
  // If A -> B and B -> C then A -> C: composition sanity on random triples.
  Rng rng(GetParam() * 313);
  const Database a = RandomDigraphDatabase(5, 0.4, &rng, true);
  const Database b = RandomDigraphDatabase(5, 0.5, &rng, true);
  const Database c = RandomDigraphDatabase(5, 0.6, &rng, true);
  if (ExistsHomomorphism(a, b) && ExistsHomomorphism(b, c)) {
    EXPECT_TRUE(ExistsHomomorphism(a, c));
  }
}

TEST_P(SeededProperty, GyoJoinTreeAgreementOnQueryHypergraphs) {
  Rng rng(GetParam() * 73);
  const ConjunctiveQuery q =
      RandomCQ(Vocabulary::Single("R", 3), 6, 4, &rng);
  const Hypergraph h = HypergraphOfQuery(q);
  EXPECT_EQ(IsAcyclicGYO(h), IsAcyclic(h));
}

class TreewidthClassSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    KAndSeed, TreewidthClassSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(11, 22)));

TEST_P(TreewidthClassSweep, ApproximationsLandInTWk) {
  const int k = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  const ConjunctiveQuery q = RandomGraphCQ(5, 8, &rng);
  const auto cls = MakeTreewidthClass(k);
  const auto result = ComputeApproximations(q, *cls);
  ASSERT_FALSE(result.approximations.empty());
  for (const auto& approx : result.approximations) {
    EXPECT_TRUE(IsTreewidthAtMost(approx, k));
    EXPECT_TRUE(IsContainedIn(approx, q));
  }
  // Monotonicity: if q itself has treewidth <= k, the approximation is q.
  if (IsTreewidthAtMost(q, k)) {
    ASSERT_EQ(result.approximations.size(), 1u);
    EXPECT_TRUE(AreEquivalent(result.approximations[0], q));
  }
}

}  // namespace
}  // namespace cqa
