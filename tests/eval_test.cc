// Unit and cross-engine tests for the evaluation engines: naive
// backtracking, Yannakakis (acyclic), bounded-treewidth DP.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <optional>

#include "base/rng.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "data/generators.h"
#include "eval/naive.h"
#include "eval/treewidth_eval.h"
#include "eval/var_table.h"
#include "eval/yannakakis.h"
#include "gadgets/workloads.h"
#include "graph/standard.h"

namespace cqa {
namespace {

VocabularyPtr G() { return Vocabulary::Graph(); }

TEST(AnswerSetTest, BasicOps) {
  AnswerSet s(2);
  EXPECT_TRUE(s.Insert({0, 1}));
  EXPECT_FALSE(s.Insert({0, 1}));
  EXPECT_TRUE(s.Contains({0, 1}));
  EXPECT_FALSE(s.Contains({1, 0}));
  AnswerSet t(2);
  t.Insert({0, 1});
  t.Insert({1, 0});
  EXPECT_TRUE(s.IsSubsetOf(t));
  EXPECT_FALSE(t.IsSubsetOf(s));
  EXPECT_FALSE(s == t);
}

// Heap bytes the allocator has handed out, mmapped blocks included (0 when
// an instrumented allocator, such as ASan's, leaves glibc's counters idle).
size_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Answers are flat: a binary row costs its two values plus a few hash-table
// bytes, with no heap tuple per row (an unordered_set of Tuples took about
// 94 B). Reports the cost measured from the allocator and from capacities.
TEST(AnswerSetTest, BytesPerBinaryRow) {
  constexpr int kRows = 100000;
  const size_t before = HeapBytesInUse();
  std::optional<AnswerSet> set(std::in_place, 2);
  for (int i = 0; i < kRows; ++i) set->Insert({i % 1000, i / 1000});
  ASSERT_EQ(set->size(), static_cast<size_t>(kRows));
  const size_t after = HeapBytesInUse();
  const double by_capacity = static_cast<double>(set->ApproxBytes()) / kRows;
  std::printf("AnswerSet: %.1f B per binary row by capacity (%d rows)\n",
              by_capacity, kRows);
  EXPECT_LE(by_capacity, 32.0);
  if (after > before) {
    const double by_allocator = static_cast<double>(after - before) / kRows;
    std::printf("AnswerSet: %.1f B per binary row by the allocator\n",
                by_allocator);
    EXPECT_LE(by_allocator, 32.0);
  }
}

TEST(NaiveTest, TriangleOnTriangle) {
  const auto q = MustParseQuery(G(), "Q(x) :- E(x,y), E(y,z), E(z,x)");
  const AnswerSet ans = EvaluateNaive(q, DirectedCycle(3).ToDatabase());
  EXPECT_EQ(ans.size(), 3u);
}

TEST(NaiveTest, TriangleOnSquareEmpty) {
  const auto q = MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)");
  EXPECT_FALSE(EvaluateNaive(q, DirectedCycle(4).ToDatabase()).AsBoolean());
  EXPECT_FALSE(EvaluateNaiveBoolean(q, DirectedCycle(4).ToDatabase()));
}

TEST(NaiveTest, RepeatedFreeVariables) {
  const auto q = MustParseQuery(G(), "Q(x, x) :- E(x, y)");
  Digraph g(2);
  g.AddEdge(0, 1);
  const AnswerSet ans = EvaluateNaive(q, g.ToDatabase());
  EXPECT_EQ(ans.size(), 1u);
  EXPECT_TRUE(ans.Contains({0, 0}));
}

TEST(NaiveTest, AnswerContains) {
  const auto q = MustParseQuery(G(), "Q(x, y) :- E(x, y), E(y, z)");
  const Database db = DirectedPath(3).ToDatabase();
  EXPECT_TRUE(AnswerContains(q, db, {0, 1}));
  EXPECT_TRUE(AnswerContains(q, db, {1, 2}));
  EXPECT_FALSE(AnswerContains(q, db, {2, 3}));  // no z beyond 3
  EXPECT_FALSE(AnswerContains(q, db, {1, 0}));
}

TEST(NaiveTest, LoopQuery) {
  const auto q = MustParseQuery(G(), "Q(x) :- E(x, x)");
  Digraph g(3);
  g.AddEdge(1, 1);
  g.AddEdge(0, 1);
  const AnswerSet ans = EvaluateNaive(q, g.ToDatabase());
  EXPECT_EQ(ans.size(), 1u);
  EXPECT_TRUE(ans.Contains({1}));
}

TEST(YannakakisTest, MatchesNaiveOnPathQuery) {
  const auto q = MustParseQuery(G(), "Q(x, u) :- E(x,y), E(y,z), E(z,u)");
  Rng rng(5);
  const Database db = RandomDigraphDatabase(12, 0.25, &rng);
  EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateYannakakis(q, db));
}

TEST(YannakakisTest, BooleanPath) {
  const auto q = MustParseQuery(G(), "Q() :- E(x,y), E(y,z)");
  EXPECT_TRUE(EvaluateYannakakisBoolean(q, DirectedPath(2).ToDatabase()));
  EXPECT_FALSE(EvaluateYannakakisBoolean(q, DirectedPath(1).ToDatabase()));
}

TEST(YannakakisTest, StarQueryProjection) {
  const auto q =
      MustParseQuery(G(), "Q(c) :- E(c, a), E(c, b), E(c, d)");
  Digraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(4, 0);
  const AnswerSet ans = EvaluateYannakakis(q, g.ToDatabase());
  // c = 0 via its three out-edges, and c = 4 with a = b = d = 0 (the
  // variables a, b, d may coincide).
  EXPECT_EQ(ans.size(), 2u);
  EXPECT_TRUE(ans.Contains({0}));
  EXPECT_TRUE(ans.Contains({4}));
}

TEST(YannakakisTest, CartesianComponents) {
  const auto q = MustParseQuery(G(), "Q(x, u) :- E(x, y), E(u, v)");
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const AnswerSet ans = EvaluateYannakakis(q, g.ToDatabase());
  EXPECT_EQ(ans.size(), 4u);  // {0,2} x {0,2}
  EXPECT_TRUE(ans.Contains({0, 2}));
  EXPECT_TRUE(ans.Contains({2, 0}));
}

TEST(YannakakisTest, SameScopeAtomsIntersect) {
  // E(x,y) and E(y,x) share the scope {x,y}: answers need both directions.
  const auto q = MustParseQuery(G(), "Q(x, y) :- E(x, y), E(y, x)");
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  const AnswerSet ans = EvaluateYannakakis(q, g.ToDatabase());
  EXPECT_EQ(ans.size(), 2u);
  EXPECT_TRUE(ans.Contains({0, 1}));
  EXPECT_TRUE(ans.Contains({1, 0}));
}

TEST(YannakakisTest, RepeatedVariableAtom) {
  const auto q = MustParseQuery(G(), "Q(x) :- E(x, x), E(x, y)");
  Digraph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  const AnswerSet ans = EvaluateYannakakis(q, g.ToDatabase());
  EXPECT_EQ(ans.size(), 1u);
  EXPECT_TRUE(ans.Contains({0}));
}

TEST(YannakakisTest, TernaryAcyclicQuery) {
  const auto vocab = Vocabulary::Single("R", 3);
  const auto q = MustParseQuery(
      vocab, "Q(a, d) :- R(a, b, c), R(c, d, e)");
  Rng rng(11);
  const Database db = RandomDatabase(vocab, 8, 40, &rng);
  EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateYannakakis(q, db));
}

TEST(YannakakisTest, AgreesWithNaiveOnRandomAcyclic) {
  Rng rng(2025);
  int tested = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ConjunctiveQuery q = RandomGraphCQ(
        2 + static_cast<int>(rng.UniformInt(4)),
        2 + static_cast<int>(rng.UniformInt(4)), &rng,
        /*num_free=*/1 + static_cast<int>(rng.UniformInt(2)));
    if (!IsAcyclicQuery(q)) continue;
    const Database db = RandomDigraphDatabase(9, 0.3, &rng, true);
    EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateYannakakis(q, db))
        << PrintQuery(q);
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST(TreewidthEvalTest, TriangleQuery) {
  const auto q = MustParseQuery(G(), "Q(x) :- E(x,y), E(y,z), E(z,x)");
  Rng rng(8);
  const Database db = RandomDigraphDatabase(10, 0.3, &rng);
  EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateTreewidth(q, db));
}

TEST(TreewidthEvalTest, AgreesWithNaiveOnRandomQueries) {
  Rng rng(909);
  for (int trial = 0; trial < 25; ++trial) {
    const ConjunctiveQuery q = RandomGraphCQ(
        2 + static_cast<int>(rng.UniformInt(4)),
        2 + static_cast<int>(rng.UniformInt(5)), &rng,
        /*num_free=*/static_cast<int>(rng.UniformInt(3)) %
            2);  // 0 or 1 free vars
    const Database db = RandomDigraphDatabase(8, 0.35, &rng, true);
    EXPECT_TRUE(EvaluateNaive(q, db) == EvaluateTreewidth(q, db))
        << PrintQuery(q);
  }
}

TEST(TreewidthEvalTest, EmptyDatabase) {
  const auto q = MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)");
  const Database empty(G(), 5);
  EXPECT_FALSE(EvaluateTreewidth(q, empty).AsBoolean());
}

// Regression: a join-tree node with several `needed` children and free
// variables spread across the sibling subtrees. The bottom-up DP's
// per-child keep-list used to request sibling free variables before the
// sibling join had produced them (CHECK failure in PositionsOf). The
// 3-atom star with every variable free is the smallest such shape.
TEST(YannakakisTest, MultiChildJoinTreeWithAllVariablesFree) {
  Rng rng(99);
  const Database db = RandomDigraphDatabase(9, 0.35, &rng, /*allow_loops=*/true);
  ConjunctiveQuery q(G());
  const int x = q.AddVariable("x");
  std::vector<int> free_vars = {x};
  for (int i = 0; i < 3; ++i) {
    const int y = q.AddVariable();
    q.AddAtom(0, {x, y});
    free_vars.push_back(y);
  }
  q.SetFreeVariables(free_vars);
  ASSERT_TRUE(IsAcyclicQuery(q));
  const AnswerSet reference = EvaluateNaive(q, db);
  EXPECT_TRUE(EvaluateYannakakis(q, db) == reference);
  const IndexedDatabase idb(db);
  EXPECT_TRUE(EvaluateYannakakis(q, idb) == reference);
}

TEST(VarTableTest, AtomMatchesRepeatedVars) {
  Digraph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  const Atom loop{0, {5, 5}};  // E(v5, v5)
  const VarTable t = AtomMatches(loop, g.ToDatabase());
  ASSERT_EQ(t.vars, (std::vector<int>{5}));
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows.RowTuple(0), (Tuple{0}));
}

TEST(VarTableTest, SemijoinFilters) {
  VarTable a;
  a.vars = {0, 1};
  a.rows = ColumnStore::FromRows(2, {{1, 2}, {3, 4}});
  VarTable b;
  b.vars = {1, 2};
  b.rows = ColumnStore::FromRows(2, {{2, 9}});
  EXPECT_TRUE(SemijoinInPlace(&a, b));
  ASSERT_EQ(a.rows.size(), 1u);
  EXPECT_EQ(a.rows.RowTuple(0), (Tuple{1, 2}));
}

TEST(VarTableTest, JoinProjectSharedVars) {
  VarTable a;
  a.vars = {0, 1};
  a.rows = ColumnStore::FromRows(2, {{1, 2}, {5, 6}});
  VarTable b;
  b.vars = {1, 2};
  b.rows = ColumnStore::FromRows(2, {{2, 7}, {2, 8}});
  const VarTable j = JoinProject(a, b, {0, 2});
  EXPECT_EQ(j.rows.size(), 2u);
}

}  // namespace
}  // namespace cqa
