// Tests for the relation-index subsystem (data/index): bound-mask helpers,
// RelationIndex build/probe edge cases, IndexedDatabase caching/budget/stats,
// and — the property that justifies the whole layer — agreement of every
// indexed evaluator with its scan-based counterpart on seeded random
// workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "base/rng.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/eval_context.h"
#include "eval/naive.h"
#include "eval/treewidth_eval.h"
#include "eval/yannakakis.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

VocabularyPtr G() { return Vocabulary::Graph(); }

std::vector<int> ToVec(std::span<const int> ids) {
  return std::vector<int>(ids.begin(), ids.end());
}

TEST(BoundMaskTest, RoundTrip) {
  EXPECT_EQ(MaskOfPositions({}), 0u);
  EXPECT_EQ(MaskOfPositions({0}), 1u);
  EXPECT_EQ(MaskOfPositions({1}), 2u);
  EXPECT_EQ(MaskOfPositions({0, 2}), 5u);
  EXPECT_EQ(PositionsOfMask(0, 3), std::vector<int>{});
  EXPECT_EQ(PositionsOfMask(5, 3), (std::vector<int>{0, 2}));
  EXPECT_EQ(PositionsOfMask(MaskOfPositions({1, 3}), 4),
            (std::vector<int>{1, 3}));
}

TEST(RelationIndexTest, EmptyRelation) {
  const Database db(G(), 4);  // no facts
  const RelationIndex index(db, 0, MaskOfPositions({0}));
  EXPECT_EQ(index.num_keys(), 0u);
  EXPECT_EQ(index.num_facts(), 0u);
  EXPECT_TRUE(index.Probe(Tuple{0}).empty());
}

TEST(RelationIndexTest, SingleBoundPosition) {
  Database db(G(), 4);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {0, 2});
  db.AddFact(0, {1, 2});
  const RelationIndex index(db, 0, MaskOfPositions({0}));
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_EQ(ToVec(index.Probe(Tuple{0})),
            (std::vector<int>{0, 1}));  // insertion order
  EXPECT_EQ(ToVec(index.Probe(Tuple{1})), (std::vector<int>{2}));
  EXPECT_TRUE(index.Probe(Tuple{2}).empty());
  EXPECT_TRUE(index.Probe(Tuple{3}).empty());
}

TEST(RelationIndexTest, AllBound) {
  Database db(G(), 3);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {1, 2});
  const RelationIndex index(db, 0, MaskOfPositions({0, 1}));
  // Facts are deduplicated, so every bucket is a singleton.
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_EQ(ToVec(index.Probe(Tuple{1, 2})), std::vector<int>{1});
  EXPECT_TRUE(index.Probe(Tuple{2, 1}).empty());
}

TEST(RelationIndexTest, NoneBound) {
  Database db(G(), 3);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {1, 2});
  const RelationIndex index(db, 0, /*mask=*/0);
  // Mask 0 is legal: one bucket, keyed by the empty tuple, holding all facts.
  EXPECT_EQ(index.num_keys(), 1u);
  EXPECT_EQ(ToVec(index.Probe(Tuple{})), (std::vector<int>{0, 1}));
}

TEST(RelationIndexTest, DuplicateHeavyRelation) {
  // Many facts share one key: a single fat bucket, in insertion order.
  Database db(G(), 64);
  for (int i = 1; i < 64; ++i) db.AddFact(0, {0, i});
  db.AddFact(0, {1, 2});
  const RelationIndex index(db, 0, MaskOfPositions({0}));
  EXPECT_EQ(index.num_keys(), 2u);
  const std::span<const int> bucket = index.Probe(Tuple{0});
  ASSERT_EQ(bucket.size(), 63u);
  EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
  EXPECT_GT(index.ApproxBytes(), 63 * sizeof(int));
}

TEST(IndexedDatabaseTest, BuildsOnceThenReuses) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(12, 0.3, &rng);
  const IndexedDatabase idb(db);
  bool built = false;
  const RelationIndex* first = idb.Index(0, MaskOfPositions({0}), &built);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(built);
  const RelationIndex* second = idb.Index(0, MaskOfPositions({0}), &built);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(built);
  // A different mask is a different index.
  const RelationIndex* other = idb.Index(0, MaskOfPositions({1}), &built);
  EXPECT_NE(other, first);
  EXPECT_TRUE(built);
  const IndexCacheStats stats = idb.stats();
  EXPECT_EQ(stats.index_builds, 2);
  EXPECT_EQ(stats.index_reuses, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(IndexedDatabaseTest, DisabledReturnsNull) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(8, 0.3, &rng);
  IndexOptions opts;
  opts.enabled = false;
  const IndexedDatabase idb(db, opts);
  EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  EXPECT_EQ(idb.ProjectedRows(0, {0, 1}, 2), nullptr);
  EXPECT_EQ(idb.ColumnValues(0, 0), nullptr);
}

TEST(IndexedDatabaseTest, BudgetExhaustionFallsBackToNull) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(20, 0.4, &rng);
  IndexOptions opts;
  opts.max_bytes = 1;  // nothing fits
  const IndexedDatabase idb(db, opts);
  EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  EXPECT_GT(idb.stats().budget_rejections, 0);
  EXPECT_EQ(idb.stats().bytes, 0);
}

TEST(IndexedDatabaseTest, ProjectedRowsPatterns) {
  Database db(G(), 4);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {1, 1});
  db.AddFact(0, {2, 2});
  db.AddFact(0, {1, 0});
  const IndexedDatabase idb(db);
  // Identity pattern: all facts.
  const ColumnStore* rows = idb.ProjectedRows(0, {0, 1}, 2);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 4u);
  // Swapped pattern: columns transposed.
  rows = idb.ProjectedRows(0, {1, 0}, 2);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->RowTuple(0), (Tuple{1, 0}));
  // Diagonal pattern (the match table of E(x, x)): loops only.
  rows = idb.ProjectedRows(0, {0, 0}, 1);
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(rows->RowTuple(0), Tuple{1});
  EXPECT_EQ(rows->RowTuple(1), Tuple{2});
  // Second request is a cache hit.
  bool built = true;
  idb.ProjectedRows(0, {0, 0}, 1, &built);
  EXPECT_FALSE(built);
  EXPECT_GT(idb.stats().projection_reuses, 0);
}

TEST(IndexedDatabaseTest, ColumnValuesSortedDistinct) {
  Database db(G(), 5);
  db.AddFact(0, {3, 0});
  db.AddFact(0, {1, 0});
  db.AddFact(0, {3, 2});
  const IndexedDatabase idb(db);
  const std::vector<Element>* values = idb.ColumnValues(0, 0);
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(*values, (std::vector<Element>{1, 3}));
  values = idb.ColumnValues(0, 1);
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(*values, (std::vector<Element>{0, 2}));
}

// ---------------------------------------------------------------------------
// Indexed-vs-scan agreement properties. The indexed paths must be invisible
// except for speed: same answer sets on every (query, database) pair.

TEST(IndexedEvalAgreement, NaiveOnRandomWorkloads) {
  Rng rng(2025);
  for (int round = 0; round < 16; ++round) {
    const Database db =
        RandomDigraphDatabase(8 + round % 5, 0.35, &rng, /*allow_loops=*/true);
    const IndexedDatabase idb(db);
    const ConjunctiveQuery q = RandomGraphCQ(
        2 + round % 4, 3 + round % 3, &rng, /*num_free=*/round % 3,
        /*allow_loops=*/round % 2 == 1);
    EvalStats stats;
    const AnswerSet indexed = EvaluateNaive(q, idb, &stats);
    EXPECT_TRUE(indexed == EvaluateNaive(q, db))
        << "indexed naive disagrees on " << PrintQuery(q);
    EXPECT_EQ(EvaluateNaiveBoolean(q, idb), EvaluateNaiveBoolean(q, db));
    if (q.atoms().size() > 1) EXPECT_GT(stats.index_probes, 0);
  }
}

TEST(IndexedEvalAgreement, YannakakisOnAcyclicWorkloads) {
  Rng rng(777);
  int tested = 0;
  for (int round = 0; round < 40 && tested < 12; ++round) {
    const Database db =
        RandomDigraphDatabase(9 + round % 4, 0.3, &rng, /*allow_loops=*/true);
    const ConjunctiveQuery q =
        RandomGraphCQ(2 + round % 4, 3 + round % 3, &rng, round % 3);
    if (!IsAcyclicQuery(q)) continue;
    ++tested;
    const IndexedDatabase idb(db);
    EvalStats stats;
    EXPECT_TRUE(EvaluateYannakakis(q, idb, &stats) ==
                EvaluateYannakakis(q, db))
        << "indexed yannakakis disagrees on " << PrintQuery(q);
  }
  EXPECT_GE(tested, 12);
}

TEST(IndexedEvalAgreement, TreewidthOnCyclicWorkloads) {
  Rng rng(31338);
  for (int round = 0; round < 10; ++round) {
    const Database db = RandomCycleChordDatabase(9 + round % 3, 6, &rng);
    const IndexedDatabase idb(db);
    const ConjunctiveQuery q =
        RandomCyclicGraphCQ(3 + round % 2, /*extra_atoms=*/2, &rng);
    EvalStats stats;
    EXPECT_TRUE(EvaluateTreewidth(q, idb, &stats) == EvaluateTreewidth(q, db))
        << "indexed treewidth disagrees on " << PrintQuery(q);
  }
}

TEST(IndexedEvalAgreement, TreewidthRewriteFinishesUnderNodeBudget) {
  // A width-3 rewrite of an oriented 5-clique. With one bag per eliminated
  // vertex and each atom checked in one bag only, atom-free bags were
  // filled from whole-column candidate lists, and the run spent a
  // million-node budget before emitting any of the 24 answers. With maximal
  // bags that each check every atom they hold, it finishes in ~12k nodes.
  const ConjunctiveQuery q = MustParseQuery(
      G(),
      "Q(x0, x1) :- E(x3, x0), E(x4, x0), E(x2, x4), E(x4, x1), E(x3, x1), "
      "E(x3, x4), E(x0, x1), E(x2, x0), E(x3, x2)");
  Rng rng(7);
  const Database db =
      RandomDigraphDatabase(200, 0.02, &rng, /*allow_loops=*/true);
  const IndexedDatabase idb(db);
  EvalLimits limits;
  limits.max_nodes = 1000000;
  const EvalContext ctx(limits);
  const AnswerSet got = EvaluateTreewidth(q, idb, /*stats=*/nullptr, &ctx);
  EXPECT_EQ(ctx.status(), ResponseStatus::kOk);
  const AnswerSet want = EvaluateNaive(q, idb);
  EXPECT_EQ(want.size(), 24u);
  EXPECT_TRUE(got == want);
}

TEST(IndexedEvalAgreement, WorkedExampleQueries) {
  for (const uint64_t seed : {3u, 19u}) {
    Rng rng(seed);
    const Database db = RandomDigraphDatabase(10, 0.3, &rng);
    const IndexedDatabase idb(db);
    for (const ConjunctiveQuery& q :
         {IntroQ1(), IntroQ2(), IntroQ2Approx(), IntroQ3()}) {
      EXPECT_TRUE(EvaluateNaive(q, idb) == EvaluateNaive(q, db));
      EXPECT_TRUE(EvaluateTreewidth(q, idb) == EvaluateTreewidth(q, db));
      if (IsAcyclicQuery(q)) {
        EXPECT_TRUE(EvaluateYannakakis(q, idb) == EvaluateYannakakis(q, db));
      }
    }
  }
}

TEST(IndexedEvalAgreement, TinyBudgetStillCorrect) {
  // With the cache refusing everything, the indexed entry points must fall
  // back to scanning and still agree.
  Rng rng(42);
  const Database db = RandomDigraphDatabase(10, 0.35, &rng);
  IndexOptions opts;
  opts.max_bytes = 1;
  const IndexedDatabase idb(db, opts);
  for (const ConjunctiveQuery& q : {IntroQ1(), IntroQ2(), IntroQ2Approx()}) {
    EXPECT_TRUE(EvaluateNaive(q, idb) == EvaluateNaive(q, db));
    EXPECT_TRUE(EvaluateTreewidth(q, idb) == EvaluateTreewidth(q, db));
    if (IsAcyclicQuery(q)) {
      EXPECT_TRUE(EvaluateYannakakis(q, idb) == EvaluateYannakakis(q, db));
    }
  }
  EXPECT_GT(idb.stats().budget_rejections, 0);
}

TEST(IndexedEvalAgreement, WideRelationFallsBackToScan) {
  // Relations wider than kMaxIndexableArity cannot be bound-mask indexed;
  // the indexed entry points must scan instead of aborting.
  const int arity = kMaxIndexableArity + 1;
  const VocabularyPtr vocab = Vocabulary::Single("R", arity);
  Database db(vocab, 2);
  Tuple all_zero(arity, 0);
  Tuple mixed(arity, 1);
  mixed[0] = 0;
  db.AddFact(0, all_zero);
  db.AddFact(0, mixed);
  ConjunctiveQuery q(vocab);
  const int first = q.AddVariables(arity);
  std::vector<int> forward(arity), backward(arity);
  for (int i = 0; i < arity; ++i) {
    forward[i] = first + i;
    backward[i] = first + arity - 1 - i;
  }
  q.AddAtom(0, forward);
  q.AddAtom(0, backward);  // second atom: every position pre-bound
  q.SetFreeVariables({first});
  const IndexedDatabase idb(db);
  EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  EXPECT_TRUE(EvaluateNaive(q, idb) == EvaluateNaive(q, db));
  EXPECT_TRUE(EvaluateYannakakis(q, idb) == EvaluateYannakakis(q, db));
}

TEST(IndexedDatabaseTest, BudgetRejectionIsCachedNotRebuilt) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(20, 0.4, &rng);
  IndexOptions opts;
  opts.max_bytes = 1;
  const IndexedDatabase idb(db, opts);
  EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  const IndexCacheStats stats = idb.stats();
  EXPECT_EQ(stats.index_builds, 0);
  EXPECT_EQ(stats.budget_rejections, 2);
}

TEST(IndexedEvalStats, ProbesAndBuildsAreCounted) {
  Rng rng(11);
  const Database db = RandomDigraphDatabase(12, 0.35, &rng);
  const IndexedDatabase idb(db);
  EvalStats first;
  EvaluateNaive(IntroQ2(), idb, &first);
  EXPECT_GT(first.index_probes, 0);
  EXPECT_GT(first.index_builds, 0);
  EXPECT_GE(first.index_probes, first.index_hits);
  // Same query again: the indexes are already cached.
  EvalStats second;
  EvaluateNaive(IntroQ2(), idb, &second);
  EXPECT_EQ(second.index_builds, 0);
  EXPECT_EQ(second.index_probes, first.index_probes);
}

}  // namespace
}  // namespace cqa
