// Columnar storage & probe core: unit coverage of ColumnStore / RowSet /
// KeyedRowGroups / RelationIndex edge cases (empty relation, all-bound,
// none-bound, duplicate-heavy, arity 0/1/32), plus engine-agreement
// property tests pinning that the columnar probe paths return byte-identical
// AnswerSets across engines x modes — against an independent homomorphism
// oracle, too — including mid-evaluation cancellation (partial results stay
// a subset of Q(D)).

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "cq/tableau.h"
#include "data/column_store.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/engine.h"
#include "eval/eval_context.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"
#include "graph/standard.h"
#include "hom/homomorphism.h"

namespace cqa {
namespace {

VocabularyPtr G() { return Vocabulary::Graph(); }

std::vector<int> ToVec(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

// ---------------------------------------------------------------- ColumnStore

TEST(ColumnStoreTest, AppendReadRoundTrip) {
  ColumnStore s(3);
  s.AppendRow(Tuple{1, 2, 3});
  s.AppendRow(Tuple{4, 5, 6});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(0, 1), 2);
  EXPECT_EQ(s.at(1, 2), 6);
  EXPECT_EQ(s.RowTuple(1), (Tuple{4, 5, 6}));
  EXPECT_EQ(s.ToRows(), (std::vector<Tuple>{{1, 2, 3}, {4, 5, 6}}));
}

TEST(ColumnStoreTest, ArityZero) {
  // Width-0 stores still count rows (the nullary seed of the join DP).
  ColumnStore s(0);
  EXPECT_TRUE(s.empty());
  s.AppendRow(Tuple{});
  s.AppendRow(Tuple{});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.RowTuple(1), Tuple{});
}

TEST(ColumnStoreTest, ArityOneAndGather) {
  ColumnStore s = ColumnStore::FromRows(1, {{7}, {8}, {9}});
  const ColumnStore g = s.Gather(std::vector<uint32_t>{2, 0});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.RowTuple(0), Tuple{9});
  EXPECT_EQ(g.RowTuple(1), Tuple{7});
}

TEST(ColumnStoreTest, Arity32) {
  const int w = 32;  // kMaxIndexableArity: widest indexable row shape
  Tuple row(w);
  for (int i = 0; i < w; ++i) row[i] = i * i;
  ColumnStore s(w);
  s.AppendRow(row);
  ASSERT_EQ(s.width(), w);
  EXPECT_EQ(s.RowTuple(0), row);
  EXPECT_EQ(s.at(0, 31), 31 * 31);
}

// --------------------------------------------------------------------- RowSet

TEST(RowSetTest, DeduplicatesAcrossRehashes) {
  RowSet set(2);
  int inserted = 0;
  // Duplicate-heavy: 1000 inserts, 100 distinct rows, many table growths.
  for (int i = 0; i < 1000; ++i) {
    inserted += set.Insert(Tuple{i % 10, (i / 10) % 10}) ? 1 : 0;
  }
  EXPECT_EQ(inserted, 100);
  const ColumnStore rows = std::move(set).Take();
  EXPECT_EQ(rows.size(), 100u);
}

TEST(RowSetTest, WidthZeroRows) {
  RowSet set(0);
  EXPECT_TRUE(set.Insert(Tuple{}));
  EXPECT_FALSE(set.Insert(Tuple{}));  // the single empty row, once
}

TEST(RowSetTest, SequentialKeysStaySpread) {
  // Regression: boost-style combined hashes of small sequential ints have
  // structured low bits; without a final avalanche mix the power-of-two
  // masked table degrades into giant linear-probe clusters (this was a
  // ~100x slowdown on an all-pairs key set). The dedup result is the
  // correctness half of that contract; see HashFinalize in base/hash.h.
  const int n = 110;
  RowSet set(2);
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      ASSERT_TRUE(set.Insert(Tuple{x, y}));
    }
  }
  EXPECT_EQ(std::move(set).Take().size(), static_cast<size_t>(n) * n);
}

// -------------------------------------------------------------- KeyedRowGroups

TEST(KeyedRowGroupsTest, EmptyInput) {
  const KeyedRowGroups g({}, 2, 0);
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_TRUE(g.Probe(Tuple{1, 2}).empty());
}

TEST(KeyedRowGroupsTest, WidthZeroKeyGroupsEverything) {
  // The none-bound case: every row carries the empty key, one group.
  const KeyedRowGroups g({}, 0, 4);
  ASSERT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(ToVec(g.Probe(Tuple{})), (std::vector<int>{0, 1, 2, 3}));
}

TEST(KeyedRowGroupsTest, DuplicateHeavyKeepsInsertionOrder) {
  // keys: 5,5,7,5,7 -> group(5) = {0,1,3}, group(7) = {2,4}, ids ascending
  // within each group (the old hash-bucket insertion-order contract).
  const KeyedRowGroups g({5, 5, 7, 5, 7}, 1, 5);
  EXPECT_EQ(g.num_groups(), 2u);
  EXPECT_EQ(ToVec(g.Probe(Tuple{5})), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(ToVec(g.Probe(Tuple{7})), (std::vector<int>{2, 4}));
  EXPECT_TRUE(g.Probe(Tuple{6}).empty());
}

// -------------------------------------------------------------- RelationIndex

TEST(ColumnarIndexTest, EmptyRelationProbes) {
  const Database db(G(), 4);  // no facts at all
  const RelationIndex idx(db, 0, MaskOfPositions({0}));
  EXPECT_EQ(idx.num_keys(), 0u);
  EXPECT_TRUE(idx.Probe(Tuple{3}).empty());
}

TEST(ColumnarIndexTest, AllBoundAndNoneBoundMasks) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  const Database db = g.ToDatabase();
  const IndexedDatabase idb(db);

  // All-bound: the key is the whole fact; probing is membership.
  const RelationIndex* full = idb.Index(0, MaskOfPositions({0, 1}));
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->Probe(Tuple{0, 2}).size(), 1u);
  EXPECT_TRUE(full->Probe(Tuple{2, 0}).empty());

  // None-bound (mask 0): one group holding every fact id.
  const RelationIndex* none = idb.Index(0, 0);
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->num_keys(), 1u);
  EXPECT_EQ(ToVec(none->Probe(Tuple{})), (std::vector<int>{0, 1, 2}));
}

TEST(ColumnarIndexTest, Arity32IsIndexableAndWiderIsNot) {
  {
    const auto vocab = Vocabulary::Single("R", 32);
    Database db(vocab, 2);
    db.AddFact(0, Tuple(32, 1));
    const IndexedDatabase idb(db);
    const RelationIndex* idx = idb.Index(0, MaskOfPositions({31}));
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->Probe(Tuple{1}).size(), 1u);
  }
  {
    const auto vocab = Vocabulary::Single("R", 33);
    Database db(vocab, 2);
    db.AddFact(0, Tuple(33, 1));
    const IndexedDatabase idb(db);
    EXPECT_EQ(idb.Index(0, MaskOfPositions({0})), nullptr);
  }
}

// --------------------------------------------------- engine agreement (prop.)

// Every engine x {scan, indexed} must agree with the scan-path naive
// reference on random graph CQs (Yannakakis only where it applies).
TEST(ColumnarAgreementTest, EnginesAgreeOnRandomQueries) {
  Rng rng(424242);
  const auto naive = MakeEngine(EngineKind::kNaive);
  const auto yann = MakeEngine(EngineKind::kYannakakis);
  const auto tw = MakeEngine(EngineKind::kTreewidth);
  int yann_tested = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const ConjunctiveQuery q = RandomGraphCQ(
        2 + static_cast<int>(rng.UniformInt(4)),
        2 + static_cast<int>(rng.UniformInt(4)), &rng,
        /*num_free=*/1 + static_cast<int>(rng.UniformInt(2)));
    const Database db = RandomDigraphDatabase(9, 0.3, &rng, true);
    const IndexedDatabase idb(db);
    const AnswerSet ref = naive->Evaluate(q, db);
    EXPECT_TRUE(naive->Evaluate(q, idb) == ref) << PrintQuery(q);
    EXPECT_TRUE(tw->Evaluate(q, db) == ref) << PrintQuery(q);
    EXPECT_TRUE(tw->Evaluate(q, idb) == ref) << PrintQuery(q);
    if (IsAcyclicQuery(q)) {
      EXPECT_TRUE(yann->Evaluate(q, db) == ref) << PrintQuery(q);
      EXPECT_TRUE(yann->Evaluate(q, idb) == ref) << PrintQuery(q);
      ++yann_tested;
    }
  }
  EXPECT_GT(yann_tested, 0);
}

// The independent oracle: Q(D) as the homomorphisms from Q's tableau into D
// (hom/, which shares no code with the probe core), projected onto the
// distinguished tuple.
AnswerSet HomomorphismOracle(const ConjunctiveQuery& q, const Database& db) {
  const PointedDatabase tableau = ToTableau(q);
  AnswerSet answers(static_cast<int>(tableau.distinguished.size()));
  ForEachHomomorphism(tableau.db, db, {}, [&](const std::vector<Element>& h) {
    Tuple t;
    t.reserve(tableau.distinguished.size());
    for (const Element v : tableau.distinguished) t.push_back(h[v]);
    answers.Insert(t);
    return true;
  });
  return answers;
}

// Every engine x {scan, indexed} against the oracle on probe-heavy shapes:
// the triangle, the 4-edge path and a cyclic 3+2 query over a 130-node
// graph; the triangle and a cyclic 3+1 query over a 110-node graph.
TEST(ColumnarAgreementTest, EnginesMatchHomomorphismOracle) {
  Rng rng(515151);
  const Database db = RandomDigraphDatabase(130, 8.0 / 130, &rng);
  const Database db_tw = RandomDigraphDatabase(110, 8.0 / 110, &rng);
  ConjunctiveQuery path4(G());
  const int first = path4.AddVariables(5);
  for (int i = 0; i < 4; ++i) path4.AddAtom(0, {first + i, first + i + 1});
  path4.SetFreeVariables({first, first + 4});
  const ConjunctiveQuery cyclic32 = RandomCyclicGraphCQ(3, 2, &rng);
  const ConjunctiveQuery cyclic31 = RandomCyclicGraphCQ(3, 1, &rng);
  const std::vector<std::pair<ConjunctiveQuery, const Database*>> cases = {
      {TriangleOutputCQ(), &db}, {path4, &db},
      {cyclic32, &db},           {TriangleOutputCQ(), &db_tw},
      {cyclic31, &db_tw}};

  for (const auto& [q, d] : cases) {
    const AnswerSet oracle = HomomorphismOracle(q, *d);
    EXPECT_FALSE(oracle.empty()) << PrintQuery(q);
    const IndexedDatabase idb(*d);
    for (const EngineKind kind : {EngineKind::kNaive, EngineKind::kYannakakis,
                                  EngineKind::kTreewidth}) {
      const auto engine = MakeEngine(kind);
      if (!engine->Supports(q)) continue;
      EXPECT_TRUE(engine->Evaluate(q, *d) == oracle)
          << engine->name() << " scan " << PrintQuery(q);
      EXPECT_TRUE(engine->Evaluate(q, idb) == oracle)
          << engine->name() << " indexed " << PrintQuery(q);
    }
  }
}

// All four answer modes through the service on a tractable star query:
// byte-identical certain answers everywhere, collapsed sandwiches.
TEST(ColumnarAgreementTest, ModesAgreeThroughService) {
  Rng rng(77);
  const Database db = RandomDigraphDatabase(40, 0.12, &rng, true);
  const ConjunctiveQuery q = StarCQ(2);
  const AnswerSet exact = EvaluateNaive(q, db);

  EvalOptions opts;
  opts.num_threads = 1;
  const QueryService service(opts);
  for (const AnswerMode mode :
       {AnswerMode::kExact, AnswerMode::kUnderApproximate,
        AnswerMode::kOverApproximate, AnswerMode::kBounds}) {
    const EvalResponse r = service.Evaluate({q, &db, mode});
    EXPECT_EQ(r.status, ResponseStatus::kOk);
    EXPECT_TRUE(r.answers == exact) << "mode=" << AnswerModeName(mode);
    if (mode == AnswerMode::kBounds) {
      ASSERT_TRUE(r.bounds.has_value());
      EXPECT_TRUE(r.bounds->tight());
    }
  }
}

// Mid-evaluation cancellation through the probe core: a node budget trips
// partway, the engine reports kTruncated, and whatever was materialized is
// a sound subset of Q(D) — for all three engines, scan and indexed.
TEST(ColumnarAgreementTest, CancellationKeepsPartialAnswersSound) {
  Rng rng(99);
  const Database db = RandomDigraphDatabase(30, 0.2, &rng, true);
  const ConjunctiveQuery q = TriangleOutputCQ();
  const AnswerSet full = EvaluateNaive(q, db);
  ASSERT_GT(full.size(), 0u);

  for (const EngineKind kind :
       {EngineKind::kNaive, EngineKind::kYannakakis, EngineKind::kTreewidth}) {
    const auto engine = MakeEngine(kind);
    if (!engine->Supports(q)) continue;  // Yannakakis: triangle is cyclic
    for (const bool indexed : {false, true}) {
      EvalLimits limits;
      limits.max_nodes = 40;  // trips mid-search
      const EvalContext ctx(limits);
      const IndexedDatabase idb(db);
      const AnswerSet partial = indexed ? engine->Evaluate(q, idb, nullptr, &ctx)
                                        : engine->Evaluate(q, db, nullptr, &ctx);
      EXPECT_EQ(ctx.status(), ResponseStatus::kTruncated)
          << engine->name() << " indexed=" << indexed;
      EXPECT_TRUE(partial.IsSubsetOf(full))
          << engine->name() << " indexed=" << indexed;
      EXPECT_LT(partial.size(), full.size())
          << engine->name() << " indexed=" << indexed;
    }
  }
}

// The same, via the service's cancel flag raised before evaluation starts:
// kCancelled with an empty-but-sound result.
TEST(ColumnarAgreementTest, PreRaisedCancelFlag) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(40, 0.15, &rng, true);
  const ConjunctiveQuery q = StarCQ(2);
  const AnswerSet exact = EvaluateNaive(q, db);
  EvalOptions opts;
  opts.num_threads = 1;
  const QueryService service(opts);
  EvalRequest req{q, &db};
  req.cancel = MakeCancelFlag();
  req.cancel->store(true);
  const EvalResponse r = service.Evaluate(req);
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(r.answers.IsSubsetOf(exact));
}

}  // namespace
}  // namespace cqa
