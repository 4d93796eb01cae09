// Incremental maintenance: the delta paths at every layer, proven
// differentially against from-scratch evaluation.
//
//  - Data layer: KeyedRowGroups::AppendRow, RelationIndex::Append and
//    IndexedDatabase::CatchUp must yield structures indistinguishable from
//    a bulk rebuild over the mutated database.
//  - Eval layer: DeltaEvaluateQuery must return exactly the *new* answers
//    (disjoint from the existing set, union equals the fresh evaluation).
//  - Serving layer: a mutation-soak property suite — seeded random
//    interleavings of inserts and queries, across all four AnswerModes —
//    where the maintained subscription state must stay byte-identical to
//    from-scratch evaluation at every step, and the under/over sides must
//    grow monotonically.
//  - Edge cases: nullary facts, duplicate inserts, inserts into a
//    previously empty relation, and cancelled ticks committing nothing —
//    an exact plan's delta tick, and an approximate kBounds plan's
//    baseline and delta ticks.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "data/column_store.h"
#include "data/database.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/cache.h"
#include "eval/delta_eval.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

Database GraphDb(int n, const std::vector<std::pair<int, int>>& edges) {
  Database db(Vocabulary::Graph(), n);
  for (const auto& [u, v] : edges) db.AddFact(0, {u, v});
  return db;
}

// Q(x0) :- E(x0, x1), ..., E(x{len-1}, xlen).
ConjunctiveQuery PathQuery(int len) {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int first = q.AddVariables(len + 1);
  for (int i = 0; i < len; ++i) q.AddAtom(0, {first + i, first + i + 1});
  q.SetFreeVariables({first});
  return q;
}

std::vector<int> SpanToVector(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

Tuple RandomEdge(int n, Rng* rng) {
  return Tuple{static_cast<Element>(rng->UniformInt(n)),
               static_cast<Element>(rng->UniformInt(n))};
}

// ---------------------------------------------------------------------------
// Data layer
// ---------------------------------------------------------------------------

TEST(KeyedRowGroupsTest, AppendMatchesBulkBuild) {
  Rng rng(101);
  const int key_width = 2;
  const int total = 500;  // 8x8 key space: long groups, many relocations
  std::vector<Element> flat;
  std::vector<Tuple> keys;
  for (int i = 0; i < total; ++i) {
    const Tuple key{static_cast<Element>(rng.UniformInt(8)),
                    static_cast<Element>(rng.UniformInt(8))};
    keys.push_back(key);
    flat.insert(flat.end(), key.begin(), key.end());
  }

  const KeyedRowGroups bulk(flat, key_width, total);
  // Incremental twin: bulk-build the first half, append the second — the
  // mixed path the index catch-up exercises.
  const int half = total / 2;
  KeyedRowGroups incremental(
      std::vector<Element>(flat.begin(), flat.begin() + half * key_width),
      key_width, half);
  for (int i = half; i < total; ++i) incremental.AppendRow(keys[i], i);

  ASSERT_EQ(incremental.num_rows(), bulk.num_rows());
  EXPECT_EQ(incremental.num_groups(), bulk.num_groups());
  for (Element a = 0; a < 8; ++a) {
    for (Element b = 0; b < 8; ++b) {
      const Tuple key{a, b};
      EXPECT_EQ(SpanToVector(incremental.Probe(key)),
                SpanToVector(bulk.Probe(key)))
          << "key (" << a << "," << b << ")";
    }
  }
}

TEST(KeyedRowGroupsTest, NullaryKeyAppendsIntoTheOneGroup) {
  KeyedRowGroups groups(std::vector<Element>{}, 0, 0);
  EXPECT_TRUE(groups.Probe({}).empty());
  for (int i = 0; i < 10; ++i) groups.AppendRow({}, i * 3);
  EXPECT_EQ(groups.num_groups(), 1u);
  const std::vector<int> rows = SpanToVector(groups.Probe({}));
  ASSERT_EQ(rows.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rows[i], i * 3);
}

TEST(RelationIndexTest, AppendMatchesFreshBuild) {
  Database db = GraphDb(6, {{0, 1}, {1, 2}, {2, 3}});
  RelationIndex by_src(db, 0, MaskOfPositions({0}));
  RelationIndex by_dst(db, 0, MaskOfPositions({1}));

  ASSERT_TRUE(db.AddFact(0, {0, 2}));
  ASSERT_TRUE(db.AddFact(0, {3, 0}));
  ASSERT_TRUE(db.AddFact(0, {5, 5}));
  EXPECT_EQ(by_src.Append(db), 3u);
  EXPECT_EQ(by_dst.Append(db), 3u);
  EXPECT_EQ(by_src.Append(db), 0u);  // idempotent when nothing is pending
  EXPECT_EQ(by_src.num_facts(), db.facts(0).size());

  const RelationIndex fresh_src(db, 0, MaskOfPositions({0}));
  const RelationIndex fresh_dst(db, 0, MaskOfPositions({1}));
  for (Element v = 0; v < 6; ++v) {
    const Tuple key{v};
    EXPECT_EQ(SpanToVector(by_src.Probe(key)),
              SpanToVector(fresh_src.Probe(key)))
        << "src key " << v;
    EXPECT_EQ(SpanToVector(by_dst.Probe(key)),
              SpanToVector(fresh_dst.Probe(key)))
        << "dst key " << v;
  }
}

TEST(IndexedDatabaseTest, CatchUpMatchesFreshView) {
  Rng rng(424);
  Database db = RandomDigraphDatabase(20, 0.15, &rng);

  IndexedDatabase view(db);
  // Touch one structure of every kind so CatchUp has all three to maintain.
  ASSERT_NE(view.Index(0, MaskOfPositions({0})), nullptr);
  ASSERT_NE(view.ProjectedRows(0, {0, 1}, 2), nullptr);
  ASSERT_NE(view.ProjectedRows(0, {0, 0}, 1), nullptr);  // loops E(x, x)
  ASSERT_NE(view.ColumnValues(0, 0), nullptr);
  ASSERT_NE(view.ColumnValues(0, 1), nullptr);

  db.AddElements(2);  // elements grow too
  const int n = db.num_elements();
  int inserted = 0;
  for (int m = 0; m < 30; ++m) {
    if (db.AddFact(0, RandomEdge(n, &rng))) ++inserted;
  }
  ASSERT_TRUE(db.AddFact(0, {n - 1, n - 1}));  // a loop among the delta
  ++inserted;

  EXPECT_GT(view.CatchUp(), 0u);
  EXPECT_GE(view.stats().catchup_facts, inserted);

  const IndexedDatabase fresh(db);
  const RelationIndex* caught = view.Index(0, MaskOfPositions({0}));
  const RelationIndex* rebuilt = fresh.Index(0, MaskOfPositions({0}));
  ASSERT_NE(caught, nullptr);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(caught->num_facts(), db.facts(0).size());
  for (Element v = 0; v < n; ++v) {
    EXPECT_EQ(SpanToVector(caught->Probe(Tuple{v})),
              SpanToVector(rebuilt->Probe(Tuple{v})))
        << "key " << v;
  }
  EXPECT_EQ(view.ProjectedRows(0, {0, 1}, 2)->ToRows(),
            fresh.ProjectedRows(0, {0, 1}, 2)->ToRows());
  EXPECT_EQ(view.ProjectedRows(0, {0, 0}, 1)->ToRows(),
            fresh.ProjectedRows(0, {0, 0}, 1)->ToRows());
  EXPECT_EQ(*view.ColumnValues(0, 0), *fresh.ColumnValues(0, 0));
  EXPECT_EQ(*view.ColumnValues(0, 1), *fresh.ColumnValues(0, 1));
}

// ---------------------------------------------------------------------------
// Eval layer
// ---------------------------------------------------------------------------

TEST(DeltaEvalTest, DeltaIsExactlyTheNewAnswers) {
  Rng rng(7);
  for (int round = 0; round < 24; ++round) {
    Database db = RandomDigraphDatabase(25, 0.08, &rng);
    const ConjunctiveQuery q =
        round % 2 == 0 ? PathQuery(2) : TriangleOutputCQ();
    const AnswerSet before = EvaluateNaive(q, db);

    std::vector<DeltaFact> delta;
    while (delta.size() < 4) {
      const Tuple edge = RandomEdge(25, &rng);
      if (db.AddFact(0, edge)) delta.push_back(DeltaFact{0, edge});
    }

    // Every third round uses a view that refuses every structure, so the
    // probe core's scan fallback is covered too.
    IndexOptions options;
    if (round % 3 == 0) options.max_bytes = 0;
    const IndexedDatabase view(db, options);
    const AnswerSet fresh = DeltaEvaluateQuery(q, view, delta, before);
    const AnswerSet after = EvaluateNaive(q, db);

    AnswerSet merged = before;
    for (const Tuple& t : fresh.tuples()) {
      EXPECT_FALSE(before.Contains(t)) << "delta not disjoint, round " << round;
      merged.Insert(t);
    }
    EXPECT_TRUE(merged == after) << "delta incomplete or unsound, round "
                                 << round;
  }
}

// ---------------------------------------------------------------------------
// Serving layer: the differential mutation soak
// ---------------------------------------------------------------------------

// Seeded random interleavings of inserts and queries. Every configuration
// runs the same shape of soak: after each batch of published facts, every
// subscription's maintained state must equal a from-scratch evaluation in
// its mode (which itself must agree with naive evaluation on exact plans),
// the per-tick additions must reconstruct the state, and both sides of the
// sandwich must only ever grow.
TEST(IncrementalSoakTest, DifferentialMutationSoak) {
  const std::vector<AnswerMode> modes = {
      AnswerMode::kExact, AnswerMode::kUnderApproximate,
      AnswerMode::kOverApproximate, AnswerMode::kBounds};

  for (int run = 0; run <= 1; ++run) {
    Rng rng(9000 + run);
    const int n = 24;
    Database db = RandomDigraphDatabase(n, 0.10, &rng);

    EvalOptions opts;
    opts.num_threads = 1;
    opts.planner.width_budget = 1;  // TriangleOutputCQ gets approximated
    opts.cache = std::make_shared<EvalCache>();
    QueryService service(opts);

    // One standing query per mode x query shape: a width-1 (exact-plan)
    // query and a width-2 (approximated) one.
    struct Standing {
      AnswerMode mode;
      ConjunctiveQuery query;
      std::unique_ptr<Subscription> sub;
      AnswerSet prev_certain = AnswerSet(0);
      AnswerSet prev_possible = AnswerSet(0);
    };
    std::vector<Standing> standing;
    for (const AnswerMode mode : modes) {
      for (int shape = 0; shape < 2; ++shape) {
        const ConjunctiveQuery q =
            shape == 0 ? PathQuery(2) : TriangleOutputCQ();
        const int arity = static_cast<int>(q.free_variables().size());
        Standing s{mode, q, service.Subscribe({q, &db, mode}),
                   AnswerSet(arity), AnswerSet(arity)};
        standing.push_back(std::move(s));
      }
    }

    for (int step = 0; step < 8; ++step) {
      // Interleave: 1-3 inserts (possibly duplicates), then every
      // standing query ticks and is checked differentially.
      const int inserts = 1 + static_cast<int>(rng.UniformInt(3));
      for (int k = 0; k < inserts; ++k) {
        service.Publish(&db, 0, RandomEdge(n, &rng));
      }

      for (Standing& s : standing) {
        const SubscriptionDelta tick = s.sub->Poll();
        ASSERT_EQ(tick.status, ResponseStatus::kOk);
        EXPECT_TRUE(tick.caught_up);

        const AnswerSet certain = s.sub->answers();
        const AnswerSet possible = s.sub->possible();

        // Monotone: neither side ever shrinks under insertion, and the
        // per-tick additions reconstruct the new state exactly.
        EXPECT_TRUE(s.prev_certain.IsSubsetOf(certain));
        EXPECT_TRUE(s.prev_possible.IsSubsetOf(possible));
        AnswerSet rebuilt_certain = s.prev_certain;
        for (const Tuple& t : tick.new_answers.tuples()) {
          rebuilt_certain.Insert(t);
        }
        EXPECT_TRUE(rebuilt_certain == certain);
        AnswerSet rebuilt_possible = s.prev_possible;
        for (const Tuple& t : tick.new_possible.tuples()) {
          rebuilt_possible.Insert(t);
        }
        EXPECT_TRUE(rebuilt_possible == possible);

        // Differential: byte-identical to a from-scratch evaluation.
        const EvalResponse fresh =
            service.Evaluate({s.query, &db, s.mode});
        ASSERT_EQ(fresh.status, ResponseStatus::kOk);
        switch (s.mode) {
          case AnswerMode::kExact:
          case AnswerMode::kUnderApproximate:
            EXPECT_TRUE(certain == fresh.answers);
            break;
          case AnswerMode::kOverApproximate:
            EXPECT_TRUE(s.sub->over_valid());
            EXPECT_TRUE(possible == fresh.answers);
            break;
          case AnswerMode::kBounds:
            ASSERT_TRUE(fresh.bounds.has_value());
            EXPECT_TRUE(certain == fresh.bounds->under);
            EXPECT_TRUE(s.sub->over_valid());
            EXPECT_TRUE(possible == fresh.bounds->over);
            break;
        }
        // Exact plans must also agree with the reference engine (the
        // cross-engine differential: planner pick vs naive vs delta).
        if (s.mode == AnswerMode::kExact) {
          EXPECT_TRUE(certain == EvaluateNaive(s.query, db));
        }

        s.prev_certain = std::move(certain);
        s.prev_possible = std::move(possible);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(IncrementalEdgeTest, NullaryFactsDuplicatesAndEmptyRelations) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId p = vocab->AddRelation("P", 0);  // nullary (propositional)
  const RelationId e = vocab->AddRelation("E", 2);
  Database db(std::shared_ptr<const Vocabulary>(vocab), 4);
  // Both relations start EMPTY: the subscription begins over a database
  // with no facts at all, and the first answers must appear via ticks.

  // Q(x, y) :- E(x, y), E(y, x): mutual edges.
  ConjunctiveQuery q(db.vocab());
  const int x = q.AddVariable("x");
  const int y = q.AddVariable("y");
  q.AddAtom(e, {x, y});
  q.AddAtom(e, {y, x});
  q.SetFreeVariables({x, y});

  EvalOptions opts;
  opts.num_threads = 1;
  QueryService service(opts);
  std::unique_ptr<Subscription> sub = service.Subscribe({q, &db});

  const SubscriptionDelta first = sub->Poll();
  EXPECT_TRUE(first.reinitialized);
  EXPECT_TRUE(first.caught_up);
  EXPECT_TRUE(sub->answers().empty());  // nothing in the database yet

  // A nullary fact flows through the whole pipeline — Publish, the delta
  // cursor, index catch-up — and simply matches no atom of the query.
  EXPECT_TRUE(service.Publish(&db, p, {}));
  const SubscriptionDelta nullary = sub->Poll();
  EXPECT_EQ(nullary.status, ResponseStatus::kOk);
  EXPECT_EQ(nullary.facts_applied, 1u);
  EXPECT_TRUE(nullary.new_answers.empty());
  EXPECT_TRUE(nullary.caught_up);

  // Insert into the previously empty relation: a half-edge first (no
  // mutual pair yet), then its reverse completes the first answers.
  EXPECT_TRUE(service.Publish(&db, e, {0, 1}));
  EXPECT_TRUE(sub->Poll().new_answers.empty());
  EXPECT_TRUE(service.Publish(&db, e, {1, 0}));
  const SubscriptionDelta paired = sub->Poll();
  EXPECT_EQ(paired.facts_applied, 1u);
  EXPECT_TRUE(paired.new_answers.Contains({0, 1}));
  EXPECT_TRUE(paired.new_answers.Contains({1, 0}));
  EXPECT_TRUE(sub->answers() == EvaluateNaive(q, db));

  // Duplicate inserts are no-ops end to end: Publish reports them, the
  // next tick has nothing to apply, the answers do not change.
  EXPECT_FALSE(service.Publish(&db, p, {}));
  EXPECT_FALSE(service.Publish(&db, e, {0, 1}));
  const SubscriptionDelta dup = sub->Poll();
  EXPECT_EQ(dup.facts_applied, 0u);
  EXPECT_TRUE(dup.new_answers.empty());
  EXPECT_TRUE(dup.caught_up);

  // A self-loop is its own mutual pair.
  EXPECT_TRUE(service.Publish(&db, e, {2, 2}));
  const SubscriptionDelta loop = sub->Poll();
  EXPECT_EQ(loop.facts_applied, 1u);
  EXPECT_TRUE(loop.new_answers.Contains({2, 2}));
  EXPECT_TRUE(sub->answers() == EvaluateNaive(q, db));
}

TEST(IncrementalEdgeTest, CancelledTickCommitsNothingAndResumesCleanly) {
  Rng rng(31);
  Database db = RandomDigraphDatabase(20, 0.15, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  QueryService service(opts);

  const CancelFlag cancel = MakeCancelFlag();
  EvalRequest request{PathQuery(2), &db};
  request.cancel = cancel;
  std::unique_ptr<Subscription> sub = service.Subscribe(std::move(request));
  ASSERT_TRUE(sub->Poll().caught_up);
  const AnswerSet before = sub->answers();

  ASSERT_TRUE(service.Publish(&db, 0, {0, 1}));
  // A raised cancel flag trips the tick before any fact commits: the tick
  // is soundly empty and the fact stays pending.
  cancel->store(true);
  const SubscriptionDelta cancelled = sub->Poll();
  EXPECT_EQ(cancelled.status, ResponseStatus::kCancelled);
  EXPECT_EQ(cancelled.facts_applied, 0u);
  EXPECT_FALSE(cancelled.caught_up);
  EXPECT_TRUE(cancelled.new_answers.empty());
  EXPECT_TRUE(sub->answers() == before);

  // Lowering the flag, the next tick applies the pending fact and the
  // state converges to the from-scratch answers.
  cancel->store(false);
  const SubscriptionDelta resumed = sub->Poll();
  EXPECT_EQ(resumed.status, ResponseStatus::kOk);
  EXPECT_EQ(resumed.facts_applied, 1u);
  EXPECT_TRUE(resumed.caught_up);
  EXPECT_TRUE(sub->answers() == EvaluateNaive(PathQuery(2), db));
}

// The approximate-plan paths of a standing query: a kBounds subscription on
// a width-over-budget query (certain side: the union of the under
// rewrites; possible side: the intersection of the over rewrites),
// interrupted first in its baseline tick and later in a delta tick.
TEST(IncrementalEdgeTest, InterruptedApproximateTicksCommitNothingAndResume) {
  Rng rng(33);
  const int n = 20;
  Database db = RandomDigraphDatabase(n, 0.15, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;  // TriangleOutputCQ gets approximated
  QueryService service(opts);
  const ConjunctiveQuery q = TriangleOutputCQ();

  const CancelFlag cancel = MakeCancelFlag();
  EvalRequest request{q, &db, AnswerMode::kBounds};
  request.cancel = cancel;
  std::unique_ptr<Subscription> sub = service.Subscribe(std::move(request));
  ASSERT_TRUE(sub->plan().approximate);

  // A pre-raised flag interrupts the baseline: nothing is applied, the over
  // side is invalid, and whatever the certain side holds is sound.
  cancel->store(true);
  const SubscriptionDelta first = sub->Poll();
  EXPECT_NE(first.status, ResponseStatus::kOk);
  EXPECT_TRUE(first.reinitialized);
  EXPECT_EQ(first.facts_applied, 0u);
  EXPECT_FALSE(first.caught_up);
  EXPECT_FALSE(sub->caught_up());
  EXPECT_FALSE(sub->over_valid());
  EXPECT_TRUE(sub->answers().IsSubsetOf(EvaluateNaive(q, db)));

  // Lowering the flag, the next Poll reruns the baseline and converges to
  // Evaluate's bounds.
  cancel->store(false);
  const SubscriptionDelta baseline = sub->Poll();
  EXPECT_EQ(baseline.status, ResponseStatus::kOk);
  EXPECT_TRUE(baseline.reinitialized);
  EXPECT_TRUE(baseline.caught_up);
  const EvalResponse fresh = service.Evaluate({q, &db, AnswerMode::kBounds});
  ASSERT_TRUE(fresh.bounds.has_value());
  EXPECT_TRUE(sub->answers() == fresh.bounds->under);
  EXPECT_TRUE(sub->over_valid());
  EXPECT_TRUE(sub->possible() == fresh.bounds->over);

  // A delta tick interrupted before its first fact commits nothing: both
  // sides keep their answers and the over side stays valid.
  const AnswerSet certain_before = sub->answers();
  const AnswerSet possible_before = sub->possible();
  size_t published = 0;
  while (published < 6) {
    if (service.Publish(&db, 0, RandomEdge(n, &rng))) ++published;
  }
  cancel->store(true);
  const SubscriptionDelta cancelled = sub->Poll();
  EXPECT_EQ(cancelled.status, ResponseStatus::kCancelled);
  EXPECT_FALSE(cancelled.reinitialized);
  EXPECT_EQ(cancelled.facts_applied, 0u);
  EXPECT_FALSE(cancelled.caught_up);
  EXPECT_TRUE(cancelled.new_answers.empty());
  EXPECT_TRUE(cancelled.new_possible.empty());
  EXPECT_TRUE(sub->answers() == certain_before);
  EXPECT_TRUE(sub->possible() == possible_before);
  EXPECT_TRUE(sub->over_valid());

  // The next tick applies every pending fact and catches up.
  cancel->store(false);
  const SubscriptionDelta resumed = sub->Poll();
  EXPECT_EQ(resumed.status, ResponseStatus::kOk);
  EXPECT_FALSE(resumed.reinitialized);
  EXPECT_EQ(resumed.facts_applied, published);
  EXPECT_TRUE(resumed.caught_up);
  const EvalResponse after = service.Evaluate({q, &db, AnswerMode::kBounds});
  ASSERT_TRUE(after.bounds.has_value());
  EXPECT_TRUE(sub->answers() == after.bounds->under);
  EXPECT_TRUE(sub->possible() == after.bounds->over);
}

}  // namespace
}  // namespace cqa
