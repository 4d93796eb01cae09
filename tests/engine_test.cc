// Tests for the uniform engine layer (eval/engine): cross-engine agreement
// on the worked-example and workload queries, planner selection, and the
// Engine interface contract.

#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/engine.h"
#include "eval/eval_context.h"
#include "eval/service.h"
#include "eval/naive.h"
#include "gadgets/examples.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"
#include "graph/standard.h"

namespace cqa {
namespace {

VocabularyPtr G() { return Vocabulary::Graph(); }

TEST(EngineKindTest, Names) {
  EXPECT_STREQ(EngineKindName(EngineKind::kNaive), "naive");
  EXPECT_STREQ(EngineKindName(EngineKind::kYannakakis), "yannakakis");
  EXPECT_STREQ(EngineKindName(EngineKind::kTreewidth), "treewidth");
}

TEST(EngineFactoryTest, KindsRoundTrip) {
  for (const EngineKind kind :
       {EngineKind::kNaive, EngineKind::kYannakakis, EngineKind::kTreewidth}) {
    const std::unique_ptr<Engine> e = MakeEngine(kind);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->kind(), kind);
    EXPECT_STREQ(e->name(), EngineKindName(kind));
  }
}

TEST(EngineSupportsTest, YannakakisRequiresAcyclicity) {
  const std::unique_ptr<Engine> yanna = MakeEngine(EngineKind::kYannakakis);
  const std::unique_ptr<Engine> naive = MakeEngine(EngineKind::kNaive);
  const std::unique_ptr<Engine> tw = MakeEngine(EngineKind::kTreewidth);
  const ConjunctiveQuery triangle = IntroQ1();     // cyclic
  const ConjunctiveQuery path = IntroQ2Approx();   // acyclic
  EXPECT_FALSE(yanna->Supports(triangle));
  EXPECT_TRUE(yanna->Supports(path));
  EXPECT_TRUE(naive->Supports(triangle));
  EXPECT_TRUE(tw->Supports(triangle));
}

// All engines that support a query must return the same AnswerSet as the
// naive reference on the same database.
void ExpectCrossEngineAgreement(const ConjunctiveQuery& q, const Database& db) {
  const AnswerSet reference = EvaluateNaive(q, db);
  for (const EngineKind kind :
       {EngineKind::kNaive, EngineKind::kYannakakis, EngineKind::kTreewidth}) {
    const std::unique_ptr<Engine> e = MakeEngine(kind);
    if (!e->Supports(q)) continue;
    const AnswerSet got = e->Evaluate(q, db);
    EXPECT_TRUE(got == reference)
        << "engine " << e->name() << " disagrees with naive on "
        << PrintQuery(q) << " (got " << got.size() << " tuples, want "
        << reference.size() << ")";
  }
}

TEST(CrossEngineTest, WorkedExampleQueriesOnRandomDigraphs) {
  const ConjunctiveQuery queries[] = {
      IntroQ1(),          IntroQ2(),  IntroQ2Approx(),
      IntroQ3(),          Prop59Query(), NonBooleanTriangle(),
      NonBooleanTriangleApprox()};
  for (const uint64_t seed : {7u, 21u}) {
    Rng rng(seed);
    const Database db = RandomDigraphDatabase(10, 0.3, &rng);
    for (const ConjunctiveQuery& q : queries) {
      ExpectCrossEngineAgreement(q, db);
    }
  }
}

TEST(CrossEngineTest, TernaryExample66Family) {
  Rng rng(99);
  const Database db = RandomDatabase(Vocabulary::Single("R", 3), 8, 60, &rng);
  for (const ConjunctiveQuery& q :
       {Example66Query(), Example66Approx1(), Example66Approx2(),
        Example66Approx3()}) {
    ExpectCrossEngineAgreement(q, db);
  }
}

TEST(CrossEngineTest, RandomWorkloadQueries) {
  Rng rng(2024);
  for (int round = 0; round < 12; ++round) {
    const Database db =
        RandomDigraphDatabase(8 + round % 4, 0.35, &rng, /*allow_loops=*/true);
    const ConjunctiveQuery q =
        RandomGraphCQ(/*num_vars=*/2 + round % 4, /*num_atoms=*/3 + round % 3,
                      &rng, /*num_free=*/round % 3);
    ExpectCrossEngineAgreement(q, db);
  }
}

TEST(CrossEngineTest, RandomCyclicWorkloadQueries) {
  Rng rng(31337);
  for (int round = 0; round < 8; ++round) {
    const Database db = RandomCycleChordDatabase(9, 6, &rng);
    const ConjunctiveQuery q =
        RandomCyclicGraphCQ(/*cycle_len=*/3 + round % 2, /*extra_atoms=*/2,
                            &rng);
    ExpectCrossEngineAgreement(q, db);
  }
}

// The treewidth engine, scan and indexed, returns the naive engine's answers
// on `q`; under small node budgets an interrupted run returns a subset.
void ExpectTreewidthMatchesNaive(const ConjunctiveQuery& q,
                                 const Database& db,
                                 const IndexedDatabase& view) {
  const std::unique_ptr<Engine> tw = MakeEngine(EngineKind::kTreewidth);
  const AnswerSet want = EvaluateNaive(q, view);
  EXPECT_TRUE(tw->Evaluate(q, db) == want) << "scan: " << PrintQuery(q);
  EXPECT_TRUE(tw->Evaluate(q, view) == want) << "indexed: " << PrintQuery(q);
  for (const long long max_nodes : {5LL, 200LL, 5000LL}) {
    EvalLimits limits;
    limits.max_nodes = max_nodes;
    const EvalContext scan_ctx(limits);
    const EvalContext view_ctx(limits);
    EXPECT_TRUE(tw->Evaluate(q, db, nullptr, &scan_ctx).IsSubsetOf(want))
        << "scan, " << max_nodes << " nodes: " << PrintQuery(q);
    EXPECT_TRUE(tw->Evaluate(q, view, nullptr, &view_ctx).IsSubsetOf(want))
        << "indexed, " << max_nodes << " nodes: " << PrintQuery(q);
  }
}

// The TW(3) rewrites the planner synthesizes for oriented 5-cliques: the
// bag shapes the approximate modes actually evaluate.
TEST(CrossEngineTest, TreewidthOnPlannedCliqueRewrites) {
  Rng rng(515);
  const Database db = RandomDigraphDatabase(14, 0.3, &rng,
                                            /*allow_loops=*/true);
  const IndexedDatabase view(db);
  int rewrites = 0;
  for (int shape = 0; shape < 2; ++shape) {
    const PlanDecision d = PlanQuery(RandomTournamentCQ(5, shape + 1, &rng),
                                     PlannerOptions{}, AnswerMode::kBounds);
    ASSERT_TRUE(d.approximate) << d.reason;
    for (const std::vector<ApproxSubPlan>* side : {&d.under, &d.over}) {
      for (const ApproxSubPlan& sub : *side) {
        if (sub.kind != EngineKind::kTreewidth) continue;
        ExpectTreewidthMatchesNaive(sub.query, db, view);
        ++rewrites;
      }
    }
  }
  EXPECT_GT(rewrites, 0);
}

TEST(CrossEngineTest, TreewidthOnCyclicQueriesOfWidthAtMostThree) {
  Rng rng(8675);
  int tested = 0;
  for (int round = 0; round < 60 && tested < 16; ++round) {
    const ConjunctiveQuery q =
        RandomGraphCQ(/*num_vars=*/4 + round % 3, /*num_atoms=*/5 + round % 4,
                      &rng, /*num_free=*/round % 3);
    const PlanDecision d = PlanQuery(q);
    if (d.acyclic || d.width > 3) continue;
    const Database db =
        RandomDigraphDatabase(9 + round % 4, 0.3, &rng, /*allow_loops=*/true);
    ExpectTreewidthMatchesNaive(q, db, IndexedDatabase(db));
    ++tested;
  }
  EXPECT_GE(tested, 8);
}

TEST(PlannerTest, AcyclicGoesToYannakakis) {
  const PlanDecision d = PlanQuery(IntroQ2Approx());
  EXPECT_EQ(d.kind, EngineKind::kYannakakis);
  EXPECT_TRUE(d.acyclic);
  EXPECT_EQ(d.width, -1);  // width not needed for acyclic queries
  EXPECT_FALSE(d.reason.empty());
}

TEST(PlannerTest, SmallTreewidthGoesToTreewidthDP) {
  // The triangle is cyclic with (min-fill) width 2 <= default width_budget 3.
  const PlanDecision d = PlanQuery(IntroQ1());
  EXPECT_EQ(d.kind, EngineKind::kTreewidth);
  EXPECT_FALSE(d.acyclic);
  EXPECT_EQ(d.width, 2);
}

TEST(PlannerTest, WidthBudgetFallsBackToNaive) {
  PlannerOptions opts;
  opts.width_budget = 1;
  const PlanDecision d = PlanQuery(IntroQ1(), opts);  // width 2 > 1
  EXPECT_EQ(d.kind, EngineKind::kNaive);
  EXPECT_EQ(d.width, 2);
}

TEST(PlannerTest, PlanEngineMatchesPlanQuery) {
  for (const ConjunctiveQuery& q : {IntroQ1(), IntroQ2(), IntroQ2Approx()}) {
    const std::unique_ptr<Engine> e = PlanEngine(q);
    EXPECT_EQ(e->kind(), PlanQuery(q).kind);
    EXPECT_TRUE(e->Supports(q));
  }
}

TEST(PlannerTest, PlannedEngineIsExactOnEveryQuery) {
  // Whatever the planner picks must produce the reference answer.
  Rng rng(4242);
  const Database db = RandomDigraphDatabase(9, 0.3, &rng);
  for (const ConjunctiveQuery& q :
       {IntroQ1(), IntroQ2(), IntroQ2Approx(), IntroQ3(), Prop59Query()}) {
    const std::unique_ptr<Engine> e = PlanEngine(q);
    EXPECT_TRUE(e->Evaluate(q, db) == EvaluateNaive(q, db))
        << "planned engine " << e->name() << " wrong on " << PrintQuery(q);
  }
}

TEST(EvaluateBatchTest, StatsAreFilled) {
  Rng rng(11);
  const Database db = RandomDigraphDatabase(10, 0.3, &rng);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back({IntroQ2(), &db});
  EvalOptions opts;
  opts.num_threads = 3;
  BatchStats stats;
  const auto results = QueryService(opts).EvaluateBatch(jobs, &stats);
  EXPECT_EQ(results.size(), 6u);
  EXPECT_EQ(stats.jobs, 6);
  EXPECT_EQ(stats.threads_used, 3);
  EXPECT_GE(stats.wall_ms, 0.0);
  EXPECT_GE(stats.total_eval_ms, 0.0);
  EXPECT_GE(stats.max_job_ms, 0.0);
  EXPECT_LE(stats.max_job_ms, stats.total_eval_ms + 1e3);
  for (const EvalResponse& r : results) {
    EXPECT_GE(r.eval_ms, 0.0);
    EXPECT_FALSE(r.plan.reason.empty());
  }
}

TEST(EvaluateBatchTest, ScanTreewidthReportsNodes) {
  Rng rng(17);
  const Database db = RandomDigraphDatabase(10, 0.3, &rng);
  EvalOptions opts;
  opts.engine.use_index = false;
  const EvalResponse r = QueryService(opts).Evaluate({IntroQ1(), &db});
  ASSERT_EQ(r.engine, EngineKind::kTreewidth);
  EXPECT_GT(r.eval.nodes, 0);
}

TEST(EvaluateBatchTest, EmptyBatch) {
  BatchStats stats;
  const auto results = QueryService().EvaluateBatch({}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.jobs, 0);
  EXPECT_EQ(stats.threads_used, 0);
}

// Indexing must be invisible except for speed: the same batch, run with
// indexes on and off, must produce identical engines and answer sets, both
// matching the naive reference.
TEST(EvaluateBatchTest, IndexedAndScanRunsAgree) {
  Rng rng(60221023);
  std::vector<Database> dbs;
  dbs.push_back(RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true));
  dbs.push_back(RandomCycleChordDatabase(11, 5, &rng));
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 16; ++i) {
    const Database* db = &dbs[i % dbs.size()];
    if (i % 3 == 0) {
      jobs.push_back({RandomCyclicGraphCQ(3, 2, &rng), db});
    } else {
      jobs.push_back({RandomGraphCQ(2 + i % 4, 3 + i % 3, &rng, i % 3), db});
    }
  }

  EvalOptions indexed_opts;
  indexed_opts.num_threads = 4;
  indexed_opts.engine.use_index = true;
  EvalOptions scan_opts;
  scan_opts.num_threads = 4;
  scan_opts.engine.use_index = false;

  BatchStats indexed_stats, scan_stats;
  const auto indexed =
      QueryService(indexed_opts).EvaluateBatch(jobs, &indexed_stats);
  const auto scan = QueryService(scan_opts).EvaluateBatch(jobs, &scan_stats);
  ASSERT_EQ(indexed.size(), scan.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(indexed[i].engine, scan[i].engine) << "job " << i;
    EXPECT_TRUE(indexed[i].answers == scan[i].answers) << "job " << i;
    EXPECT_TRUE(indexed[i].answers ==
                EvaluateNaive(jobs[i].query, *jobs[i].db))
        << "job " << i;
  }
  EXPECT_GT(indexed_stats.eval.index_probes, 0);
  EXPECT_GT(indexed_stats.index_bytes, 0);
  EXPECT_EQ(scan_stats.eval.index_probes, 0);
  EXPECT_EQ(scan_stats.index_bytes, 0);
}

TEST(CanonicalQueryKeyTest, RenamingInvariantShapeSensitive) {
  const VocabularyPtr g = G();
  ConjunctiveQuery a(g);
  const int ax = a.AddVariable("x"), ay = a.AddVariable("y");
  a.AddAtom(0, {ax, ay});
  a.AddAtom(0, {ay, ax});
  a.SetFreeVariables({ax});
  // Same shape, variables created in the opposite order.
  ConjunctiveQuery b(g);
  const int by = b.AddVariable("y"), bx = b.AddVariable("x");
  b.AddAtom(0, {bx, by});
  b.AddAtom(0, {by, bx});
  b.SetFreeVariables({bx});
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
  // A genuinely different shape must differ.
  ConjunctiveQuery c(g);
  const int cx = c.AddVariable("x"), cy = c.AddVariable("y");
  c.AddAtom(0, {cx, cy});
  c.AddAtom(0, {cx, cy});
  c.SetFreeVariables({cx});
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(c));
}

TEST(EvaluateBatchTest, PlanCacheHitsOnRepeatedShapes) {
  Rng rng(5150);
  const Database db = RandomDigraphDatabase(9, 0.3, &rng);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 9; ++i) {
    jobs.push_back({i % 2 == 0 ? IntroQ2() : IntroQ1(), &db});
  }
  EvalOptions opts;
  opts.num_threads = 1;  // deterministic hit count: 2 misses, 7 hits
  BatchStats stats;
  const auto results = QueryService(opts).EvaluateBatch(jobs, &stats);
  EXPECT_EQ(stats.plan_hits, 7);
  EXPECT_FALSE(results[0].plan_cached());
  EXPECT_FALSE(results[1].plan_cached());
  for (size_t i = 2; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].plan_cached()) << "job " << i;
  }
  // Cached plans carry the full decision of the original.
  EXPECT_EQ(results[2].plan.kind, results[0].plan.kind);
  EXPECT_EQ(results[2].plan.reason, results[0].plan.reason);
  // Answers are unaffected by plan caching.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].answers ==
                EvaluateNaive(jobs[i].query, *jobs[i].db));
  }
}

}  // namespace
}  // namespace cqa
