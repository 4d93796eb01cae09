// Tests for the QueryService serving API (eval/service): batch results must
// equal one-at-a-time blocking evaluation, the approximate AnswerModes must
// sandwich the forced-exact answers (under ⊆ exact ⊆ over) on the gadget
// workloads, tractable queries must collapse the sandwich, nullary queries
// must agree on every engine, and approximation synthesis must be paid once
// per query shape — concurrent first-sight requests (streamed or batched)
// plan once, and the second batch through a shared EvalCache serves the
// synthesized plans from the plan tier.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/cache.h"
#include "eval/engine.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// A mixed exact-mode workload shared by the calling-convention tests.
struct Workload {
  std::vector<Database> databases;
  std::vector<EvalRequest> jobs;
};

Workload MakeWorkload(uint64_t seed, int num_jobs) {
  Workload w;
  Rng rng(seed);
  w.databases.push_back(
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true));
  w.databases.push_back(RandomCycleChordDatabase(12, 5, &rng));
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &w.databases[i % w.databases.size()];
    if (i % 3 == 0) {
      w.jobs.push_back({RandomCyclicGraphCQ(3, 2, &rng), db});
    } else {
      w.jobs.push_back(
          {RandomGraphCQ(2 + i % 4, 3 + i % 3, &rng, i % 3), db});
    }
  }
  return w;
}

// The three calling conventions must agree: a threaded batch returns
// exactly what one-at-a-time blocking Evaluate calls return, request for
// request (EvaluateBatch is documented bit-identical to a sequential run).
TEST(QueryServiceTest, BatchMatchesBlockingEvaluate) {
  const Workload w = MakeWorkload(20260726, 14);
  EvalOptions opts;
  opts.num_threads = 3;
  const QueryService service(opts);

  BatchStats stats;
  const auto batch = service.EvaluateBatch(w.jobs, &stats);

  ASSERT_EQ(batch.size(), w.jobs.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const EvalResponse one = service.Evaluate(w.jobs[i]);
    EXPECT_TRUE(batch[i].answers == one.answers) << "job " << i;
    EXPECT_EQ(batch[i].engine, one.engine) << "job " << i;
    EXPECT_EQ(batch[i].plan.reason, one.plan.reason);
    EXPECT_EQ(batch[i].mode, AnswerMode::kExact);
    EXPECT_TRUE(batch[i].exact);
    EXPECT_FALSE(batch[i].bounds.has_value());
  }
  EXPECT_EQ(stats.jobs, static_cast<int>(w.jobs.size()));
  EXPECT_EQ(stats.approx_jobs, 0);
}

TEST(QueryServiceTest, SubmitMatchesNaiveReference) {
  const Workload w = MakeWorkload(77, 6);
  EvalOptions opts;
  opts.num_threads = 2;
  QueryService service(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(service.Submit(job));
  service.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse r = futures[i].get();
    EXPECT_TRUE(r.answers == EvaluateNaive(w.jobs[i].query, *w.jobs[i].db))
        << "job " << i;
  }
  service.Shutdown();
}

// Every approximate mode must sandwich the exact answers on the worked
// gadget queries (all cyclic, all width > 1, so a width budget of 1 forces
// rewrites).
TEST(QueryServiceTest, BoundsSandwichOnGadgetWorkloads) {
  const ConjunctiveQuery queries[] = {IntroQ1(), IntroQ3(), Prop59Query(),
                                      NonBooleanTriangle(),
                                      TriangleOutputCQ()};
  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  const QueryService service(opts);

  for (const uint64_t seed : {3u, 17u}) {
    Rng rng(seed);
    const Database db =
        RandomDigraphDatabase(9, 0.35, &rng, /*allow_loops=*/true);
    for (const ConjunctiveQuery& q : queries) {
      const AnswerSet exact = EvaluateNaive(q, db);

      const EvalResponse bounds =
          service.Evaluate({q, &db, AnswerMode::kBounds});
      ASSERT_TRUE(bounds.bounds.has_value()) << PrintQuery(q);
      EXPECT_TRUE(bounds.plan.approximate) << PrintQuery(q);
      EXPECT_FALSE(bounds.exact) << PrintQuery(q);
      EXPECT_EQ(bounds.mode, AnswerMode::kBounds);
      EXPECT_FALSE(bounds.plan.under.empty());
      EXPECT_FALSE(bounds.plan.over.empty());
      EXPECT_TRUE(bounds.bounds->under.IsSubsetOf(exact))
          << "under ⊄ exact for " << PrintQuery(q);
      EXPECT_TRUE(exact.IsSubsetOf(bounds.bounds->over))
          << "exact ⊄ over for " << PrintQuery(q);
      // The response's `answers` is the certain (sound) reading.
      EXPECT_TRUE(bounds.answers == bounds.bounds->under);

      const EvalResponse under =
          service.Evaluate({q, &db, AnswerMode::kUnderApproximate});
      EXPECT_FALSE(under.bounds.has_value());
      EXPECT_TRUE(under.answers.IsSubsetOf(exact)) << PrintQuery(q);
      EXPECT_TRUE(under.answers == bounds.bounds->under);

      const EvalResponse over =
          service.Evaluate({q, &db, AnswerMode::kOverApproximate});
      EXPECT_FALSE(over.bounds.has_value());
      EXPECT_TRUE(exact.IsSubsetOf(over.answers)) << PrintQuery(q);
      EXPECT_TRUE(over.answers == bounds.bounds->over);
    }
  }
}

TEST(QueryServiceTest, RandomCyclicBoundsSandwich) {
  Rng rng(424242);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  const QueryService service(opts);
  int approximated = 0;
  for (int round = 0; round < 10; ++round) {
    const Database db =
        RandomDigraphDatabase(8 + round % 3, 0.35, &rng, /*allow_loops=*/true);
    const ConjunctiveQuery q = RandomCyclicGraphCQ(3 + round % 2, 2, &rng);
    const AnswerSet exact = EvaluateNaive(q, db);
    const EvalResponse r = service.Evaluate({q, &db, AnswerMode::kBounds});
    ASSERT_TRUE(r.bounds.has_value());
    EXPECT_TRUE(r.bounds->under.IsSubsetOf(exact)) << PrintQuery(q);
    EXPECT_TRUE(exact.IsSubsetOf(r.bounds->over)) << PrintQuery(q);
    if (r.plan.approximate) ++approximated;
    // Collapsed sandwiches (width within budget) must be the exact answers.
    if (!r.plan.approximate) {
      EXPECT_TRUE(r.bounds->tight());
      EXPECT_TRUE(r.answers == exact);
    }
  }
  // The generator guarantees cyclic queries; most exceed a width budget
  // of 1, so the approximation rule must actually fire in this sweep.
  EXPECT_GT(approximated, 0);
}

// Queries the planner can evaluate exactly within budget serve every mode
// exactly: the sandwich collapses and `exact` stays true.
TEST(QueryServiceTest, TractableQueriesCollapseBounds) {
  Rng rng(11);
  const Database db = RandomDigraphDatabase(10, 0.3, &rng);
  const QueryService service;  // default width budget 3
  // Acyclic (Yannakakis) and small-width cyclic (treewidth DP).
  for (const ConjunctiveQuery& q : {IntroQ2Approx(), IntroQ1()}) {
    const AnswerSet exact = EvaluateNaive(q, db);
    for (const AnswerMode mode :
         {AnswerMode::kBounds, AnswerMode::kUnderApproximate,
          AnswerMode::kOverApproximate}) {
      const EvalResponse r = service.Evaluate({q, &db, mode});
      EXPECT_TRUE(r.exact) << PrintQuery(q);
      EXPECT_FALSE(r.plan.approximate);
      EXPECT_TRUE(r.answers == exact) << PrintQuery(q);
      if (mode == AnswerMode::kBounds) {
        ASSERT_TRUE(r.bounds.has_value());
        EXPECT_TRUE(r.bounds->tight());
        EXPECT_TRUE(r.bounds->under == exact);
      } else {
        EXPECT_FALSE(r.bounds.has_value());
      }
    }
  }
}

// The acceptance criterion: approximation synthesis is per query shape and
// cached in the EvalCache plan tier, so the second batch through a shared
// cache reuses the synthesized plans (every plan a hit) instead of
// re-deriving them.
TEST(QueryServiceTest, ApproxPlansHitSharedCacheOnSecondBatch) {
  Rng rng(8);
  const Database db =
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true);

  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();

  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({i % 2 == 0 ? IntroQ1() : TriangleOutputCQ(), &db,
                    AnswerMode::kBounds});
  }

  const QueryService service(opts);
  BatchStats first_stats, second_stats;
  const auto first = service.EvaluateBatch(jobs, &first_stats);
  const auto second = service.EvaluateBatch(jobs, &second_stats);

  // First batch: each of the 2 shapes is planned once, on any thread count.
  EXPECT_EQ(first_stats.plan_hits, static_cast<long long>(jobs.size()) - 2);
  EXPECT_EQ(first_stats.approx_jobs, static_cast<long long>(jobs.size()));
  // Second batch: both shapes come straight from the shared plan tier.
  EXPECT_EQ(second_stats.plan_hits, static_cast<long long>(jobs.size()));
  EXPECT_EQ(second_stats.approx_jobs, static_cast<long long>(jobs.size()));

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    // Served-from-cache plans still carry the synthesized rewrites and
    // produce identical bounds.
    EXPECT_TRUE(second[i].plan.approximate) << "job " << i;
    EXPECT_FALSE(second[i].plan.under.empty()) << "job " << i;
    ASSERT_TRUE(first[i].bounds.has_value());
    ASSERT_TRUE(second[i].bounds.has_value());
    EXPECT_TRUE(first[i].bounds->under == second[i].bounds->under);
    EXPECT_TRUE(first[i].bounds->over == second[i].bounds->over);
  }
  // The plan tier, not re-synthesis, must have served the second batch.
  const EvalCacheStats cache_stats = opts.cache->stats();
  EXPECT_GT(cache_stats.plan_hits, 0);
  EXPECT_EQ(cache_stats.plan_misses, 2);
}

// Modes are part of the plan cache key: an exact plan for a shape must
// never be served to a bounds request of the same shape, and vice versa.
TEST(QueryServiceTest, ModesDoNotCrossInThePlanCache) {
  Rng rng(9);
  const Database db =
      RandomDigraphDatabase(9, 0.3, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);

  const AnswerSet exact = EvaluateNaive(IntroQ1(), db);
  const EvalResponse e = service.Evaluate({IntroQ1(), &db, AnswerMode::kExact});
  const EvalResponse b = service.Evaluate({IntroQ1(), &db, AnswerMode::kBounds});
  EXPECT_TRUE(e.exact);
  EXPECT_FALSE(e.plan.approximate);
  EXPECT_TRUE(e.answers == exact);
  EXPECT_TRUE(b.plan.approximate);
  ASSERT_TRUE(b.bounds.has_value());
  EXPECT_TRUE(b.bounds->under.IsSubsetOf(exact));
  EXPECT_TRUE(exact.IsSubsetOf(b.bounds->over));
}

// Streaming must serve the approximate modes exactly like a blocking batch.
TEST(QueryServiceTest, StreamingBoundsMatchBlocking) {
  Rng rng(12);
  const Database db =
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();

  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({i % 2 == 0 ? TriangleOutputCQ() : IntroQ3(), &db,
                    AnswerMode::kBounds});
  }

  QueryService service(opts);
  const auto blocking = service.EvaluateBatch(jobs);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : jobs) futures.push_back(service.Submit(job));
  service.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse streamed = futures[i].get();
    ASSERT_TRUE(streamed.bounds.has_value());
    ASSERT_TRUE(blocking[i].bounds.has_value());
    EXPECT_TRUE(streamed.bounds->under == blocking[i].bounds->under);
    EXPECT_TRUE(streamed.bounds->over == blocking[i].bounds->over);
    // The blocking batch already planned both shapes into the shared cache.
    EXPECT_EQ(streamed.plan_source, PlanSource::kCached);
  }
  service.Shutdown();
}

// Q(x0) :- E(xi, xj) for all 0 <= i < j <= 4: the transitive 5-tournament,
// width 4, so the default width budget of 3 sends the approximate modes
// through rewrite synthesis.
ConjunctiveQuery TransitiveTournamentCQ() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariables(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) q.AddAtom(0, {x + i, x + j});
  }
  q.SetFreeVariables({x});
  return q;
}

// The one plan tier coalesces streaming requests too: two workers that miss
// on the same first-sight approximate shape run the planner once between
// them — one response is planned, the other served from the cache.
TEST(QueryServiceTest, ConcurrentSubmitsOfOneNewShapePlanOnce) {
  Rng rng(14);
  const Database db =
      RandomDigraphDatabase(12, 0.4, &rng, /*allow_loops=*/true);
  const ConjunctiveQuery q = TransitiveTournamentCQ();
  EvalOptions opts;
  opts.num_threads = 2;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);

  std::future<EvalResponse> a =
      service.Submit({q, &db, AnswerMode::kOverApproximate});
  std::future<EvalResponse> b =
      service.Submit({q, &db, AnswerMode::kOverApproximate});
  const EvalResponse ra = a.get();
  const EvalResponse rb = b.get();
  service.Shutdown();

  ASSERT_TRUE(ra.plan.approximate);
  EXPECT_EQ(opts.cache->stats().plan_misses, 1);
  EXPECT_NE(ra.plan_cached(), rb.plan_cached());
  EXPECT_TRUE(ra.answers == rb.answers);
  EXPECT_TRUE(EvaluateNaive(q, db).IsSubsetOf(ra.answers));
}

// Likewise inside one multi-thread batch: every worker but one waits for
// the first-sight decision instead of repeating the synthesis.
TEST(QueryServiceTest, ParallelBatchOfOneNewShapePlansOnce) {
  Rng rng(15);
  const Database db =
      RandomDigraphDatabase(12, 0.4, &rng, /*allow_loops=*/true);
  const ConjunctiveQuery q = TransitiveTournamentCQ();
  EvalOptions opts;
  opts.num_threads = 4;
  opts.cache = std::make_shared<EvalCache>();
  const std::vector<EvalRequest> jobs(
      8, EvalRequest{q, &db, AnswerMode::kOverApproximate});

  BatchStats stats;
  const auto results = QueryService(opts).EvaluateBatch(jobs, &stats);
  EXPECT_EQ(opts.cache->stats().plan_misses, 1);
  EXPECT_EQ(stats.plan_hits, 7);
  EXPECT_EQ(stats.approx_jobs, 8);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].answers == results[0].answers) << "job " << i;
  }
}

// Nullary atoms through the service: the proposition P() alone, and a star
// guarded by it, agree with naive evaluation on every engine — true when P
// holds, empty when it does not.
TEST(QueryServiceTest, NullaryQueriesAcrossEngines) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId e = vocab->AddRelation("E", 2);
  const RelationId p = vocab->AddRelation("P", 0);
  Database with_p(vocab, 8);
  Database without_p(vocab, 8);
  for (int u = 0; u < 7; ++u) {
    with_p.AddFact(e, {u, u + 1});
    without_p.AddFact(e, {u, u + 1});
  }
  with_p.AddFact(p, {});

  ConjunctiveQuery only_p(vocab);
  only_p.SetFreeVariables({});
  only_p.AddAtom(p, {});
  ConjunctiveQuery guarded(vocab);
  const int x = guarded.AddVariable("x");
  const int y = guarded.AddVariable("y");
  const int z = guarded.AddVariable("z");
  guarded.AddAtom(e, {x, y});
  guarded.AddAtom(e, {x, z});
  guarded.AddAtom(p, {});
  guarded.SetFreeVariables({x, y, z});

  for (const ConjunctiveQuery& q : {only_p, guarded}) {
    EXPECT_FALSE(EvaluateNaive(q, with_p).empty()) << PrintQuery(q);
    EXPECT_TRUE(EvaluateNaive(q, without_p).empty()) << PrintQuery(q);
    for (const Database* db : {&with_p, &without_p}) {
      const AnswerSet oracle = EvaluateNaive(q, *db);
      const IndexedDatabase view(*db);
      for (const EngineKind kind : {EngineKind::kNaive,
                                    EngineKind::kYannakakis,
                                    EngineKind::kTreewidth}) {
        const std::unique_ptr<Engine> engine = MakeEngine(kind);
        if (!engine->Supports(q)) continue;
        EXPECT_TRUE(engine->Evaluate(q, view) == oracle)
            << PrintQuery(q) << " on " << EngineKindName(kind);
      }
      EvalOptions opts;
      opts.num_threads = 1;
      EXPECT_TRUE(QueryService(opts).Evaluate({q, db}).answers == oracle)
          << PrintQuery(q);
    }
  }
}

// Structural synthesis guards: a query too large to synthesize for falls
// back to exact evaluation instead of stalling in the candidate enumeration.
TEST(QueryServiceTest, OversizedQueryFallsBackToExact) {
  Rng rng(13);
  const Database db = RandomDigraphDatabase(8, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.planner.max_synthesis_vars = 2;  // nothing qualifies
  const QueryService service(opts);
  const EvalResponse r = service.Evaluate({IntroQ1(), &db, AnswerMode::kBounds});
  EXPECT_FALSE(r.plan.approximate);
  EXPECT_TRUE(r.exact);
  ASSERT_TRUE(r.bounds.has_value());
  EXPECT_TRUE(r.bounds->tight());
  EXPECT_TRUE(r.answers == EvaluateNaive(IntroQ1(), db));
  EXPECT_NE(r.plan.reason.find("synthesis skipped"), std::string::npos);
}

}  // namespace
}  // namespace cqa
