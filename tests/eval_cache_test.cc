// EvalCache and streaming-serving tests: database id/version semantics,
// identity-keyed views (never served for another database, whether a
// content-equal copy, an assigned-over database or a new database at a freed
// address), cross-batch index/plan reuse, the single-flight plan tier
// (GetOrPlan plans each key once, and a throwing planner wakes its
// waiters), LRU eviction under byte pressure (without breaking in-flight
// views), in-place catch-up when a database gains facts, and
// Submit/Drain/Shutdown returning exactly the answers a blocking
// EvaluateBatch produces.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "data/database.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/cache.h"
#include "eval/engine.h"
#include "eval/service.h"
#include "eval/naive.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// E-edges only; the insertion order of `edges` is preserved.
Database GraphDb(int n, const std::vector<std::pair<int, int>>& edges) {
  Database db(Vocabulary::Graph(), n);
  for (const auto& [u, v] : edges) db.AddFact(0, {u, v});
  return db;
}

TEST(DatabaseVersionTest, BumpsOnMutationsOnly) {
  Database db(Vocabulary::Graph());
  const uint64_t v0 = db.version();
  db.AddElements(3);
  EXPECT_GT(db.version(), v0);
  const uint64_t v1 = db.version();
  EXPECT_TRUE(db.AddFact(0, {0, 1}));
  EXPECT_GT(db.version(), v1);
  const uint64_t v2 = db.version();
  EXPECT_FALSE(db.AddFact(0, {0, 1}));  // duplicate: no-op
  EXPECT_EQ(db.version(), v2);
  db.AddElements(0);  // no-op
  EXPECT_EQ(db.version(), v2);
}

TEST(DatabaseIdTest, StableUnderMutationFreshOnCopyAndAssignment) {
  Database a = GraphDb(3, {{0, 1}});
  const uint64_t id = a.id();
  a.AddFact(0, {1, 2});
  a.AddElements(1);
  EXPECT_EQ(a.id(), id);  // growth keeps the identity

  const Database copy = a;
  EXPECT_NE(copy.id(), id);
  EXPECT_EQ(a.id(), id);
  Database moved = std::move(a);
  EXPECT_NE(moved.id(), id);
  EXPECT_NE(moved.id(), copy.id());
  a = copy;  // assignment draws a fresh id, even over a moved-from database
  EXPECT_NE(a.id(), id);
  EXPECT_NE(a.id(), copy.id());
  EXPECT_NE(a.id(), moved.id());
}

// Two content-equal databases are two databases: each gets its own view,
// and re-acquiring one of them hits its own entry.
TEST(EvalCacheTest, ContentEqualDatabasesGetTheirOwnViews) {
  EvalCache cache;
  const Database db1 = GraphDb(4, {{0, 1}, {1, 2}});
  const Database db2 = GraphDb(4, {{1, 2}, {0, 1}});  // same content

  bool hit = true;
  const auto view1 = cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
  const auto view2 = cache.AcquireIndexed(db2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(view1.get(), view2.get());
  EXPECT_EQ(&view1->db(), &db1);
  EXPECT_EQ(&view2->db(), &db2);
  const auto again = cache.AcquireIndexed(db1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), view1.get());

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.index_hits, 1);
  EXPECT_EQ(stats.index_misses, 2);
  EXPECT_EQ(stats.index_entries, 2);
}

// Every engine, on the view `cache` serves for `db`, answers `q` exactly as
// the scan-based naive oracle does.
void ExpectEveryEngineMatchesOracle(EvalCache& cache, const ConjunctiveQuery& q,
                                    const Database& db) {
  const AnswerSet oracle = EvaluateNaive(q, db);
  const std::shared_ptr<const IndexedDatabase> view = cache.AcquireIndexed(db);
  EXPECT_EQ(&view->db(), &db);
  for (const EngineKind kind : {EngineKind::kNaive, EngineKind::kYannakakis,
                                EngineKind::kTreewidth}) {
    EXPECT_TRUE(MakeEngine(kind)->Evaluate(q, *view) == oracle)
        << EngineKindName(kind);
  }
}

// `a = b` over a database the cache has seen leaves the address, the
// version and the counts as they were and changes the facts: the view of
// the old `a` must not be served for the new one.
TEST(EvalCacheTest, AssignmentOverACachedDatabaseServesTheNewContent) {
  EvalCache cache;
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  Database a = GraphDb(4, {{0, 1}, {1, 2}});
  const Database b = GraphDb(4, {{1, 2}, {2, 3}});
  ExpectEveryEngineMatchesOracle(cache, q, a);

  a = b;
  ASSERT_FALSE(a.HasFact(0, {0, 1}));
  ExpectEveryEngineMatchesOracle(cache, q, a);
}

// A new database emplaced at the address of a destroyed one the cache has
// seen, without Invalidate, gets a view of its own content.
TEST(EvalCacheTest, NewDatabaseAtAFreedAddressServesItsOwnContent) {
  EvalCache cache;
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  std::optional<Database> slot;
  slot.emplace(GraphDb(4, {{0, 1}, {1, 2}}));
  const Database* address = &*slot;
  ExpectEveryEngineMatchesOracle(cache, q, *slot);

  slot.reset();
  slot.emplace(GraphDb(4, {{1, 2}, {2, 3}}));
  ASSERT_EQ(&*slot, address);
  ExpectEveryEngineMatchesOracle(cache, q, *slot);
}

TEST(EvalCacheTest, CrossBatchStatsDistinguishTiersFromIntraBatchReuse) {
  Rng rng(5150);
  const Database db = RandomDigraphDatabase(9, 0.3, &rng);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 9; ++i) {
    jobs.push_back({i % 2 == 0 ? IntroQ2() : IntroQ1(), &db});
  }

  EvalOptions opts;
  opts.num_threads = 1;  // deterministic hit counts
  opts.cache = std::make_shared<EvalCache>();
  const QueryService evaluator(opts);

  // Cold batch: nothing is in the shared cache yet — 2 plans are computed,
  // the plan tier serves the other 7 jobs, the one view is built fresh.
  BatchStats cold;
  const auto first = evaluator.EvaluateBatch(jobs, &cold);
  EXPECT_EQ(cold.plan_hits, 7);
  EXPECT_EQ(opts.cache->stats().plan_misses, 2);
  EXPECT_EQ(cold.index_cache_hits, 0);
  EXPECT_EQ(cold.index_cache_misses, 1);
  EXPECT_EQ(first[0].plan_source, PlanSource::kPlanned);
  EXPECT_EQ(first[2].plan_source, PlanSource::kCached);

  // Warm batch: every plan comes from the cache (nothing is planned), and
  // the view is shared.
  BatchStats warm;
  const auto second = evaluator.EvaluateBatch(jobs, &warm);
  EXPECT_EQ(warm.plan_hits, 9);
  EXPECT_EQ(opts.cache->stats().plan_misses, 2);
  EXPECT_EQ(warm.index_cache_hits, 1);
  EXPECT_EQ(warm.index_cache_misses, 0);
  EXPECT_EQ(second[0].plan_source, PlanSource::kCached);
  EXPECT_TRUE(second[0].plan_cached());

  // Warm answers are identical to cold ones and to ground truth.
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].answers == second[i].answers) << "job " << i;
    EXPECT_TRUE(second[i].answers == EvaluateNaive(jobs[i].query, db))
        << "job " << i;
  }

  const EvalCacheStats stats = opts.cache->stats();
  EXPECT_EQ(stats.plan_hits, 16);
  EXPECT_EQ(stats.index_hits, 1);
  EXPECT_EQ(stats.index_entries, 1);
}

TEST(EvalCacheTest, EvictsUnderBytePressureWithoutBreakingInFlightViews) {
  EvalCacheOptions options;
  options.max_index_bytes = 1;  // any built structure overflows the budget
  EvalCache cache(options);

  const Database db1 = GraphDb(4, {{0, 1}, {1, 2}, {2, 3}});
  const Database db2 = GraphDb(4, {{3, 2}, {2, 1}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  // Build a structure in db1's view so it has a nonzero footprint (the
  // trivial query alone may not need any index).
  const auto view1 = cache.AcquireIndexed(db1);
  ASSERT_NE(view1->Index(0, MaskOfPositions({0})), nullptr);
  const AnswerSet before = EvaluateNaive(q, *view1);
  EXPECT_EQ(before.size(), 3u);

  // Acquiring db2 makes db1's view the LRU victim.
  const auto view2 = cache.AcquireIndexed(db2);
  EXPECT_NE(view1.get(), view2.get());
  EvalCacheStats stats = cache.stats();
  EXPECT_GE(stats.index_evictions, 1);
  EXPECT_EQ(stats.index_entries, 1);  // only the MRU view survives

  // The evicted view is alive as long as we hold it, and still correct.
  const AnswerSet after = EvaluateNaive(q, *view1);
  EXPECT_TRUE(before == after);

  // Re-acquiring db1 is a miss now (the entry was evicted).
  bool hit = true;
  const auto rebuilt = cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(rebuilt.get(), view1.get());
  EXPECT_TRUE(EvaluateNaive(q, *rebuilt) == before);
}

TEST(EvalCacheTest, FactInsertionCatchesUpTheCachedViewInPlace) {
  auto cache = std::make_shared<EvalCache>();
  Database db = GraphDb(4, {{0, 1}, {1, 2}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = cache;
  const QueryService evaluator(opts);

  const auto cold = evaluator.EvaluateBatch({{q, &db}});
  EXPECT_EQ(cold[0].answers.size(), 2u);
  const auto view_before = cache->AcquireIndexed(db);

  // The database gains a fact: its version bumps but its id does not, so
  // the cache appends the delta to the existing view instead of rebuilding
  // — a single AddFact must cause zero index rebuilds (regression pin).
  const uint64_t version_before = db.version();
  db.AddFact(0, {2, 3});
  EXPECT_GT(db.version(), version_before);

  BatchStats stats;
  const auto warm = evaluator.EvaluateBatch({{q, &db}}, &stats);
  EXPECT_EQ(stats.index_cache_hits, 1);  // the caught-up view is a hit
  EXPECT_EQ(warm[0].answers.size(), 3u);
  EXPECT_TRUE(warm[0].answers.Contains({2, 3}));
  EXPECT_TRUE(warm[0].answers == EvaluateNaive(q, db));

  const auto view_after = cache->AcquireIndexed(db);
  EXPECT_EQ(view_after.get(), view_before.get());  // same view, appended
  EXPECT_GE(cache->stats().index_delta_appends, 1);
  EXPECT_EQ(cache->stats().index_rebuilds, 0);
}

TEST(EvalCacheTest, InvalidateDropsEntriesOfOneDatabase) {
  EvalCache cache;
  const Database db1 = GraphDb(3, {{0, 1}});
  const Database db2 = GraphDb(3, {{1, 2}});
  cache.AcquireIndexed(db1);
  cache.AcquireIndexed(db2);
  EXPECT_EQ(cache.stats().index_entries, 2);

  cache.Invalidate(db1);
  EXPECT_EQ(cache.stats().index_entries, 1);
  bool hit = false;
  cache.AcquireIndexed(db2, &hit);
  EXPECT_TRUE(hit);  // the other database's entry survives
  cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
}

TEST(EvalCacheTest, PlanLruEvictsBeyondEntryBound) {
  EvalCacheOptions options;
  options.max_plan_entries = 1;
  EvalCache cache(options);

  auto naive_plan = std::make_shared<PlanDecision>();
  naive_plan->kind = EngineKind::kNaive;
  cache.StorePlan({1}, naive_plan);
  auto tw_plan = std::make_shared<PlanDecision>();
  tw_plan->kind = EngineKind::kTreewidth;
  cache.StorePlan({2}, tw_plan);  // evicts key {1}

  EXPECT_EQ(cache.LookupPlan({1}), nullptr);
  const std::shared_ptr<const PlanDecision> out = cache.LookupPlan({2});
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->kind, EngineKind::kTreewidth);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.plan_evictions, 1);
  EXPECT_EQ(stats.plan_entries, 1);
}

// GetOrPlan is single-flight: a key's first caller plans, later callers
// hit, and only planner runs count as misses.
TEST(EvalCacheTest, GetOrPlanPlansEachKeyOnce) {
  EvalCache cache;
  int runs = 0;
  const auto plan_fn = [&] {
    ++runs;
    PlanDecision d;
    d.kind = EngineKind::kTreewidth;
    return d;
  };
  bool hit = true;
  const auto first = cache.GetOrPlan({7}, plan_fn, &hit);
  EXPECT_FALSE(hit);
  const auto again = cache.GetOrPlan({7}, plan_fn, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.LookupPlan({7}).get(), first.get());
  EXPECT_EQ(runs, 1);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.plan_misses, 1);
  EXPECT_EQ(stats.plan_hits, 2);
}

// A planner that throws must release its claim: the caller waiting on the
// same key wakes, plans itself, and succeeds, while the exception reaches
// the claimant.
TEST(EvalCacheTest, ThrowingPlannerWakesWaiterWhichThenPlans) {
  EvalCache cache;
  const std::vector<int> key = {42};
  std::promise<void> claimed;
  std::promise<void> fail;
  std::shared_future<void> fail_now = fail.get_future().share();

  std::thread claimant([&] {
    EXPECT_THROW(cache.GetOrPlan(key,
                                 [&]() -> PlanDecision {
                                   claimed.set_value();
                                   fail_now.wait();
                                   throw std::runtime_error("planner failed");
                                 }),
                 std::runtime_error);
  });
  claimed.get_future().wait();  // the claimant holds the key now

  std::shared_ptr<const PlanDecision> waited;
  bool hit = true;
  std::thread waiter([&] {
    waited = cache.GetOrPlan(
        key,
        [] {
          PlanDecision d;
          d.reason = "planned by the waiter";
          return d;
        },
        &hit);
  });
  // Give the waiter time to block on the claim, then let the claimant fail.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fail.set_value();
  claimant.join();
  waiter.join();

  ASSERT_NE(waited, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(waited->reason, "planned by the waiter");
  EXPECT_EQ(cache.LookupPlan(key).get(), waited.get());
  EXPECT_EQ(cache.stats().plan_misses, 2);  // two planner runs
}

// ---------------------------------------------------------------------------
// Streaming seam.

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
      w.jobs.push_back(
          {RandomCyclicGraphCQ(/*cycle_len=*/3, /*extra_atoms=*/2, &rng), db});
    } else {
      w.jobs.push_back({RandomGraphCQ(/*num_vars=*/2 + i % 4,
                                      /*num_atoms=*/3 + i % 3, &rng,
                                      /*num_free=*/i % 3),
                        db});
    }
  }
  return w;
}

TEST(StreamingTest, SubmitMatchesBlockingRun) {
  const Workload w = MakeWorkload(97, /*num_jobs=*/18);

  EvalOptions blocking;
  blocking.num_threads = 1;
  const auto reference = QueryService(blocking).EvaluateBatch(w.jobs);

  EvalOptions streaming;
  streaming.num_threads = 4;
  QueryService server(streaming);
  std::vector<std::future<EvalResponse>> futures;
  futures.reserve(w.jobs.size());
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));

  ASSERT_EQ(futures.size(), reference.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse result = futures[i].get();
    EXPECT_EQ(result.engine, reference[i].engine) << "job " << i;
    EXPECT_TRUE(result.answers == reference[i].answers) << "job " << i;
  }
  // Streaming went through a serving cache (the private fallback here).
  ASSERT_NE(server.serving_cache(), nullptr);
  const EvalCacheStats stats = server.serving_cache()->stats();
  EXPECT_GT(stats.plan_hits + stats.plan_misses, 0);
  server.Shutdown();
}

TEST(StreamingTest, SubmitSharesOneEvalCacheWithBatchRuns) {
  const Workload w = MakeWorkload(31337, /*num_jobs=*/12);

  EvalOptions opts;
  opts.num_threads = 2;
  opts.cache = std::make_shared<EvalCache>();
  QueryService evaluator(opts);

  // A blocking run warms the shared cache; streamed jobs then hit it.
  const auto reference = evaluator.EvaluateBatch(w.jobs);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(evaluator.Submit(job));
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse result = futures[i].get();
    EXPECT_TRUE(result.answers == reference[i].answers) << "job " << i;
    EXPECT_EQ(result.plan_source, PlanSource::kCached) << "job " << i;
  }
  EXPECT_EQ(evaluator.serving_cache(), opts.cache.get());
  EXPECT_GT(opts.cache->stats().index_hits, 0);
}

TEST(StreamingTest, DrainWaitsForAllSubmittedJobs) {
  const Workload w = MakeWorkload(7, /*num_jobs=*/9);
  EvalOptions opts;
  opts.num_threads = 3;
  QueryService server(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));
  server.Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(StreamingTest, ShutdownCompletesQueuedJobs) {
  const Workload w = MakeWorkload(13, /*num_jobs=*/9);
  EvalOptions blocking;
  blocking.num_threads = 1;
  const auto reference = QueryService(blocking).EvaluateBatch(w.jobs);

  EvalOptions opts;
  opts.num_threads = 2;
  QueryService server(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));
  server.Shutdown();  // no explicit Drain: queued jobs must still complete
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(futures[i].get().answers == reference[i].answers)
        << "job " << i;
  }
  server.Shutdown();  // idempotent
}

}  // namespace
}  // namespace cqa
