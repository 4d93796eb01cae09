// Resource limits and cooperative cancellation (eval/eval_context.h) across
// the serving stack: deadlines, cancel flags, node and answer budgets must
// stop evaluation promptly in every engine and every AnswerMode — and an
// interrupted response must be *soundly partial*: its
// answers (and bounds->under) a subset of Q(D), never reported exact, with
// the over side flagged invalid. The streaming seam adds admission control:
// Submit after Shutdown and on a full queue returns failed futures (never a
// crash), queue pressure degrades kExact to kBounds before rejecting, and a
// request's deadline clock starts at Submit so queue wait counts.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/engine.h"
#include "eval/eval_context.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// Small enough that unbounded exact evaluation is instant (the ground truth
// for soundness checks), big enough that a microsecond deadline trips first.
Database SmallDenseDb(int n = 24, unsigned seed = 77) {
  Rng rng(seed);
  return RandomDigraphDatabase(n, 0.4, &rng, /*allow_loops=*/true);
}

// A deadline that has always already expired by the first poll.
EvalLimits ExpiredDeadline() {
  EvalLimits limits;
  limits.deadline_ms = 1e-6;
  return limits;
}

// TriangleOutputCQ projects to (x, z): a reported pair is genuine iff
// E(z,x) holds and some y closes the triangle — direct membership checking
// for databases too explosive to evaluate exactly.
bool IsTrianglePair(const Database& db, const Tuple& t) {
  if (!db.HasFact(0, {t[1], t[0]})) return false;
  for (const Tuple& e : db.facts(0)) {
    if (e[0] == t[0] && db.HasFact(0, {e[1], t[1]})) return true;
  }
  return false;
}

// Every tuple of an interrupted response must be a genuine answer; in
// kBounds the over side must be flagged invalid and the under side sound.
void ExpectSoundlyPartial(const EvalResponse& r, const AnswerSet& exact) {
  EXPECT_NE(r.status, ResponseStatus::kOk);
  EXPECT_FALSE(r.exact);
  if (r.mode != AnswerMode::kOverApproximate) {
    EXPECT_TRUE(r.answers.IsSubsetOf(exact));
  }
  if (r.bounds.has_value()) {
    EXPECT_FALSE(r.bounds->over_valid);
    EXPECT_TRUE(r.bounds->under.IsSubsetOf(exact));
  }
}

// ---------------------------------------------------------------------------
// The matrix: engines x modes.

// Each engine, on the scan and the indexed path, stops at an expired
// deadline with a sound partial result; the star shape is acyclic, so
// Yannakakis supports it.
TEST(CancelMatrixTest, ExpiredDeadlineAcrossEngines) {
  const Database db = SmallDenseDb();
  const IndexedDatabase view(db);
  const ConjunctiveQuery q = StarCQ(2);
  const AnswerSet exact = EvaluateNaive(q, db);
  ASSERT_FALSE(exact.empty());

  for (const EngineKind kind : {EngineKind::kNaive, EngineKind::kYannakakis,
                                EngineKind::kTreewidth}) {
    const std::unique_ptr<Engine> engine = MakeEngine(kind);
    for (const bool indexed : {false, true}) {
      const EvalContext ctx(ExpiredDeadline());
      const AnswerSet partial =
          indexed ? engine->Evaluate(q, view, /*stats=*/nullptr, &ctx)
                  : engine->Evaluate(q, db, /*stats=*/nullptr, &ctx);
      EXPECT_EQ(ctx.status(), ResponseStatus::kDeadlineExceeded)
          << EngineKindName(kind) << (indexed ? " indexed" : " scan");
      EXPECT_TRUE(partial.IsSubsetOf(exact)) << EngineKindName(kind);
    }
    // The same engine without limits is exact: limits never leak.
    EXPECT_TRUE(engine->Evaluate(q, view) == exact) << EngineKindName(kind);
  }

  // Through the service, the request stops before planning.
  EvalOptions opts;
  opts.num_threads = 1;
  const QueryService service(opts);
  EvalRequest request{q, &db};
  request.limits = ExpiredDeadline();
  BatchStats stats;
  const auto results = service.EvaluateBatch({request}, &stats);
  EXPECT_EQ(results[0].status, ResponseStatus::kDeadlineExceeded);
  ExpectSoundlyPartial(results[0], exact);
  EXPECT_EQ(stats.stopped_jobs, 1);
  const EvalResponse full = service.Evaluate({q, &db});
  EXPECT_EQ(full.status, ResponseStatus::kOk);
  EXPECT_TRUE(full.exact);
  EXPECT_TRUE(full.answers == exact);
}

// All four AnswerModes, on a cyclic width-over-budget query so the
// approximate modes take the rewrite path.
TEST(CancelMatrixTest, ExpiredDeadlineAcrossAnswerModes) {
  const Database db = SmallDenseDb();
  const ConjunctiveQuery q = TriangleOutputCQ();
  const AnswerSet exact = EvaluateNaive(q, db);

  for (const AnswerMode mode :
       {AnswerMode::kExact, AnswerMode::kUnderApproximate,
        AnswerMode::kOverApproximate, AnswerMode::kBounds}) {
    EvalOptions opts;
    opts.num_threads = 1;
    opts.planner.width_budget = 1;  // triangle is width 2: approximate
    const QueryService service(opts);

    EvalRequest request{q, &db, mode};
    request.limits = ExpiredDeadline();
    const EvalResponse r = service.Evaluate(request);
    EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded)
        << "mode " << static_cast<int>(mode);
    ExpectSoundlyPartial(r, exact);
    EXPECT_EQ(r.bounds.has_value(), mode == AnswerMode::kBounds);
  }
}

// A pre-set cancel flag stops the request before any search: kCancelled,
// empty-but-sound results, and (being never planned) a recorded reason.
TEST(CancelMatrixTest, PresetCancelFlagShortCircuits) {
  const Database db = SmallDenseDb();
  const CancelFlag cancel = MakeCancelFlag();
  cancel->store(true);

  EvalRequest request{TriangleOutputCQ(), &db, AnswerMode::kBounds};
  request.cancel = cancel;
  const EvalResponse r = QueryService().Evaluate(request);
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_TRUE(r.bounds.has_value());
  EXPECT_FALSE(r.bounds->over_valid);
  EXPECT_TRUE(r.bounds->under.empty());
}

// ---------------------------------------------------------------------------
// Budgets.

TEST(BudgetTest, NodeBudgetTruncates) {
  const Database db = SmallDenseDb();
  const ConjunctiveQuery q = TriangleOutputCQ();
  const AnswerSet exact = EvaluateNaive(q, db);

  EvalRequest request{q, &db};
  request.limits.max_nodes = 1;
  const EvalResponse r = QueryService().Evaluate(request);
  EXPECT_EQ(r.status, ResponseStatus::kTruncated);
  ExpectSoundlyPartial(r, exact);
}

TEST(BudgetTest, AnswerBudgetCapsMaterialization) {
  const Database db = SmallDenseDb();
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  const AnswerSet exact = EvaluateNaive(q, db);
  ASSERT_GT(exact.size(), 5u);

  EvalRequest request{q, &db};
  request.limits.max_answers = 5;
  const EvalResponse r = QueryService().Evaluate(request);
  EXPECT_EQ(r.status, ResponseStatus::kTruncated);
  EXPECT_EQ(r.answers.size(), 5u);
  ExpectSoundlyPartial(r, exact);

  // A budget the query fits inside never trips.
  request.limits.max_answers = static_cast<long long>(exact.size()) + 1;
  const EvalResponse roomy = QueryService().Evaluate(request);
  EXPECT_EQ(roomy.status, ResponseStatus::kOk);
  EXPECT_TRUE(roomy.answers == exact);
}

// Service-wide defaults apply to every request; a request's own nonzero
// fields override them field by field (EvalLimits::Merge).
TEST(BudgetTest, RequestLimitsOverrideServiceDefaults) {
  const Database db = SmallDenseDb();
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  const AnswerSet exact = EvaluateNaive(q, db);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.limits.max_answers = 3;
  const QueryService service(opts);

  const EvalResponse capped = service.Evaluate({q, &db});
  EXPECT_EQ(capped.status, ResponseStatus::kTruncated);
  EXPECT_EQ(capped.answers.size(), 3u);

  EvalRequest roomy{q, &db};
  roomy.limits.max_answers = static_cast<long long>(exact.size()) + 1;
  const EvalResponse r = service.Evaluate(roomy);
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_TRUE(r.answers == exact);
}

// ---------------------------------------------------------------------------
// The headline latency property: an explosive query that would grind for a
// very long time unbounded comes back promptly under a deadline, carrying
// only genuine answers. (Scan-path triangle enumeration on a dense graph is
// cubic in the fact count — far beyond any test budget without the limit.)
TEST(DeadlineTest, ExplosiveQueryReturnsPromptlyAndSoundly) {
  Rng rng(123);
  const Database db =
      RandomDigraphDatabase(100, 0.5, &rng, /*allow_loops=*/true);
  const ConjunctiveQuery q = TriangleOutputCQ();

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;  // force the scan path: no index shortcuts
  const QueryService service(opts);

  EvalRequest request{q, &db};
  request.limits.deadline_ms = 10.0;
  const auto start = std::chrono::steady_clock::now();
  const EvalResponse r = service.Evaluate(request);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.exact);
  // Generous CI slack; the poll interval bounds overshoot to microseconds.
  EXPECT_LT(elapsed_ms, 1000.0);
  // Soundness without an (unaffordable) exact run: every reported pair
  // must be witnessed by a real triangle.
  for (const Tuple& t : r.answers.tuples()) {
    EXPECT_TRUE(IsTrianglePair(db, t));
  }
}

// A deadline further out than steady_clock can represent (1e13 ms is about
// 317 years) saturates to no deadline instead of overflowing into one that
// has already passed.
TEST(DeadlineTest, UnrepresentableDeadlineActsAsNone) {
  for (const double ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    EvalLimits limits;
    limits.deadline_ms = ms;
    const EvalContext ctx(limits);
    EXPECT_FALSE(ctx.Interrupted()) << ms;
    EXPECT_TRUE(ctx.ok()) << ms;
  }
}

// Mid-search cancellation through the streaming seam: the worker is deep in
// an effectively unbounded search when the flag flips; the future must
// complete promptly with kCancelled and sound partial answers.
TEST(DeadlineTest, MidSearchCancelStopsStreamingRequest) {
  Rng rng(321);
  const Database db =
      RandomDigraphDatabase(100, 0.5, &rng, /*allow_loops=*/true);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;
  QueryService service(opts);

  const CancelFlag cancel = MakeCancelFlag();
  EvalRequest request{TriangleOutputCQ(), &db};
  request.cancel = cancel;
  std::future<EvalResponse> future = service.Submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancel->store(true);

  const EvalResponse r = future.get();
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);
  EXPECT_FALSE(r.exact);
  for (const Tuple& t : r.answers.tuples()) {
    EXPECT_TRUE(IsTrianglePair(db, t));
  }
  // The future is fulfilled before the worker's bookkeeping; Drain
  // synchronizes with the counter update.
  service.Drain();
  EXPECT_GE(service.StreamingStats().stopped_jobs, 1);
  service.Shutdown();
}

// The deadline is armed at Submit, so time spent queued behind a slow
// request counts: by the time the worker reaches the second request its
// deadline has lapsed and it returns unplanned.
TEST(DeadlineTest, QueueWaitCountsAgainstDeadline) {
  Rng rng(99);
  const Database db =
      RandomDigraphDatabase(100, 0.5, &rng, /*allow_loops=*/true);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;
  QueryService service(opts);

  const CancelFlag blocker_cancel = MakeCancelFlag();
  EvalRequest blocker{TriangleOutputCQ(), &db};
  blocker.cancel = blocker_cancel;
  std::future<EvalResponse> blocked = service.Submit(blocker);

  EvalRequest hurried{EdgeEnumerationCQ(), &db};
  hurried.limits.deadline_ms = 5.0;
  std::future<EvalResponse> future = service.Submit(hurried);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  blocker_cancel->store(true);

  const EvalResponse r = future.get();
  EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_NE(r.plan.reason.find("already stopped"), std::string::npos);
  blocked.get();
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, SubmitAfterShutdownReturnsFailedFuture) {
  const Database db = SmallDenseDb();
  QueryService service;
  service.Submit({EdgeEnumerationCQ(), &db}).get();
  service.Shutdown();

  std::future<EvalResponse> rejected =
      service.Submit({EdgeEnumerationCQ(), &db});
  ASSERT_TRUE(rejected.valid());
  try {
    rejected.get();
    FAIL() << "expected SubmitRejectedError";
  } catch (const SubmitRejectedError& e) {
    EXPECT_EQ(e.reason(), SubmitRejectedError::Reason::kShutdown);
  }
}

// Submitters racing Shutdown: every future must resolve — either with a
// response or with SubmitRejectedError{kShutdown} — never a crash or hang.
TEST(AdmissionTest, SubmitShutdownRaceNeverDropsAFuture) {
  const Database db = SmallDenseDb(10, 5);
  QueryService service;
  std::vector<std::future<EvalResponse>> futures;
  std::mutex futures_mu;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto f = service.Submit({EdgeEnumerationCQ(), &db});
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Shutdown();
  for (std::thread& t : submitters) t.join();

  int served = 0, rejected = 0;
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    try {
      const EvalResponse r = f.get();
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      ++served;
    } catch (const SubmitRejectedError& e) {
      EXPECT_EQ(e.reason(), SubmitRejectedError::Reason::kShutdown);
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, 100);
}

// Overload shedding: with the single worker pinned by a slow request, the
// queue backs up; above the degrade threshold incoming kExact requests are
// served as kBounds, and at max_queue submissions are rejected outright.
TEST(AdmissionTest, OverloadDegradesThenRejects) {
  Rng rng(55);
  const Database big =
      RandomDigraphDatabase(100, 0.5, &rng, /*allow_loops=*/true);
  const Database small = SmallDenseDb(10, 5);
  const AnswerSet small_exact = EvaluateNaive(EdgeEnumerationCQ(), small);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;
  opts.max_queue = 3;
  opts.degrade_queue = 1;
  QueryService service(opts);

  const CancelFlag blocker_cancel = MakeCancelFlag();
  EvalRequest blocker{TriangleOutputCQ(), &big};
  blocker.cancel = blocker_cancel;
  std::future<EvalResponse> blocked = service.Submit(blocker);
  // Let the worker dequeue the blocker so the queue length is deterministic.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Queue 0 -> admitted as-is; queues 1 and 2 -> degraded; queue 3 -> full.
  std::vector<std::future<EvalResponse>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(service.Submit({EdgeEnumerationCQ(), &small}));
  }
  std::future<EvalResponse> overflow =
      service.Submit({EdgeEnumerationCQ(), &small});
  try {
    overflow.get();
    FAIL() << "expected SubmitRejectedError";
  } catch (const SubmitRejectedError& e) {
    EXPECT_EQ(e.reason(), SubmitRejectedError::Reason::kQueueFull);
  }

  blocker_cancel->store(true);
  service.Drain();

  const EvalResponse first = admitted[0].get();
  EXPECT_FALSE(first.degraded);
  EXPECT_EQ(first.mode, AnswerMode::kExact);
  EXPECT_TRUE(first.answers == small_exact);
  for (int i = 1; i < 3; ++i) {
    const EvalResponse r = admitted[i].get();
    EXPECT_TRUE(r.degraded) << "request " << i;
    EXPECT_EQ(r.mode, AnswerMode::kBounds);
    ASSERT_TRUE(r.bounds.has_value());
    // The shape is in budget, so the degraded answer is still the truth —
    // just delivered as a (collapsed) sandwich instead of a promise of
    // exactness.
    EXPECT_TRUE(r.bounds->under == small_exact);
    EXPECT_TRUE(r.bounds->tight());
  }

  const BatchStats stats = service.StreamingStats();
  EXPECT_EQ(stats.shed_degraded, 2);
  EXPECT_EQ(stats.shed_rejected, 1);
  EXPECT_GE(stats.stopped_jobs, 1);  // the cancelled blocker
  EXPECT_EQ(stats.jobs, 4);          // blocker + three admitted
  blocked.get();
  service.Shutdown();
}

}  // namespace
}  // namespace cqa
