// Subscription concurrency: writer threads Publishing into a database while
// subscriber threads Poll their standing queries and a chaos thread pokes
// the service's other surfaces (StreamingStats, one mid-run Shutdown of a
// sibling service). Run under ThreadSanitizer in CI —
// the point is the locking seam (Publish and Poll serialize on the per-db
// write mutex; cache and view locks nest strictly inside), not throughput.
//
// Assertions are about soundness under interleaving, not timing:
//  - every tick is kOk/kCancelled/kTruncated etc. with a committed prefix —
//    a tick never reports answers the final database does not justify;
//  - after the writer joins, one final Poll on an unlimited subscription
//    catches up and its answers equal a from-scratch evaluation;
//  - a budget-limited subscription may stay behind forever (its ticks can
//    trip before a single fact commits) but its certain answers must be a
//    subset of the final exact answers.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "data/database.h"
#include "data/generators.h"
#include "eval/cache.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// Q(x0) :- E(x0, x1), E(x1, x2).
ConjunctiveQuery TwoPathQuery() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int first = q.AddVariables(3);
  q.AddAtom(0, {first, first + 1});
  q.AddAtom(0, {first + 1, first + 2});
  q.SetFreeVariables({first});
  return q;
}

struct RaceConfig {
  AnswerMode mode = AnswerMode::kExact;
  bool limited_subscriber = true;
};

void RunRace(const RaceConfig& cfg) {
  const int n = 60;
  Rng seed_rng(555);
  Database db = RandomDigraphDatabase(n, 0.02, &seed_rng);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);

  const ConjunctiveQuery query =
      cfg.mode == AnswerMode::kExact ? TwoPathQuery() : TriangleOutputCQ();

  std::unique_ptr<Subscription> unlimited =
      service.Subscribe({query, &db, cfg.mode});
  std::unique_ptr<Subscription> limited;
  if (cfg.limited_subscriber) {
    EvalRequest request{query, &db, cfg.mode};
    request.limits.max_nodes = 64;  // most ticks trip mid-search
    limited = service.Subscribe(std::move(request));
  }

  std::atomic<bool> writing{true};
  std::atomic<bool> chaos_on{true};

  // The facts present before any publish: a subscription's first tick
  // applies them too.
  const size_t initial_facts = static_cast<size_t>(db.NumFacts());
  std::thread writer([&] {
    Rng rng(1234);
    for (int i = 0; i < 400; ++i) {
      service.Publish(&db, 0,
                      Tuple{static_cast<Element>(rng.UniformInt(n)),
                            static_cast<Element>(rng.UniformInt(n))});
    }
    writing.store(false);
  });

  auto poller = [&](Subscription* sub) {
    while (writing.load()) {
      const SubscriptionDelta tick = sub->Poll();
      // Every tick reports a committed prefix; in particular a tick never
      // claims to have applied more facts than it saw.
      EXPECT_LE(tick.facts_applied, initial_facts + 400u);
    }
  };
  std::thread sub_a(poller, unlimited.get());
  std::thread sub_b;
  if (limited) sub_b = std::thread(poller, limited.get());

  // The chaos thread exercises service surfaces that must be safe against
  // concurrent Publish/Poll. It never evaluates against `db` itself (reads
  // of a database racing its writer are out of contract); it runs its own
  // sibling service on a private database and shuts it down mid-race.
  std::thread chaos([&] {
    Rng rng(777);
    Database private_db = RandomDigraphDatabase(20, 0.1, &rng);
    int round = 0;
    while (chaos_on.load()) {
      (void)service.StreamingStats();
      if (round == 3) {
        EvalOptions sibling_opts;
        sibling_opts.num_threads = 2;
        QueryService sibling(sibling_opts);
        (void)sibling.Evaluate({TwoPathQuery(), &private_db});
        sibling.Shutdown();
      }
      ++round;
      std::this_thread::yield();
    }
  });

  writer.join();
  std::this_thread::yield();
  chaos_on.store(false);
  sub_a.join();
  if (sub_b.joinable()) sub_b.join();
  chaos.join();

  // Quiescent convergence: with the writer gone, the unlimited subscription
  // catches up in one tick and matches from-scratch evaluation.
  const SubscriptionDelta final_tick = unlimited->Poll();
  ASSERT_EQ(final_tick.status, ResponseStatus::kOk);
  EXPECT_TRUE(unlimited->caught_up());
  const EvalResponse fresh = service.Evaluate({query, &db, cfg.mode});
  ASSERT_EQ(fresh.status, ResponseStatus::kOk);
  switch (cfg.mode) {
    case AnswerMode::kExact:
    case AnswerMode::kUnderApproximate:
      EXPECT_TRUE(unlimited->answers() == fresh.answers);
      break;
    case AnswerMode::kOverApproximate:
      EXPECT_TRUE(unlimited->over_valid());
      EXPECT_TRUE(unlimited->possible() == fresh.answers);
      break;
    case AnswerMode::kBounds:
      ASSERT_TRUE(fresh.bounds.has_value());
      EXPECT_TRUE(unlimited->answers() == fresh.bounds->under);
      EXPECT_TRUE(unlimited->over_valid());
      EXPECT_TRUE(unlimited->possible() == fresh.bounds->over);
      break;
  }
  if (cfg.mode == AnswerMode::kExact) {
    EXPECT_TRUE(unlimited->answers() == EvaluateNaive(query, db));
  }

  // The limited subscription may never have committed a single fact, but
  // whatever it holds must be sound: a subset of the exact/under side.
  if (limited) {
    const AnswerSet exact_side = cfg.mode == AnswerMode::kOverApproximate
                                     ? unlimited->possible()
                                     : unlimited->answers();
    EXPECT_TRUE(limited->answers().IsSubsetOf(exact_side));
  }
}

TEST(SubscriptionRaceTest, ExactModeWriterVsPollers) {
  RunRace({AnswerMode::kExact, /*limited_subscriber=*/true});
}

TEST(SubscriptionRaceTest, BoundsModeWriterVsPollers) {
  RunRace({AnswerMode::kBounds, /*limited_subscriber=*/false});
}

TEST(SubscriptionRaceTest, OverModeWriterVsPollers) {
  RunRace({AnswerMode::kOverApproximate, /*limited_subscriber=*/false});
}

// Two writer threads on the same database: Publish serializes them on the
// per-db write mutex, so every fact lands exactly once and the maintained
// answers still converge.
TEST(SubscriptionRaceTest, TwoWritersOneSubscriber) {
  const int n = 40;
  Rng seed_rng(99);
  Database db = RandomDigraphDatabase(n, 0.02, &seed_rng);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);
  std::unique_ptr<Subscription> sub = service.Subscribe({TwoPathQuery(), &db});

  std::atomic<bool> writing{true};
  std::atomic<long long> inserted{0};
  auto writer = [&](int seed) {
    Rng rng(seed);
    long long mine = 0;
    for (int i = 0; i < 200; ++i) {
      if (service.Publish(&db, 0,
                          Tuple{static_cast<Element>(rng.UniformInt(n)),
                                static_cast<Element>(rng.UniformInt(n))})) {
        ++mine;
      }
    }
    inserted.fetch_add(mine);
  };
  std::thread w1(writer, 17);
  std::thread w2(writer, 18);
  std::thread poller([&] {
    while (writing.load()) (void)sub->Poll();
  });

  w1.join();
  w2.join();
  writing.store(false);
  poller.join();

  const SubscriptionDelta final_tick = sub->Poll();
  ASSERT_EQ(final_tick.status, ResponseStatus::kOk);
  EXPECT_TRUE(sub->caught_up());
  EXPECT_TRUE(sub->answers() == EvaluateNaive(TwoPathQuery(), db));
}

}  // namespace
}  // namespace cqa
