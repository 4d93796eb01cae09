// Incremental maintenance: per-mutation cost of a standing query maintained
// through QueryService subscriptions (delta evaluation + index catch-up,
// ~O(delta) per inserted fact) versus the rebuild baseline (a fresh index
// view and a full re-evaluation per mutation, ~O(db)). The first series
// gates the ratio — quick mode requires the delta path to be at least 10x
// cheaper per mutation — and checks the maintained answers stay byte-equal
// to a from-scratch evaluation after every batch of mutations. The second
// series runs the same mutation stream through subscriptions in all four
// AnswerModes on width-over-budget queries (the approximation sandwich is
// monotone, so bounds are maintainable too) and diffs the final maintained
// state against fresh full evaluations. Pass --quick for the CI smoke run
// and --csv <path> for a machine-readable mirror. Exits nonzero on any
// divergence or a missed ratio gate.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "data/generators.h"
#include "eval/cache.h"
#include "eval/service.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

bool g_all_ok = true;

// Q(x0) :- E(x0, x1), ..., E(x{len-1}, xlen).
ConjunctiveQuery PathQuery(int len) {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int first = q.AddVariables(len + 1);
  for (int i = 0; i < len; ++i) q.AddAtom(0, {first + i, first + i + 1});
  q.SetFreeVariables({first});
  return q;
}

// Q(x) :- E(x,y), E(y,z), E(z,u), E(u,x): the 4-cycle, width 2 — over a
// width budget of 1 the planner must approximate.
ConjunctiveQuery FourCycleQuery() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariables(4);
  for (int i = 0; i < 4; ++i) q.AddAtom(0, {x + i, x + (i + 1) % 4});
  q.SetFreeVariables({x});
  return q;
}

// One random (possibly duplicate) edge; duplicates exercise the no-op
// Publish path.
Tuple RandomEdge(int n, Rng* rng) {
  return Tuple{static_cast<Element>(rng->UniformInt(n)),
               static_cast<Element>(rng->UniformInt(n))};
}

// The headline series: one standing query, M single-fact mutations. The
// delta path pays Publish + Poll (index catch-up + seeded delta search);
// the baseline pays what serving without incremental maintenance pays — a
// fresh index view and a full evaluation of the updated database. Both run
// the identical mutation stream on twin databases; answers must agree with
// a from-scratch evaluation at every checkpoint and at the end.
void RunMaintenanceGate(bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("maintenance");
  std::printf(
      "Per-mutation maintenance: subscription delta ticks vs full rebuild\n"
      "(fresh view + full re-evaluation) on twin databases, same mutation\n"
      "stream. Quick-mode gate: delta must be >= 10x cheaper.\n\n");

  Rng rng(20260808);
  const int n = quick ? 3000 : 8000;
  Database live = RandomDigraphDatabase(n, 4.0 / n, &rng);
  Database twin = live;  // same content, mutated in lockstep

  const ConjunctiveQuery query = PathQuery(2);

  // Delta side: one service + shared cache; the subscription's Polls ride
  // the cache's catch-up path (views appended in place, never rebuilt).
  EvalOptions delta_opts;
  delta_opts.num_threads = 1;
  delta_opts.cache = std::make_shared<EvalCache>();
  QueryService delta_service(delta_opts);
  std::unique_ptr<Subscription> sub =
      delta_service.Subscribe({query, &live});
  const SubscriptionDelta first = sub->Poll();  // baseline tick (full eval)
  g_all_ok &= first.reinitialized && first.caught_up;

  // Rebuild side: a fresh service, and with it a fresh cache, per
  // evaluation — every Evaluate builds its view from scratch, the
  // pre-incremental serving cost.
  EvalOptions rebuild_opts;
  rebuild_opts.num_threads = 1;

  const int mutations = quick ? 40 : 200;
  double delta_ms = 0.0, rebuild_ms = 0.0;
  long long delta_facts = 0;
  AnswerSet rebuilt = AnswerSet(0);
  for (int m = 0; m < mutations; ++m) {
    const Tuple edge = RandomEdge(n, &rng);
    SubscriptionDelta tick;
    delta_ms += bench::TimeMs([&] {
      delta_service.Publish(&live, 0, edge);
      tick = sub->Poll();
    });
    g_all_ok &= tick.status == ResponseStatus::kOk && tick.caught_up;
    delta_facts += tick.eval.delta_facts;
    rebuild_ms += bench::TimeMs([&] {
      twin.AddFact(0, edge);
      rebuilt = QueryService(rebuild_opts).Evaluate({query, &twin}).answers;
    });
  }

  // Divergence check: the maintained answers vs the final full rebuild —
  // and vs a from-scratch evaluation of the live database itself.
  const AnswerSet maintained = sub->answers();
  const AnswerSet scratch =
      QueryService(rebuild_opts).Evaluate({query, &live}).answers;
  const bool identical = maintained == scratch && maintained == rebuilt;
  g_all_ok &= identical;

  const double per_delta = delta_ms / mutations;
  const double per_rebuild = rebuild_ms / mutations;
  const double ratio = per_delta > 1e-9 ? per_rebuild / per_delta : 0.0;
  bench::PrintRow({"path", "muts", "delta_ms/mut", "rebuild_ms/mut", "ratio",
                   "delta_facts", "identical"},
                  15);
  bench::PrintRule(7, 15);
  bench::PrintRow({"delta_vs_rebuild", Fmt(mutations), Fmt(per_delta),
                   Fmt(per_rebuild), Fmt(ratio), Fmt(delta_facts),
                   identical ? "yes" : "NO"},
                  15);

  const EvalCacheStats cache_stats = delta_opts.cache->stats();
  std::printf(
      "\ncache after series: delta_appends=%lld rebuilds=%lld "
      "(catch-up must carry the series)\n",
      cache_stats.index_delta_appends, cache_stats.index_rebuilds);
  if (cache_stats.index_rebuilds != 0) {
    std::fprintf(stderr,
                 "FAILED: subscription ticks triggered %lld full index "
                 "rebuilds (expected 0)\n",
                 cache_stats.index_rebuilds);
    g_all_ok = false;
  }
  if (ratio < 10.0) {
    std::fprintf(stderr,
                 "FAILED: per-mutation maintenance only %.2fx cheaper than "
                 "rebuild (gate: >= 10x)\n",
                 ratio);
    g_all_ok = false;
  }
}

// All four AnswerModes under the same mutation stream: exact plans and
// width-over-budget approximated plans (width budget 1), each maintained by
// a subscription and diffed against a fresh full evaluation at the end.
void RunModeSweep(bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("modes");
  std::printf(
      "\nAll four AnswerModes under mutation (width budget 1: bounds and\n"
      "approximate modes maintain synthesized rewrites). Final maintained\n"
      "state must equal a fresh full evaluation.\n\n");

  Rng rng(20260809);
  const int n = quick ? 600 : 2000;

  struct ModeCase {
    const char* label;
    AnswerMode mode;
    ConjunctiveQuery query;
  };
  const std::vector<ModeCase> cases = {
      {"exact", AnswerMode::kExact, PathQuery(2)},
      {"under", AnswerMode::kUnderApproximate, FourCycleQuery()},
      {"over", AnswerMode::kOverApproximate, FourCycleQuery()},
      {"bounds", AnswerMode::kBounds, TriangleOutputCQ()},
  };

  bench::PrintRow({"mode", "muts", "ticks_ms", "certain", "possible",
                   "approx", "identical"},
                  12);
  bench::PrintRule(7, 12);

  for (const ModeCase& c : cases) {
    Database db = RandomDigraphDatabase(n, 5.0 / n, &rng);

    EvalOptions opts;
    opts.num_threads = 1;
    opts.planner.width_budget = 1;
    opts.cache = std::make_shared<EvalCache>();
    QueryService service(opts);

    std::unique_ptr<Subscription> sub =
        service.Subscribe({c.query, &db, c.mode});
    sub->Poll();

    const int mutations = quick ? 25 : 100;
    double tick_ms = 0.0;
    for (int m = 0; m < mutations; ++m) {
      const Tuple edge = RandomEdge(n, &rng);
      SubscriptionDelta tick;
      tick_ms += bench::TimeMs([&] {
        service.Publish(&db, 0, edge);
        tick = sub->Poll();
      });
      g_all_ok &= tick.status == ResponseStatus::kOk && tick.caught_up;
    }

    // Fresh full evaluation in the same mode, same options.
    const EvalResponse fresh = service.Evaluate({c.query, &db, c.mode});
    const AnswerSet certain = sub->answers();
    const AnswerSet possible = sub->possible();
    bool identical = false;
    switch (c.mode) {
      case AnswerMode::kExact:
      case AnswerMode::kUnderApproximate:
        identical = certain == fresh.answers;
        break;
      case AnswerMode::kOverApproximate:
        identical = sub->over_valid() && possible == fresh.answers;
        break;
      case AnswerMode::kBounds:
        identical = fresh.bounds.has_value() &&
                    certain == fresh.bounds->under && sub->over_valid() &&
                    possible == fresh.bounds->over;
        break;
    }
    g_all_ok &= identical;
    bench::PrintRow({c.label, Fmt(mutations), Fmt(tick_ms),
                     Fmt(static_cast<long long>(certain.size())),
                     Fmt(static_cast<long long>(possible.size())),
                     sub->plan().approximate ? "yes" : "no",
                     identical ? "yes" : "NO"},
                    12);
  }
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  const bool quick = cqa::bench::QuickMode(argc, argv);
  cqa::bench::InitCsv(argc, argv);
  std::printf("Incremental maintenance: delta ticks vs rebuild (%s mode)\n\n",
              quick ? "quick" : "full");

  cqa::RunMaintenanceGate(quick);
  cqa::RunModeSweep(quick);
  cqa::bench::CloseCsv();
  if (!cqa::g_all_ok) {
    std::fprintf(stderr,
                 "FAILED: delta-vs-scratch divergence, an interrupted tick, "
                 "or a missed maintenance-cost gate\n");
    return 1;
  }
  return 0;
}
