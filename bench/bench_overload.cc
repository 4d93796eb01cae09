// Deadlines and overload shedding through QueryService: the serving stack
// must stay responsive when queries are explosive and when callers outpace
// the workers. Two series, both checked (exit nonzero on violation):
//
//  1. Deadline: an explosive cyclic query (scan-path triangle enumeration,
//     superlinear in the fact count) under a 10 ms deadline must come back
//     kDeadlineExceeded within 50 ms wall — the cooperative poll interval
//     bounds overshoot to microseconds — carrying only genuine answers
//     (sound partial bounds), while the unbounded run completes exactly.
//
//  2. Overload: a single-worker service flooded through Submit with a
//     bounded queue must degrade kExact requests to kBounds (the paper's
//     sandwich as load management) before rejecting outright, every
//     accepted future must resolve with correct answers, and the
//     shed_degraded / shed_rejected counters must account for every
//     submission. The series also reports per-request latency quantiles
//     (p50_ms / p99_ms, submit-to-completion over the served requests) so
//     the queueing behavior under flood is gated by check_bench.py, not
//     just the aggregate flood/drain walls.
//
// Pass --quick for the CI smoke run and --csv <path> to mirror the tables
// (archived as overload.csv in the bench-baselines artifact).

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "data/generators.h"
#include "eval/eval_context.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

bool g_all_ok = true;

// TriangleOutputCQ projects to (x, z): a reported pair is genuine iff
// E(z,x) holds and some y closes the triangle. Direct membership checking —
// soundness without needing a second (expensive) exact run.
bool IsTrianglePair(const Database& db, const Tuple& t) {
  if (!db.HasFact(0, {t[1], t[0]})) return false;
  for (const Tuple& e : db.facts(0)) {
    if (e[0] == t[0] && db.HasFact(0, {e[1], t[1]})) return true;
  }
  return false;
}

bool AllGenuineTriangles(const AnswerSet& answers, const Database& db) {
  for (const Tuple& t : answers.tuples()) {
    if (!IsTrianglePair(db, t)) return false;
  }
  return true;
}

// Series 1: the explosive query under a deadline vs unbounded.
void RunDeadline(const Database& db) {
  using bench::Fmt;
  bench::SetCsvSection("deadline");
  std::printf(
      "Explosive cyclic query (scan-path triangle enumeration) under a\n"
      "deadline: prompt kDeadlineExceeded with sound partial answers.\n\n");
  bench::PrintRow({"run", "wall_ms", "status", "answers", "sound"}, 14);
  bench::PrintRule(5, 14);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;  // scans make the work genuinely explosive
  const QueryService service(opts);
  const ConjunctiveQuery q = TriangleOutputCQ();

  EvalResponse full;
  const double full_ms =
      bench::TimeMs([&] { full = service.Evaluate({q, &db}); });
  const bool full_sound = AllGenuineTriangles(full.answers, db);
  g_all_ok &= full.status == ResponseStatus::kOk && full.exact && full_sound;
  bench::PrintRow({"unbounded", Fmt(full_ms), ResponseStatusName(full.status),
                   Fmt(static_cast<long long>(full.answers.size())),
                   full_sound ? "yes" : "NO"},
                  14);

  EvalRequest limited{q, &db, AnswerMode::kBounds};
  limited.limits.deadline_ms = 10.0;
  EvalResponse partial;
  const double partial_ms =
      bench::TimeMs([&] { partial = service.Evaluate(limited); });
  const bool sound = partial.bounds.has_value() &&
                     !partial.bounds->over_valid &&
                     partial.bounds->under.IsSubsetOf(full.answers);
  if (partial.status != ResponseStatus::kDeadlineExceeded || partial.exact) {
    std::fprintf(stderr, "FAILED: 10ms deadline returned status %s\n",
                 ResponseStatusName(partial.status));
    g_all_ok = false;
  }
  if (partial_ms >= 50.0) {
    std::fprintf(stderr,
                 "FAILED: 10ms deadline took %.2f ms wall (budget 50 ms)\n",
                 partial_ms);
    g_all_ok = false;
  }
  if (!sound) {
    std::fprintf(stderr, "FAILED: partial bounds are not soundly partial\n");
    g_all_ok = false;
  }
  bench::PrintRow(
      {"deadline_10ms", Fmt(partial_ms), ResponseStatusName(partial.status),
       Fmt(static_cast<long long>(partial.answers.size())),
       sound ? "yes" : "NO"},
      14);
}

// Series 2: flood a single worker through Submit with a bounded queue.
void RunOverload(const Database& db, bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("overload");
  std::printf(
      "\nOverload shedding (1 worker, max_queue=8): kExact degrades to\n"
      "kBounds under queue pressure, then the queue refuses outright.\n\n");

  const ConjunctiveQuery q = StarCQ(2);
  const AnswerSet exact = EvaluateNaive(q, db);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.engine.use_index = false;  // each request costs real worker time
  opts.max_queue = 8;             // degrade threshold derives to 4
  QueryService service(opts);

  const int submissions = quick ? 48 : 96;
  std::vector<std::future<EvalResponse>> futures;
  std::vector<std::chrono::steady_clock::time_point> submit_at;
  long long rejected = 0;
  const double flood_ms = bench::TimeMs([&] {
    for (int i = 0; i < submissions; ++i) {
      futures.push_back(service.Submit({q, &db}));
      submit_at.push_back(std::chrono::steady_clock::now());
    }
  });

  // Per-request latency (submit to completion): with one FIFO worker the
  // completion order is the submission order, so waiting the futures in
  // order stamps each get() at ~the moment the worker finished that
  // request. Rejected submissions fail fast and carry no service latency.
  std::vector<double> latency_ms;
  long long served = 0, degraded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    try {
      const EvalResponse r = futures[i].get();
      latency_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - submit_at[i])
                               .count());
      ++served;
      degraded += r.degraded;
      const AnswerSet& got =
          r.mode == AnswerMode::kBounds ? r.bounds->under : r.answers;
      if (!(got == exact)) {
        std::fprintf(stderr, "FAILED: a served answer diverged\n");
        g_all_ok = false;
      }
    } catch (const SubmitRejectedError&) {
      ++rejected;
    }
  }
  const double drain_ms = bench::TimeMs([&] { service.Drain(); });
  const BatchStats stats = service.StreamingStats();
  service.Shutdown();

  std::sort(latency_ms.begin(), latency_ms.end());
  const auto quantile = [&latency_ms](double p) {
    if (latency_ms.empty()) return 0.0;
    const size_t i =
        std::min(latency_ms.size() - 1,
                 static_cast<size_t>(p * static_cast<double>(latency_ms.size())));
    return latency_ms[i];
  };

  if (stats.shed_degraded == 0 || stats.shed_rejected == 0) {
    std::fprintf(stderr,
                 "FAILED: expected both degradations and rejections "
                 "(got %lld / %lld)\n",
                 stats.shed_degraded, stats.shed_rejected);
    g_all_ok = false;
  }
  if (stats.shed_degraded != degraded || stats.shed_rejected != rejected ||
      served + rejected != submissions) {
    std::fprintf(stderr, "FAILED: shed counters do not add up\n");
    g_all_ok = false;
  }

  bench::PrintRow({"submitted", "served", "degraded", "rejected", "flood_ms",
                   "drain_ms", "p50_ms", "p99_ms"},
                  12);
  bench::PrintRule(8, 12);
  bench::PrintRow({Fmt(static_cast<long long>(submissions)), Fmt(served),
                   Fmt(degraded), Fmt(rejected), Fmt(flood_ms), Fmt(drain_ms),
                   Fmt(quantile(0.50)), Fmt(quantile(0.99))},
                  12);
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  const bool quick = cqa::bench::QuickMode(argc, argv);
  cqa::bench::InitCsv(argc, argv);
  std::printf("Deadlines and overload shedding (%s mode)\n\n",
              quick ? "quick" : "full");

  cqa::Rng rng(20260808);
  const int n = quick ? 300 : 500;
  const cqa::Database db =
      cqa::RandomDigraphDatabase(n, 5.0 / n, &rng, /*allow_loops=*/true);
  std::printf("database: %d elements, %lld facts\n\n", n, db.NumFacts());

  cqa::RunDeadline(db);
  cqa::RunOverload(db, quick);
  cqa::bench::CloseCsv();
  if (!cqa::g_all_ok) {
    std::fprintf(stderr,
                 "FAILED: a deadline overshot its budget, a partial answer "
                 "was unsound, or the shed counters diverged\n");
    return 1;
  }
  return 0;
}
