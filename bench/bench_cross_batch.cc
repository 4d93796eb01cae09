// Cross-batch caching: the same batch evaluated repeatedly through one
// shared EvalCache (warm) versus through a fresh cache every time (cold).
// Warm batches must produce identical answers while reusing the cold run's
// index views and plans — the wall-time ratio is the point of promoting the
// per-run caches to a process-lifetime LRU. A second series drives the same
// jobs through the streaming Submit seam and checks the futures deliver
// exactly the blocking answers. A third series exercises the
// approximation-aware planner: bounds-mode requests on width-over-budget
// queries, where the warm batches must reuse the *synthesized* plans from
// the EvalCache plan tier (every plan a hit once the cache is warm) and
// every sandwich must satisfy under ⊆ exact ⊆ over. Pass --quick for a
// reduced run (CI smoke test) and --csv <path> to mirror the tables into a
// CSV artifact. Exits nonzero when any invariant fails.

#include <future>
#include <memory>
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

// Q(x) :- E(x, y1), ..., E(x, yk): acyclic, projection-cache-friendly.
ConjunctiveQuery StarQuery(int k) {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariable("x");
  for (int i = 0; i < k; ++i) {
    const int y = q.AddVariable();
    q.AddAtom(0, {x, y});
  }
  q.SetFreeVariables({x});
  return q;
}

// Q(x0) :- E(x0, x1), ..., E(x{len-1}, xlen).
ConjunctiveQuery PathQuery(int len) {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int first = q.AddVariables(len + 1);
  for (int i = 0; i < len; ++i) q.AddAtom(0, {first + i, first + i + 1});
  q.SetFreeVariables({first});
  return q;
}

// Q(x, y) :- E(x, y), E(y, x): cyclic (width 1), digon enumeration.
ConjunctiveQuery DigonQuery() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariable("x");
  const int y = q.AddVariable("y");
  q.AddAtom(0, {x, y});
  q.AddAtom(0, {y, x});
  q.SetFreeVariables({x, y});
  return q;
}

// Q(x) :- E(x,y), E(y,z), E(z,u), E(u,x): the 4-cycle, width 2 — a second
// over-budget shape so the plan tier holds several synthesized plans.
ConjunctiveQuery FourCycleQuery() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariables(4);
  for (int i = 0; i < 4; ++i) q.AddAtom(0, {x + i, x + (i + 1) % 4});
  q.SetFreeVariables({x});
  return q;
}

// The serving-loop shape: a handful of query templates repeated over a
// couple of shared databases — plan shapes and index views recur heavily.
// All templates evaluate in about O(|facts|) probes once structures exist,
// so the cold batch is dominated by exactly the index/projection builds the
// shared cache amortizes away.
std::vector<EvalRequest> MakeJobs(const std::vector<Database>& dbs,
                                  int num_jobs) {
  std::vector<EvalRequest> jobs;
  jobs.reserve(num_jobs);
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &dbs[i % dbs.size()];
    switch (i % 4) {
      case 0:
        jobs.push_back({StarQuery(2 + i % 3), db});
        break;
      case 1:
        jobs.push_back({PathQuery(3 + i % 2), db});
        break;
      case 2:
        jobs.push_back({DigonQuery(), db});
        break;
      default:
        jobs.push_back({StarQuery(5), db});
        break;
    }
  }
  return jobs;
}

bool SameAnswers(const std::vector<EvalResponse>& a,
                 const std::vector<EvalResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].answers == b[i].answers)) return false;
  }
  return true;
}

void RunWarmVsCold(const std::vector<EvalRequest>& jobs, bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("warm_vs_cold");
  std::printf(
      "Warm vs cold batches: one shared EvalCache across batches (warm) vs\n"
      "a fresh cache per batch (cold). Identical answers required.\n\n");
  bench::PrintRow({"batch", "wall_ms", "speedup", "idx_hits", "idx_miss",
                   "plan_hits", "identical"},
                  12);
  bench::PrintRule(7, 12);

  EvalOptions base;
  base.num_threads = quick ? 2 : 4;

  // Cold reference: every batch pays the full build cost again.
  EvalOptions cold_opts = base;
  cold_opts.cache = std::make_shared<EvalCache>();
  BatchStats cold_stats;
  const auto reference =
      QueryService(cold_opts).EvaluateBatch(jobs, &cold_stats);
  bench::PrintRow({"cold", Fmt(cold_stats.wall_ms), "1.00",
                   Fmt(cold_stats.index_cache_hits),
                   Fmt(cold_stats.index_cache_misses),
                   Fmt(cold_stats.plan_hits), "ref"},
                  12);

  // Warm series: batch after batch through one long-lived cache.
  EvalOptions warm_opts = base;
  warm_opts.cache = std::make_shared<EvalCache>();
  const QueryService warm(warm_opts);
  const int warm_batches = quick ? 3 : 6;
  for (int b = 0; b < warm_batches; ++b) {
    BatchStats stats;
    const auto results = warm.EvaluateBatch(jobs, &stats);
    const bool identical = SameAnswers(results, reference);
    g_all_ok &= identical;
    const double speedup =
        stats.wall_ms > 1e-9 ? cold_stats.wall_ms / stats.wall_ms : 0.0;
    bench::PrintRow(
        {"warm" + std::to_string(b + 1), Fmt(stats.wall_ms), Fmt(speedup),
         Fmt(stats.index_cache_hits), Fmt(stats.index_cache_misses),
         Fmt(stats.plan_hits), identical ? "yes" : "NO"},
        12);
    // The first warm batch is itself cold; every later one must be served
    // entirely from the shared cache.
    if (b > 0 && (stats.index_cache_misses != 0 ||
                  stats.plan_hits != static_cast<long long>(jobs.size()))) {
      std::fprintf(stderr, "FAILED: warm batch %d missed the shared cache\n",
                   b + 1);
      g_all_ok = false;
    }
  }

  const EvalCacheStats cache_stats = warm_opts.cache->stats();
  std::printf(
      "\nshared cache after warm series: views=%lld (%lld bytes), "
      "index hits/misses=%lld/%lld, plan hits/misses=%lld/%lld, "
      "evictions=%lld\n",
      cache_stats.index_entries, cache_stats.index_bytes,
      cache_stats.index_hits, cache_stats.index_misses, cache_stats.plan_hits,
      cache_stats.plan_misses, cache_stats.index_evictions);
}

void RunStreaming(const std::vector<EvalRequest>& jobs, bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("streaming");
  std::printf(
      "\nStreaming Submit vs blocking EvaluateBatch over the same shared "
      "cache:\nfutures must deliver exactly the blocking answers.\n\n");

  EvalOptions opts;
  opts.num_threads = quick ? 2 : 4;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);

  BatchStats run_stats;
  const auto reference = service.EvaluateBatch(jobs, &run_stats);

  std::vector<std::future<EvalResponse>> futures;
  futures.reserve(jobs.size());
  const double submit_ms = bench::TimeMs([&] {
    for (const EvalRequest& job : jobs) futures.push_back(service.Submit(job));
    service.Drain();
  });

  bool identical = true;
  long long plan_hits = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse result = futures[i].get();
    identical &= result.answers == reference[i].answers;
    if (result.plan_cached()) ++plan_hits;
  }
  g_all_ok &= identical;
  service.Shutdown();

  bench::PrintRow({"mode", "jobs", "wall_ms", "plan_hits", "identical"}, 18);
  bench::PrintRule(5, 18);
  bench::PrintRow({"blocking_batch", Fmt(static_cast<int>(jobs.size())),
                   Fmt(run_stats.wall_ms), "-", "ref"},
                  18);
  bench::PrintRow({"streaming_submit", Fmt(static_cast<int>(jobs.size())),
                   Fmt(submit_ms), Fmt(plan_hits), identical ? "yes" : "NO"},
                  18);
}

// Bounds-mode serving on width-over-budget queries: the planner synthesizes
// TW(1) rewrites once per query shape, the EvalCache plan tier carries them
// across batches, and every response must sandwich the forced-exact answers.
void RunApproxBounds(const std::vector<Database>& dbs, bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("approx_bounds");
  std::printf(
      "\nApproximation-aware planning: bounds-mode requests on "
      "width-over-budget\nqueries (width budget 1). Warm batches must reuse "
      "the synthesized plans\n(every plan a hit) and satisfy under ⊆ exact ⊆ "
      "over.\n\n");

  EvalOptions opts;
  opts.num_threads = quick ? 2 : 4;
  opts.planner.width_budget = 1;

  const int num_jobs = quick ? 8 : 16;
  std::vector<EvalRequest> jobs, exact_jobs;
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &dbs[i % dbs.size()];
    const ConjunctiveQuery q =
        i % 2 == 0 ? TriangleOutputCQ() : FourCycleQuery();
    jobs.push_back({q, db, AnswerMode::kBounds});
    exact_jobs.push_back({q, db, AnswerMode::kExact});
  }

  // Forced-exact reference (same width budget: the planner falls back to
  // naive, which is exact by definition).
  EvalOptions exact_opts = opts;
  exact_opts.cache = std::make_shared<EvalCache>();
  BatchStats exact_stats;
  const auto exact =
      QueryService(exact_opts).EvaluateBatch(exact_jobs, &exact_stats);

  // Cold bounds reference: synthesis paid in full.
  EvalOptions cold_opts = opts;
  cold_opts.cache = std::make_shared<EvalCache>();
  BatchStats cold_stats;
  const auto cold_results =
      QueryService(cold_opts).EvaluateBatch(jobs, &cold_stats);

  // Warm series through one shared cache: synthesis amortized.
  EvalOptions warm_opts = opts;
  warm_opts.cache = std::make_shared<EvalCache>();
  const QueryService warm(warm_opts);

  bench::PrintRow({"batch", "wall_ms", "plan_hits", "approx_jobs", "certain",
                   "possible", "exact", "sandwich"},
                  12);
  bench::PrintRule(8, 12);

  const auto check_batch = [&](const char* label,
                               const std::vector<EvalResponse>& results,
                               const BatchStats& stats) {
    long long certain = 0, possible = 0, exact_total = 0;
    bool sandwich = true;
    for (size_t i = 0; i < results.size(); ++i) {
      const EvalResponse& r = results[i];
      if (!r.bounds.has_value()) {
        sandwich = false;
        continue;
      }
      certain += r.bounds->certain_count();
      possible += r.bounds->possible_count();
      exact_total += static_cast<long long>(exact[i].answers.size());
      sandwich &= r.bounds->under.IsSubsetOf(exact[i].answers) &&
                  exact[i].answers.IsSubsetOf(r.bounds->over);
    }
    g_all_ok &= sandwich;
    bench::PrintRow({label, Fmt(stats.wall_ms), Fmt(stats.plan_hits),
                     Fmt(stats.approx_jobs), Fmt(certain), Fmt(possible),
                     Fmt(exact_total), sandwich ? "yes" : "NO"},
                    12);
  };

  check_batch("cold", cold_results, cold_stats);

  const int warm_batches = quick ? 3 : 5;
  for (int b = 0; b < warm_batches; ++b) {
    BatchStats stats;
    const auto results = warm.EvaluateBatch(jobs, &stats);
    // Acceptance: the second warm batch onwards serves the synthesized
    // plans from the shared plan tier instead of re-running synthesis.
    if (b > 0 && stats.plan_hits != static_cast<long long>(jobs.size())) {
      std::fprintf(stderr,
                   "FAILED: warm approximated batch %d re-ran synthesis\n",
                   b + 1);
      g_all_ok = false;
    }
    if (stats.approx_jobs != static_cast<long long>(jobs.size())) {
      std::fprintf(stderr, "FAILED: not every bounds job was approximated\n");
      g_all_ok = false;
    }
    check_batch(("warm" + std::to_string(b + 1)).c_str(), results, stats);
    g_all_ok &= SameAnswers(results, cold_results);
  }
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  const bool quick = cqa::bench::QuickMode(argc, argv);
  cqa::bench::InitCsv(argc, argv);
  std::printf("Cross-batch LRU caching + streaming serving seam (%s mode)\n\n",
              quick ? "quick" : "full");

  cqa::Rng rng(20260726);
  std::vector<cqa::Database> dbs;
  const int n = quick ? 1500 : 6000;
  dbs.push_back(cqa::RandomDigraphDatabase(n, 6.0 / n, &rng));
  dbs.push_back(cqa::RandomCycleChordDatabase(n, n / 3, &rng));
  const std::vector<cqa::EvalRequest> jobs =
      cqa::MakeJobs(dbs, quick ? 12 : 24);

  cqa::RunWarmVsCold(jobs, quick);
  cqa::RunStreaming(jobs, quick);
  cqa::RunApproxBounds(dbs, quick);
  cqa::bench::CloseCsv();
  if (!cqa::g_all_ok) {
    std::fprintf(stderr,
                 "FAILED: answer divergence, missing cache hits, or a broken "
                 "bounds sandwich\n");
    return 1;
  }
  return 0;
}
