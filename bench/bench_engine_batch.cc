// Batch-evaluation throughput: the planner-driven QueryService fanning a
// mixed CQ workload across a thread pool, versus sequential evaluation of
// the same jobs; plus a scan-vs-index series running each engine directly
// over its own workload with indexing off and on (the answers must be
// identical — the speedup column is the point of the RelationIndex layer);
// plus a tw_rewrites series timing the treewidth DP against the naive
// backtracker on the TW(3) rewrites the planner synthesizes.
// Pass --quick for a reduced run (CI smoke test) and --csv <path> to mirror
// all tables into a CSV artifact.

#include <memory>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "cq/properties.h"
#include "data/generators.h"
#include "data/index.h"
#include "decomp/treewidth.h"
#include "eval/engine.h"
#include "eval/service.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// Set to false whenever a series prints identical=NO; main exits nonzero so
// the CI bench-smoke step fails on answer divergence, not just visibly.
bool g_all_identical = true;

std::vector<EvalRequest> MakeJobs(const std::vector<Database>& dbs, int num_jobs,
                               Rng* rng) {
  std::vector<EvalRequest> jobs;
  jobs.reserve(num_jobs);
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &dbs[i % dbs.size()];
    switch (i % 3) {
      case 0:
        jobs.push_back({IntroQ2(), db});
        break;
      case 1:
        jobs.push_back({RandomGraphCQ(3 + i % 3, 4, rng, i % 2), db});
        break;
      default:
        jobs.push_back({RandomCyclicGraphCQ(3, 2, rng), db});
        break;
    }
  }
  return jobs;
}

void RunThreadScaling(bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("thread_scaling");
  Rng rng(12345);
  std::vector<Database> dbs;
  const int n = quick ? 12 : 24;
  dbs.push_back(RandomDigraphDatabase(n, 0.25, &rng));
  dbs.push_back(RandomCycleChordDatabase(n, n / 2, &rng));

  const int num_jobs = quick ? 12 : 48;
  const std::vector<EvalRequest> jobs = MakeJobs(dbs, num_jobs, &rng);

  bench::PrintRow({"threads", "jobs", "wall_ms", "sum_eval_ms", "max_job_ms",
                   "plan_hits", "identical"});
  bench::PrintRule(7);

  EvalOptions seq_opts;
  seq_opts.num_threads = 1;
  BatchStats seq_stats;
  const auto reference = QueryService(seq_opts).EvaluateBatch(jobs, &seq_stats);
  bench::PrintRow({Fmt(1), Fmt(seq_stats.jobs), Fmt(seq_stats.wall_ms),
                   Fmt(seq_stats.total_eval_ms), Fmt(seq_stats.max_job_ms),
                   Fmt(seq_stats.plan_hits), "ref"});

  for (const int threads : quick ? std::vector<int>{4}
                                 : std::vector<int>{2, 4, 8}) {
    EvalOptions opts;
    opts.num_threads = threads;
    BatchStats stats;
    const auto results = QueryService(opts).EvaluateBatch(jobs, &stats);
    bool identical = results.size() == reference.size();
    for (size_t i = 0; identical && i < results.size(); ++i) {
      identical = results[i].answers == reference[i].answers &&
                  results[i].engine == reference[i].engine;
    }
    g_all_identical &= identical;
    bench::PrintRow({Fmt(threads), Fmt(stats.jobs), Fmt(stats.wall_ms),
                     Fmt(stats.total_eval_ms), Fmt(stats.max_job_ms),
                     Fmt(stats.plan_hits), identical ? "yes" : "NO"});
  }

  int mix[3] = {0, 0, 0};
  for (const EvalResponse& r : reference) mix[static_cast<int>(r.engine)]++;
  std::printf("\nplanner engine mix: naive=%d yannakakis=%d treewidth=%d\n",
              mix[0], mix[1], mix[2]);
}

// Q(x) :- E(x, y1), ..., E(x, yk): acyclic, output-bearing, star-shaped —
// the pattern the projection cache and pristine-leaf probes shine on.
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

// Q(x0[, xlen]) :- E(x0, x1), ..., E(x{len-1}, xlen).
ConjunctiveQuery PathQuery(int len, int num_free) {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int first = q.AddVariables(len + 1);
  for (int i = 0; i < len; ++i) q.AddAtom(0, {first + i, first + i + 1});
  std::vector<int> free_vars;
  if (num_free >= 1) free_vars.push_back(first);
  if (num_free >= 2) free_vars.push_back(first + len);
  q.SetFreeVariables(free_vars);
  return q;
}

void RunScanVsIndex(bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("scan_vs_index");
  std::printf(
      "\nScan vs indexed evaluation, per engine (called directly), 1 "
      "thread.\nSame queries, indexing off/on; answers must be identical.\n\n");

  Rng rng(4242);
  const int n = quick ? 130 : 400;
  const Database db = RandomDigraphDatabase(n, 8.0 / n, &rng);
  // The treewidth bag product is cubic in the candidate count: use a
  // smaller substrate so the scan side finishes in bench time.
  const int n_tw = quick ? 130 : 200;
  const Database db_tw = RandomDigraphDatabase(n_tw, 8.0 / n_tw, &rng);

  struct Series {
    EngineKind kind;
    const Database* db;
    std::vector<ConjunctiveQuery> queries;
  };
  std::vector<Series> series;
  {
    Series s{EngineKind::kNaive, &db, {}};
    const int num = quick ? 6 : 16;
    for (int i = 0; i < num; ++i) s.queries.push_back(TriangleOutputCQ());
    series.push_back(std::move(s));
  }
  {
    Series s{EngineKind::kYannakakis, &db, {}};
    const int num = quick ? 24 : 64;
    for (int i = 0; i < num; ++i) {
      switch (i % 4) {
        case 0:
          s.queries.push_back(StarQuery(2));
          break;
        case 1:
          s.queries.push_back(StarQuery(3));
          break;
        case 2:
          s.queries.push_back(StarQuery(4));
          break;
        default:
          s.queries.push_back(PathQuery(4, 1));
          break;
      }
    }
    series.push_back(std::move(s));
  }
  {
    Series s{EngineKind::kTreewidth, &db_tw, {}};
    const int num = quick ? 3 : 8;
    for (int i = 0; i < num; ++i) {
      s.queries.push_back(RandomCyclicGraphCQ(3, 1, &rng));
    }
    series.push_back(std::move(s));
  }

  std::printf("database: %d elements, %lld facts (treewidth: %d / %lld)\n\n",
              n, db.NumFacts(), n_tw, db_tw.NumFacts());
  bench::PrintRow({"engine", "mode", "jobs", "wall_ms", "speedup", "probes",
                   "hits", "identical"},
                  12);
  bench::PrintRule(8, 12);

  for (const Series& s : series) {
    const std::unique_ptr<Engine> engine = MakeEngine(s.kind);
    std::vector<AnswerSet> scan, indexed;
    const double scan_ms = bench::TimeMs([&] {
      for (const ConjunctiveQuery& q : s.queries) {
        scan.push_back(engine->Evaluate(q, *s.db));
      }
    });
    // The view is built inside the timed region: index builds count.
    EvalStats idx_stats;
    const double idx_ms = bench::TimeMs([&] {
      const IndexedDatabase view(*s.db);
      for (const ConjunctiveQuery& q : s.queries) {
        indexed.push_back(engine->Evaluate(q, view, &idx_stats));
      }
    });

    bool identical = scan.size() == indexed.size();
    for (size_t i = 0; identical && i < scan.size(); ++i) {
      identical = scan[i] == indexed[i];
    }
    g_all_identical &= identical;
    const double speedup = idx_ms > 1e-9 ? scan_ms / idx_ms : 0.0;
    const int jobs = static_cast<int>(s.queries.size());
    bench::PrintRow({EngineKindName(s.kind), "scan", Fmt(jobs), Fmt(scan_ms),
                     "1.00", "0", "0", "ref"},
                    12);
    bench::PrintRow({EngineKindName(s.kind), "indexed", Fmt(jobs),
                     Fmt(idx_ms), Fmt(speedup), Fmt(idx_stats.index_probes),
                     Fmt(idx_stats.index_hits), identical ? "yes" : "NO"},
                    12);
  }
}

// The rewrites the approximate modes evaluate: every TW(3) rewrite that
// PlanQuery(kBounds) sends to the treewidth DP for random oriented
// 5-cliques (width 4, the approx_bounds shape), run through the treewidth
// and naive engines on one indexed view. The view and its column lists are
// warmed by an untimed pass of each engine first, so the timed pass
// measures evaluation only. `bags` sums the min-fill bags the DP
// materializes; `nodes` is EvalStats::nodes of the timed pass.
void RunTwRewrites(bool quick) {
  using bench::Fmt;
  bench::SetCsvSection("tw_rewrites");
  Rng rng(2012);
  const int num_shapes = quick ? 2 : 6;
  std::vector<ConjunctiveQuery> rewrites;
  for (int i = 0; i < num_shapes; ++i) {
    const PlanDecision d = PlanQuery(RandomTournamentCQ(5, i % 3, &rng),
                                     PlannerOptions{}, AnswerMode::kBounds);
    for (const std::vector<ApproxSubPlan>* side : {&d.under, &d.over}) {
      for (const ApproxSubPlan& sub : *side) {
        if (sub.kind == EngineKind::kTreewidth) rewrites.push_back(sub.query);
      }
    }
  }
  long long bags = 0;
  for (const ConjunctiveQuery& q : rewrites) {
    bags += static_cast<long long>(
        MinFillDecomposition(GraphOfQuery(q)).bags.size());
  }
  std::printf(
      "\nTW(3) rewrites of %d oriented 5-cliques (kBounds), treewidth DP vs "
      "naive on one warm indexed view, 1 thread.\n\n",
      num_shapes);

  struct Substrate {
    const char* name;
    int n;
    double out_degree;
  };
  std::vector<Substrate> substrates = {{"sparse", 36, 4.0}};
  if (!quick) substrates.push_back({"dense", 60, 16.0});

  bench::PrintRow({"database", "facts", "engine", "rewrites", "bags",
                   "ms_per_rw", "nodes", "identical"},
                  12);
  bench::PrintRule(8, 12);
  for (const Substrate& sub : substrates) {
    const Database db = RandomDigraphDatabase(sub.n, sub.out_degree / sub.n,
                                              &rng, /*allow_loops=*/true);
    const IndexedDatabase view(db);
    std::vector<AnswerSet> reference;
    for (const EngineKind kind : {EngineKind::kNaive, EngineKind::kTreewidth}) {
      const std::unique_ptr<Engine> engine = MakeEngine(kind);
      for (const ConjunctiveQuery& q : rewrites) engine->Evaluate(q, view);
      std::vector<AnswerSet> answers;
      EvalStats stats;
      const double ms = bench::TimeMs([&] {
        for (const ConjunctiveQuery& q : rewrites) {
          answers.push_back(engine->Evaluate(q, view, &stats));
        }
      });
      std::string bag_cell = "-";
      std::string identical = "ref";
      if (kind == EngineKind::kNaive) {
        reference = std::move(answers);
      } else {
        const bool same = answers == reference;
        g_all_identical &= same;
        identical = same ? "yes" : "NO";
        bag_cell = Fmt(bags);
      }
      const double per_rewrite =
          rewrites.empty() ? 0.0 : ms / static_cast<double>(rewrites.size());
      bench::PrintRow({sub.name, Fmt(db.NumFacts()), EngineKindName(kind),
                       Fmt(rewrites.size()), bag_cell, Fmt(per_rewrite),
                       Fmt(stats.nodes), identical},
                      12);
    }
  }
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  const bool quick = cqa::bench::QuickMode(argc, argv);
  cqa::bench::InitCsv(argc, argv);
  std::printf(
      "Batch evaluation engine: planner-selected engines over a %s mixed "
      "workload, parallel vs sequential (identical column must be yes)\n\n",
      quick ? "quick" : "full");
  cqa::RunThreadScaling(quick);
  cqa::RunScanVsIndex(quick);
  cqa::RunTwRewrites(quick);
  cqa::bench::CloseCsv();
  if (!cqa::g_all_identical) {
    std::fprintf(stderr, "FAILED: some series reported identical=NO\n");
    return 1;
  }
  return 0;
}
