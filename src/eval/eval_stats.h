// Per-evaluation counters shared by the three engines. Indexed runs report
// how much of the work the RelationIndex layer absorbed; scan runs leave the
// index fields at zero.

#ifndef CQA_EVAL_EVAL_STATS_H_
#define CQA_EVAL_EVAL_STATS_H_

namespace cqa {

/// Counters of one evaluation (one engine run on one (query, database)).
struct EvalStats {
  long long nodes = 0;         ///< search-tree / bag-search nodes explored
  long long index_probes = 0;  ///< RelationIndex::Probe calls
  long long index_hits = 0;    ///< probes that found a nonempty bucket
  long long index_builds = 0;  ///< index/projection builds this run caused
  long long table_reuses = 0;  ///< cached projections/columns reused
  /// Incremental-maintenance ticks (Subscription::Poll calls, eval/
  /// service.h) and delta facts they committed (DeltaEvaluateQuery counts
  /// its call as one tick); 0 on full runs.
  long long delta_ticks = 0;
  long long delta_facts = 0;

  /// Accumulates `other` (batch aggregation).
  void Add(const EvalStats& other) {
    nodes += other.nodes;
    index_probes += other.index_probes;
    index_hits += other.index_hits;
    index_builds += other.index_builds;
    table_reuses += other.table_reuses;
    delta_ticks += other.delta_ticks;
    delta_facts += other.delta_facts;
  }
};

}  // namespace cqa

#endif  // CQA_EVAL_EVAL_STATS_H_
