// EvalCache: the process-lifetime caching subsystem that amortizes index and
// planning work across requests and batches.
//
// What is cached, and under which key
// -----------------------------------
//  - IndexedDatabase views, keyed by Database::id() — the database's
//    identity, not its content. A serving loop that evaluates request after
//    request against the same database builds each RelationIndex /
//    projection / column table once for the cache's lifetime instead of
//    once per request or batch. Two content-equal databases get two views:
//    a view is only ever served for the database it was built from.
//  - PlanDecisions, keyed by the planner-options-and-mode-qualified
//    canonical query shape (PlanCacheKey): queries that differ only in
//    variable numbering share one planning verdict for the cache's
//    lifetime. This is the service's only plan tier, and where
//    approximation synthesis amortizes: an approximate-mode plan for a
//    width-over-budget query carries the synthesized TW(width_budget)
//    rewrites (PlanDecision::under/over), so the candidate enumeration
//    behind them runs once per query shape x mode — every later request
//    evaluates the cached rewrites directly. GetOrPlan is single-flight:
//    concurrent first-sight requests of one shape (batch workers, streaming
//    workers, subscriptions) run the planner once between them.
//
// Catch-up and eviction
// ---------------------
// Every cached view records the Database::version() it was built at. Under
// one id a database only grows (AddFact / AddElement; copying or assigning
// draws a new id), so when the database is acquired again at a newer
// version the cache calls IndexedDatabase::CatchUp() on the cached view —
// appending the new facts into every cached structure, ~O(delta) — and
// serves it as a hit (counted in index_delta_appends). A view is never
// rebuilt: index_rebuilds stays 0 and survives only for its readers.
//
// Both caches are LRU. The index cache is byte-budgeted
// (EvalCacheOptions::max_index_bytes): after every acquisition the summed
// approximate footprint of the cached views is re-polled (views grow lazily
// as evaluators request new structures) and least-recently-used entries are
// dropped until the budget holds again; the most recently acquired view is
// never evicted, so a single oversized database still gets one cached view
// (bounded by IndexOptions::max_bytes). The views of a database that was
// destroyed or assigned over are never served again and age out the same
// way; Invalidate(db) drops one early. The plan cache is entry-count-bounded
// (max_plan_entries) — exact decisions are a few dozen bytes, approximate
// ones add a handful of small rewritten queries.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - EvalCache is fully thread-safe: any number of worker threads may call
//    any method concurrently; all state is guarded by one internal mutex,
//    and the returned IndexedDatabase views are themselves thread-safe.
//  - AcquireIndexed returns shared ownership. Evicting or invalidating an
//    entry never tears a view out from under an in-flight job: the job's
//    shared_ptr keeps the view alive until it finishes.
//  - The cache does not own source databases. The one lifetime rule left
//    is the borrow of data/index.h: a database outlives the requests over
//    it (and must not gain facts while they are in flight). Destroying or
//    reassigning a database between requests is fine — its cached views
//    are orphaned, never probed again.

#ifndef CQA_EVAL_CACHE_H_
#define CQA_EVAL_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/engine.h"

namespace cqa {

/// Knobs for the shared cross-batch cache.
struct EvalCacheOptions {
  /// Byte budget across all cached IndexedDatabase views (approximate,
  /// re-polled after every acquisition because views grow lazily). The most
  /// recently used view survives even when it alone exceeds the budget.
  size_t max_index_bytes = size_t{256} << 20;
  /// Entry bound on the plan LRU (plans are tiny; count, not bytes).
  size_t max_plan_entries = 4096;
};

/// Cumulative counters (snapshot via EvalCache::stats).
struct EvalCacheStats {
  long long index_hits = 0;           ///< AcquireIndexed served from cache
  long long index_misses = 0;         ///< AcquireIndexed built a fresh view
  long long index_evictions = 0;      ///< views dropped by the byte budget
  long long index_invalidations = 0;  ///< views dropped by Invalidate
  long long index_delta_appends = 0;  ///< views caught up in place (O(delta))
  long long index_rebuilds = 0;       ///< always 0: views catch up instead
  long long index_entries = 0;        ///< current number of cached views
  long long index_bytes = 0;          ///< current approximate footprint
  long long plan_hits = 0;            ///< LookupPlan/GetOrPlan served it
  long long plan_misses = 0;          ///< LookupPlan missed; GetOrPlan planned
  long long plan_evictions = 0;       ///< plans dropped by max_plan_entries
  long long plan_entries = 0;         ///< current number of cached plans
};

/// The shared cross-batch cache. See the file comment for the contracts.
class EvalCache {
 public:
  explicit EvalCache(EvalCacheOptions options = {});

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The cached view of `db` (by id()), caught up to db.version(); builds
  /// and caches one on miss. `hit` (optional out) reports whether the view
  /// came from the cache.
  std::shared_ptr<const IndexedDatabase> AcquireIndexed(const Database& db,
                                                        bool* hit = nullptr);

  /// The cached decision for `key` (shared and immutable — approximate
  /// decisions carry whole synthesized rewrites, so a hit hands out a
  /// pointer under the lock, never a deep copy), refreshing its LRU
  /// position; nullptr on miss. Keys come from PlanCacheKey (engine.h).
  std::shared_ptr<const PlanDecision> LookupPlan(const std::vector<int>& key);

  /// Single-flight lookup-or-plan: the cached decision for `key`, or on a
  /// miss the one `plan_fn` returns, stored under `key`. The first caller
  /// to miss claims the key and runs `plan_fn` outside the cache lock
  /// (synthesis can take hundreds of ms and must not block AcquireIndexed);
  /// later callers of the same key wait for that decision and count as
  /// hits, so plan_misses counts planner runs. If `plan_fn` throws, the
  /// claim is released, waiters wake and retry (one of them plans next),
  /// and the exception propagates to the claimant. `hit` (optional out)
  /// reports whether the decision came from the cache.
  std::shared_ptr<const PlanDecision> GetOrPlan(
      const std::vector<int>& key,
      const std::function<PlanDecision()>& plan_fn, bool* hit = nullptr);

  /// Inserts (or refreshes) `key -> plan`, evicting LRU entries beyond
  /// max_plan_entries. The cache shares ownership; the decision must not
  /// be mutated afterwards.
  void StorePlan(const std::vector<int>& key,
                 std::shared_ptr<const PlanDecision> plan);

  /// Drops the cached view of `db` (by id()) now instead of leaving it to
  /// the byte budget. Optional: a view is never served for another
  /// database. Plans are query-only and are not affected.
  void Invalidate(const Database& db);

  /// Snapshot of the counters (index_bytes is re-polled).
  EvalCacheStats stats() const;

  const EvalCacheOptions& options() const { return options_; }

 private:
  struct IndexEntry {
    uint64_t db_id = 0;
    uint64_t version = 0;  ///< db.version() the view is caught up to
    // Non-const so AcquireIndexed can CatchUp() in place; handed out as
    // shared_ptr<const IndexedDatabase>.
    std::shared_ptr<IndexedDatabase> view;
  };
  using IndexList = std::list<IndexEntry>;  // front = most recently used
  struct PlanEntry {
    std::vector<int> key;
    std::shared_ptr<const PlanDecision> plan;
  };
  using PlanList = std::list<PlanEntry>;  // front = most recently used

  // Re-polls view footprints and evicts LRU views until the byte budget
  // holds (keeping at least the MRU entry). Caller holds mu_.
  void EnforceIndexBudgetLocked();

  // StorePlan's body. Caller holds mu_.
  void StorePlanLocked(const std::vector<int>& key,
                       std::shared_ptr<const PlanDecision> plan);

  EvalCacheOptions options_;

  mutable std::mutex mu_;
  IndexList index_lru_;
  std::unordered_map<uint64_t, IndexList::iterator> index_map_;  ///< by id
  PlanList plan_lru_;
  std::unordered_map<std::vector<int>, PlanList::iterator, VectorHash>
      plan_map_;
  // Keys a GetOrPlan caller is planning right now; plan_cv_ wakes their
  // waiters when the claim is released.
  std::unordered_set<std::vector<int>, VectorHash> plans_in_flight_;
  std::condition_variable plan_cv_;
  mutable EvalCacheStats stats_;
};

}  // namespace cqa

#endif  // CQA_EVAL_CACHE_H_
