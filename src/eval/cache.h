// EvalCache: the process-lifetime caching subsystem that amortizes index and
// planning work across batches (and across content-identical databases).
//
// What is cached, and under which key
// -----------------------------------
//  - IndexedDatabase views, keyed by Database::Fingerprint() (an
//    order-independent 64-bit content hash). A serving loop that evaluates
//    batch after batch against the same database — or against different
//    Database objects holding the same facts — builds each RelationIndex /
//    projection / column table once for the cache's lifetime instead of once
//    per QueryService::EvaluateBatch.
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
// Eviction and invalidation
// -------------------------
// Both caches are LRU. The index cache is byte-budgeted
// (EvalCacheOptions::max_index_bytes): after every acquisition the summed
// approximate footprint of the cached views is re-polled (views grow lazily
// as evaluators request new structures) and least-recently-used entries are
// dropped until the budget holds again; the most recently acquired view is
// never evicted, so a single oversized database still gets one cached view
// (bounded by its own IndexOptions::max_bytes). The plan cache is
// entry-count-bounded (max_plan_entries) — exact decisions are a few dozen
// bytes, approximate ones add a handful of small rewritten queries.
//
// Every cached view records the source Database's version() at build time.
// When the *same* Database object is acquired again after gaining facts, the
// cache does not rebuild: it calls IndexedDatabase::CatchUp() on the cached
// view — appending the new facts into every cached structure, ~O(delta) —
// re-keys the entry under the new fingerprint, and serves it as a hit
// (counted in index_delta_appends). Rebuild-from-zero survives only for the
// cross-database case: a content-equal twin landing on an entry whose source
// has since diverged (version mismatch under a foreign fingerprint)
// invalidates the entry and rebuilds (counted in index_rebuilds) — a mutated
// database can never serve stale answers either way.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - EvalCache is fully thread-safe: any number of worker threads may call
//    any method concurrently; all state is guarded by one internal mutex,
//    and the returned IndexedDatabase views are themselves thread-safe.
//  - AcquireIndexed returns shared ownership. Evicting or invalidating an
//    entry never tears a view out from under an in-flight job: the job's
//    shared_ptr keeps the view alive until it finishes.
//  - The cache does NOT own source databases, and content sharing makes
//    their lifetime contract wider than the entry's: a view built from
//    database A may be serving jobs submitted with a content-equal twin B
//    (the view probes A's storage). A must therefore stay alive until
//    every view built from it is gone — call Invalidate(A) (or Clear()),
//    AND let in-flight jobs holding such views finish (e.g.
//    QueryService::Drain()), before freeing A. Destroying a database the
//    cache has seen without that sequence is undefined behavior.
//  - Databases must not be mutated while an evaluation over one of their
//    views is in flight (the same contract data/index.h states); mutating
//    *between* batches is fine and is exactly what invalidation handles.
//
// Fingerprints are O(total facts) to compute, so the cache memoizes them
// per source database against its version(): steady-state acquisitions cost
// one O(1) map probe, not a rehash of the database.

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
  /// Build policy for cached views (per-view budget, master switch). This —
  /// not the per-batch EngineOptions — governs views served by this cache.
  IndexOptions index;
};

/// Cumulative counters (snapshot via EvalCache::stats).
struct EvalCacheStats {
  long long index_hits = 0;           ///< AcquireIndexed served from cache
  long long index_misses = 0;         ///< AcquireIndexed built a fresh view
  long long index_evictions = 0;      ///< views dropped by the byte budget
  long long index_invalidations = 0;  ///< views dropped by version mismatch
  long long index_delta_appends = 0;  ///< views caught up in place (O(delta))
  long long index_rebuilds = 0;       ///< version-mismatch full rebuilds
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

  /// The cached view of `db`'s content, building (and caching) one on miss.
  /// `hit` (optional out) reports whether the view came from the cache.
  /// On the rare fingerprint collision (same hash, different NumFacts or
  /// universe size) a fresh uncached view is returned instead — never a
  /// wrong one.
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

  /// Drops every cached view built from `db` (by identity) and its
  /// fingerprint memo. Call before destroying a Database this cache has
  /// seen; in-flight jobs may still hold evicted views, so also let them
  /// finish before freeing `db`'s storage (see the file comment). Plans are
  /// query-only and are not affected.
  void Invalidate(const Database& db);

  /// Drops all cached views and plans; cumulative counters survive.
  void Clear();

  /// Snapshot of the counters (index_bytes is re-polled).
  EvalCacheStats stats() const;

  const EvalCacheOptions& options() const { return options_; }

 private:
  struct IndexEntry {
    uint64_t fingerprint = 0;
    const Database* source = nullptr;  ///< for version validation only
    uint64_t source_version = 0;
    long long num_facts = 0;  ///< collision guard
    int num_elements = 0;     ///< collision guard
    // Non-const so the identity catch-up path can CatchUp() in place;
    // handed out as shared_ptr<const IndexedDatabase>.
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

  // db.Fingerprint() memoized against db.version(). Caller holds mu_.
  uint64_t FingerprintOfLocked(const Database& db);

  // Keyed by database address; version + content counts guard against a new
  // database reusing a freed address (callers should still Invalidate before
  // destroying — see the file comment — but a stale memo must never survive
  // an address reuse the guards can detect).
  struct FingerprintMemo {
    uint64_t version = 0;
    uint64_t fingerprint = 0;
    long long num_facts = 0;
    int num_elements = 0;
  };

  EvalCacheOptions options_;

  mutable std::mutex mu_;
  IndexList index_lru_;
  std::unordered_map<uint64_t, IndexList::iterator> index_map_;
  std::unordered_map<const Database*, FingerprintMemo> fp_memo_;
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
