// Relation indexes: per-relation hash indexes keyed by *bound-position
// subsets*, plus a lazily-populated, thread-safe cache of them on top of an
// immutable Database (IndexedDatabase).
//
// Bound-set keying scheme
// -----------------------
// An evaluator matching an atom R(v1, ..., vk) typically knows the values of
// some argument positions (its "bound" positions: variables already assigned
// by earlier atoms, or shared with an already-reduced table) and wants every
// fact of R agreeing with them. A bound set is encoded as a BoundMask: bit i
// set means position i is bound. For a given (relation, mask) pair the index
// groups the facts of R by the subtuple of values at the bound positions,
// taken in ascending position order. Probing with the current values of the
// bound positions returns exactly the facts that can still match — the
// innermost loop of every engine becomes a hash probe instead of a scan of
// facts(rel).
//
// Since the columnar rewrite the payload is flat: fact ids live in one
// contiguous slab grouped by key (data/column_store.h's KeyedRowGroups), a
// probe takes the key as a caller-owned span (no materialized Tuple on the
// hot path), and a hit is a span into the slab — no per-key hash nodes.
//
// Masks are per-relation, so the same relation can carry several indexes
// (e.g. E keyed by position {0}, by {1}, and by {0,1}); each is built once,
// on first use, and cached. The special mask 0 (no position bound) is legal
// and yields a single group holding every fact.
//
// IndexedDatabase also caches cheaper byproducts the evaluators share:
//  - ProjectedRows: the deduplicated projection of a relation onto "output
//    columns" with a repeated-column equality filter — exactly the match
//    table of an atom (e.g. E(x, x) keeps loops only), stored columnar and
//    reusable across every query in a batch mentioning the same atom shape.
//  - FactColumns: the facts of a relation transposed into a ColumnStore, so
//    candidate iteration in the probe core walks contiguous columns.
//  - ColumnValues: the sorted distinct values occurring at one argument
//    position, the building block of per-variable candidate sets.
//
// All caches share one memory budget (IndexOptions::max_bytes, approximate).
// When building a structure would exceed it, the cache returns nullptr and
// the caller falls back to scanning; evaluation stays correct either way.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - An IndexedDatabase *borrows* its Database: the Database must outlive
//    every use of the view, and must not gain facts/elements while the view
//    is in use (structures hold fact ids into db.facts(rel)). Destroying
//    the view never touches the Database. Mutation between uses is handled
//    one layer up: eval/cache.h keys views by Database::id() and, when the
//    same Database gained facts since the view last served it, calls
//    CatchUp() to append the delta into every cached structure (~O(delta))
//    instead of rebuilding the view from scratch.
//  - The view owns every structure it builds and never frees one while it
//    is alive: pointers returned by Index/ProjectedRows/FactColumns/
//    ColumnValues stay valid for the lifetime of the view (which is why
//    EvalCache hands views out as shared_ptr — eviction cannot tear
//    structures out from under an in-flight evaluation).
//  - Any number of threads may share one view. Each structure is built
//    exactly once under the view's internal lock (concurrent first uses may
//    race to build a duplicate; the loser's copy is discarded) and is
//    immutable afterwards, so *probing* a returned pointer needs no
//    synchronization. Nobody outside the view may mutate a structure.

#ifndef CQA_DATA_INDEX_H_
#define CQA_DATA_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "data/column_store.h"
#include "data/database.h"

namespace cqa {

/// A subset of argument positions of one relation: bit i = position i bound.
using BoundMask = uint32_t;

/// Largest relation arity the bound-mask encoding supports. Relations wider
/// than this are never indexed (IndexedDatabase::Index declines and the
/// evaluators fall back to scanning).
inline constexpr int kMaxIndexableArity = 32;

/// The mask with exactly the given positions bound.
BoundMask MaskOfPositions(const std::vector<int>& positions);

/// The positions of `mask`, ascending. All bits must be below `arity`.
std::vector<int> PositionsOfMask(BoundMask mask, int arity);

/// A hash index over the facts of one relation for one bound set: fact ids
/// (indices into db.facts(rel)) grouped by the values at the bound positions
/// in ascending position order, stored as contiguous ranges of one id slab.
/// Immutable under concurrent probing; Append() is the single-writer delta
/// path (see KeyedRowGroups).
class RelationIndex {
 public:
  /// Builds the index by one scan of db.facts(rel).
  RelationIndex(const Database& db, RelationId rel, BoundMask mask);

  /// Catches up with facts appended to db.facts(rel()) since the index was
  /// built (ids [num_facts(), facts.size())): one bucket append per new
  /// fact, ~O(delta) instead of the O(db) rebuild. Must not run concurrently
  /// with probes. Returns the number of facts appended.
  size_t Append(const Database& db);

  RelationId rel() const { return rel_; }
  BoundMask mask() const { return mask_; }

  /// Bound positions, ascending (the key layout).
  const std::vector<int>& bound_positions() const { return positions_; }

  /// Fact ids whose bound positions equal `key`, in insertion order; empty
  /// when no fact matches. `key` layout must match bound_positions(). The
  /// span points into the index's slab and needs no per-probe allocation.
  std::span<const int> Probe(std::span<const Element> key) const {
    return groups_.Probe(key);
  }

  size_t num_keys() const { return groups_.num_groups(); }
  size_t num_facts() const { return groups_.num_rows(); }

  /// Rough heap footprint, used for cache budgeting.
  size_t ApproxBytes() const;

 private:
  RelationId rel_;
  BoundMask mask_;
  std::vector<int> positions_;
  KeyedRowGroups groups_;
};

/// Knobs for one IndexedDatabase (EvalCache builds its views with the
/// defaults).
struct IndexOptions {
  /// Master switch: when false every lookup returns nullptr and evaluators
  /// run their scan-based paths.
  bool enabled = true;
  /// Approximate ceiling on the summed footprint of cached structures.
  /// Structures that would overflow it are not built (lookup -> nullptr).
  size_t max_bytes = size_t{1} << 30;
};

/// Counters of one IndexedDatabase (snapshot; see IndexedDatabase::stats).
struct IndexCacheStats {
  long long index_builds = 0;       ///< RelationIndex constructions
  long long index_reuses = 0;       ///< cache hits on Index()
  long long projection_builds = 0;  ///< ProjectedRows constructions
  long long projection_reuses = 0;  ///< cache hits on ProjectedRows()
  long long column_builds = 0;      ///< ColumnValues constructions
  long long column_reuses = 0;      ///< cache hits on ColumnValues()
  long long factcol_builds = 0;     ///< FactColumns constructions
  long long factcol_reuses = 0;     ///< cache hits on FactColumns()
  long long budget_rejections = 0;  ///< lookups refused by max_bytes
  long long catchup_facts = 0;      ///< structure-appends done by CatchUp()
  long long bytes = 0;              ///< current approximate footprint
};

/// A read-only view of a Database plus lazily built, cached index structures.
/// Thread-safe: many evaluator threads may share one view; each structure is
/// built exactly once (under a lock) and is immutable afterwards, so probing
/// returned pointers needs no synchronization. Returned pointers live as
/// long as the view.
class IndexedDatabase {
 public:
  explicit IndexedDatabase(const Database& db, IndexOptions options = {});

  const Database& db() const { return *db_; }
  const IndexOptions& options() const { return options_; }

  /// The index of `rel` for bound set `mask`, building it on first use.
  /// nullptr when indexing is disabled, the relation is wider than
  /// kMaxIndexableArity, or the budget is exhausted (rejections are cached,
  /// so a declined structure is not rebuilt on every lookup).
  /// `built` (optional out) reports whether this call built the index.
  const RelationIndex* Index(RelationId rel, BoundMask mask,
                             bool* built = nullptr) const;

  /// The deduplicated projection of `rel` onto `num_out` output columns:
  /// `out_cols[i]` names the output column fed by argument position i (every
  /// column in [0, num_out) must be fed by some position). Facts assigning
  /// two different values to the same output column are filtered out, so
  /// this is exactly the match table of an atom whose i-th argument is the
  /// variable with rank out_cols[i]. nullptr when disabled/over budget.
  const ColumnStore* ProjectedRows(RelationId rel,
                                   const std::vector<int>& out_cols,
                                   int num_out, bool* built = nullptr) const;

  /// The facts of `rel` transposed into a ColumnStore (same row ids as
  /// db.facts(rel)), so candidate loops iterate contiguous columns.
  /// nullptr when disabled/over budget.
  const ColumnStore* FactColumns(RelationId rel, bool* built = nullptr) const;

  /// Sorted distinct values at argument position `pos` of `rel`.
  /// nullptr when disabled/over budget.
  const std::vector<Element>* ColumnValues(RelationId rel, int pos,
                                           bool* built = nullptr) const;

  /// Catches every cached structure up with facts/elements the underlying
  /// Database gained since the structure was built — one append per (new
  /// fact, structure) pair, ~O(delta × structures) instead of the O(db)
  /// rebuild of a fresh view. Budget-rejected (nullptr) entries stay
  /// rejected. Must not run concurrently with evaluations using the view
  /// (the caller — EvalCache — serializes mutation against use, same as the
  /// borrow contract above); concurrent CatchUp calls are safe. Returns the
  /// total number of structure-appends performed.
  size_t CatchUp();

  /// Snapshot of the cache counters.
  IndexCacheStats stats() const;

 private:
  // A cached projection: the deduplicating builder stays alive so CatchUp
  // can push new facts through the same filter; ProjectedRows hands out
  // &set.rows(), which is stable for the entry's lifetime.
  struct ProjectionEntry {
    explicit ProjectionEntry(int width) : set(width) {}
    RowSet set;
    size_t facts_seen = 0;
  };
  // A cached sorted-distinct column plus how many facts fed it.
  struct ColumnEntry {
    std::vector<Element> values;
    size_t facts_seen = 0;
  };

  // Accounts for `cost` bytes; false (and a rejection tick) if over budget.
  bool ReserveBytes(size_t cost) const;

  const Database* db_;
  IndexOptions options_;

  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, std::unique_ptr<RelationIndex>>
      indexes_;
  mutable std::unordered_map<std::vector<int>, std::unique_ptr<ProjectionEntry>,
                             VectorHash>
      projections_;
  mutable std::unordered_map<int, std::unique_ptr<ColumnStore>> factcols_;
  mutable std::unordered_map<uint64_t, std::unique_ptr<ColumnEntry>> columns_;
  mutable IndexCacheStats stats_;
};

}  // namespace cqa

#endif  // CQA_DATA_INDEX_H_
