// The one probe-backtracking core shared by every engine hot path.
//
// Before the columnar rewrite the per-depth bound-mask/probe/unify search
// was written twice — eval/naive.cc and the bag materialization in
// eval/treewidth_eval.cc — and the index-probing semijoin in
// eval/var_table.cc materialized a Tuple key per probe. ProbeBacktracker
// replaces all three: it is parameterized by a variable-to-slot mapping
// (ProbeAtom::slots maps each argument position of an atom to a slot of the
// caller's assignment vector), computes each depth's bound mask and key
// layout once, probes RelationIndex with a reusable flat key buffer (no
// per-probe allocation), iterates candidate facts over the contiguous
// columns of IndexedDatabase::FactColumns when available, and undoes
// bindings through one reusable undo stack (no per-candidate vector).
//
// Semantics contract (preserved exactly from the engines it replaced):
//  - `stats->nodes` is incremented once per search node, including leaves,
//    *before* the EvalContext poll, so node budgets trip identically.
//  - `ctx->Interrupted()` is polled at every node; a trip unwinds the whole
//    search immediately. Partial output stays a subset of the full output
//    (the caller's leaf has only seen genuine matches), so interruption
//    remains soundly partial.
//  - `stats->index_probes` counts every bucket probe, `stats->index_hits`
//    the nonempty ones, `stats->index_builds` the builds this search forced
//    (indexes are fetched lazily per depth: searches that exit early never
//    pay for builds).
//  - A depth only gets a mask/index when an IndexedDatabase is present, the
//    atom's arity is at most kMaxIndexableArity, and some position is bound
//    at entry; otherwise the depth scans facts(rel) — exactly the old
//    fallback ladder.

#ifndef CQA_EVAL_PROBE_CORE_H_
#define CQA_EVAL_PROBE_CORE_H_

#include <functional>
#include <span>
#include <vector>

#include "data/database.h"
#include "data/index.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"

namespace cqa {

/// One atom of a backtracking search, with its arguments mapped to slots of
/// the caller's assignment vector: argument position p carries the value of
/// slot slots[p]. Repeated slots express repeated variables.
struct ProbeAtom {
  RelationId rel = -1;
  std::vector<int> slots;
};

/// Greedy connected trial order: `atoms` reordered by repeatedly picking the
/// atom whose slot list has the most occurrences already bound (ties to the
/// lowest index), then marking its slots bound. `bound[s]` says slot s is
/// bound on entry (its size is the slot count). The naive engine, the
/// treewidth bag materialization and the seeded delta searches all order
/// their atoms here; keeping one copy keeps their search trees — and their
/// stats — reproducible.
std::vector<ProbeAtom> GreedyProbeOrder(std::vector<ProbeAtom> atoms,
                                        std::vector<bool> bound);

/// Depth-first search over `atoms` (in the given trial order) against the
/// facts of `db`: at depth d, every fact of atoms[d].rel consistent with the
/// current assignment extends it, recursing to d+1; a full extension invokes
/// the caller's leaf. With `idb`, each depth probes the relation index for
/// its entry-bound positions instead of scanning. One instance is reusable
/// across Search calls (per-evaluation key buffer and undo stack).
class ProbeBacktracker {
 public:
  /// The leaf callback: receives the full assignment (every slot an atom
  /// constrains is >= 0; entry-unbound, atom-free slots stay -1). Return
  /// true to stop the entire search (early exit), false to keep enumerating.
  using LeafFn = std::function<bool(std::span<const Element>)>;

  /// `bound_at_entry[s]` declares slot s pre-bound (the caller will pass
  /// assignments with those slots set); it fixes each depth's bound mask.
  /// `idb`, `stats`, and `ctx` may be null (scan-only / uncounted /
  /// uninterruptible, respectively).
  ProbeBacktracker(std::vector<ProbeAtom> atoms, int num_slots,
                   const std::vector<bool>& bound_at_entry, const Database& db,
                   const IndexedDatabase* idb, EvalStats* stats,
                   const EvalContext* ctx);

  /// Runs the search. `assignment` must have num_slots entries, the
  /// entry-bound slots set (>= 0) and all others -1; it is restored before
  /// returning. Stops early when `ctx` trips or `leaf` returns true.
  void Search(std::vector<Element>* assignment, const LeafFn& leaf);

  /// The index of `depth` (fetched lazily, builds counted); nullptr when
  /// the depth has no bound positions or the cache declined.
  const RelationIndex* EnsureIndex(size_t depth);

  /// Existence probe at depth 0 (the semijoin fast path): true iff some
  /// fact of atoms[0].rel agrees with `assignment` on the entry-bound
  /// positions. Counts one probe (and a hit when nonempty). The caller must
  /// have checked EnsureIndex(0) != nullptr.
  bool ProbeExists(std::span<const Element> assignment);

 private:
  struct Step {
    RelationId rel = -1;
    std::vector<int> slots;         // slot per argument position
    BoundMask mask = 0;             // positions bound at entry (0 = scan)
    std::vector<int> key_slots;     // slots feeding the probe key, in
                                    // ascending position order
    const std::vector<Tuple>* facts = nullptr;  // row-major fallback
    std::vector<std::span<const Element>> cols;  // columnar facts, per
                                                 // position (empty = rows)
    const RelationIndex* index = nullptr;
    bool index_fetched = false;
    bool cols_fetched = false;
  };

  void FetchIndex(Step* s);
  void FetchColumns(Step* s);
  // False = stop the entire search.
  bool SearchDepth(size_t depth, std::vector<Element>& a, const LeafFn& leaf);

  std::vector<Step> steps_;
  const Database* db_;
  const IndexedDatabase* idb_;
  EvalStats* stats_;
  const EvalContext* ctx_;
  std::vector<Element> key_buf_;  // reused across probes: no per-probe Tuple
  std::vector<int> undo_;         // reused binding-undo stack
};

}  // namespace cqa

#endif  // CQA_EVAL_PROBE_CORE_H_
