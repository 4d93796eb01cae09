// Semi-naive delta evaluation: given a query's current answers and a batch
// of newly inserted facts, produce exactly the *new* answers — the
// incremental-maintenance core under QueryService subscriptions.
//
// Delta algebra
// -------------
// CQs are monotone: inserting facts can only add answers, never remove one.
// Every answer that is new after inserting delta facts Δ must use at least
// one fact of Δ as a witness. So, semi-naive style, for each atom i of the
// query and each delta fact of atom i's relation, we pin atom i to the fact
// (binding its variables; repeated-variable conflicts prune immediately) and
// search the *remaining* atoms against the full updated database through the
// shared ProbeBacktracker — index probes, no scan. Answers already present
// are deduplicated away; what remains is the answer delta. Searching the
// full database (rather than stratified old/new tables) is sound because
// the database already contains Δ, and complete because an answer using k
// delta facts is found when the last of them is the pinned seed.
//
// The same algebra covers all four AnswerModes, because the paper's
// approximation sandwich is monotone too: under- and over-approximations
// are CQs themselves, so insertions only grow the union of under-rewrites
// (certain answers) and only grow the intersection of over-rewrites
// (possible answers — intersections of growing sets grow). Bounds deltas
// are therefore pure additions: a Subscription (eval/service.h) maintains
// both sides incrementally, one DeltaEvaluator per rewrite, and reports
// per-tick additions only.
//
// Interruption contract (same soundly-partial rules as eval/eval_context.h):
// ApplyFact reports a fact interrupted mid-way, and its caller commits fact
// by fact: a tick interrupted mid-fact discards that fact's partial
// temporaries and reports how many facts fully committed — reported deltas
// are always genuine answers, and uncommitted facts are simply re-applied
// on the next tick.

#ifndef CQA_EVAL_DELTA_EVAL_H_
#define CQA_EVAL_DELTA_EVAL_H_

#include <memory>
#include <span>
#include <vector>

#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/answer_set.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"
#include "eval/probe_core.h"

namespace cqa {

/// One inserted fact, as the maintenance layer sees it.
struct DeltaFact {
  RelationId rel = -1;
  Tuple tuple;
};

/// Per-query delta evaluator: one prebuilt seeded search per atom. Borrows
/// the query and the view — both must outlive it, and the view's database
/// must already contain every fact passed to ApplyFact. Construct once per
/// tick (searches cache index pointers) and discard.
class DeltaEvaluator {
 public:
  DeltaEvaluator(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                 EvalStats* stats = nullptr, const EvalContext* ctx = nullptr);

  /// Joins `fact` against the database through every atom of the matching
  /// relation, inserting answers that are in neither `existing` nor `out`
  /// into `out`. Returns false iff the context tripped mid-fact (out may
  /// hold a sound partial delta; the fact should be re-applied later).
  bool ApplyFact(const DeltaFact& fact, const AnswerSet& existing,
                 AnswerSet* out);

 private:
  // The search for "atom i is pinned to the delta fact": the remaining
  // atoms in a greedy order seeded by atom i's variables.
  struct SeededSearch {
    std::vector<int> seed_vars;  // slot per pinned-atom argument position
    std::unique_ptr<ProbeBacktracker> search;
  };

  const ConjunctiveQuery* query_;
  std::vector<RelationId> atom_rels_;
  std::vector<SeededSearch> seeds_;  // one per atom, same order
  const EvalContext* ctx_;
  std::vector<Element> assignment_;  // reused across facts
};

/// Convenience one-shot: the new answers `delta` adds to `existing`
/// (disjoint from it). Facts are applied in order; if `ctx` trips, the
/// result holds the sound partial delta of the fully applied prefix.
AnswerSet DeltaEvaluateQuery(const ConjunctiveQuery& q,
                             const IndexedDatabase& idb,
                             std::span<const DeltaFact> delta,
                             const AnswerSet& existing,
                             EvalStats* stats = nullptr,
                             const EvalContext* ctx = nullptr);

}  // namespace cqa

#endif  // CQA_EVAL_DELTA_EVAL_H_
