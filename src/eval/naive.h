// The baseline evaluation engine: backtracking join with combined
// complexity |D|^O(|Q|) (paper, Introduction). This is the comparator the
// approximations are designed to beat. Two matching modes share one search:
// the scan mode tries every fact of the current atom's relation, while the
// indexed mode probes a RelationIndex for the atom's bound positions and
// tries only the facts that can still match (same answers, same enumeration
// order restricted to survivors).

#ifndef CQA_EVAL_NAIVE_H_
#define CQA_EVAL_NAIVE_H_

#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/answer_set.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"

namespace cqa {

/// Computes Q(D) by backtracking over atoms (connected order, scan-based
/// matching). Exact but exponential in |Q|. A non-null `ctx` is polled at
/// every search node; on interruption the answers found so far are returned
/// (a sound under-approximation — see eval/eval_context.h).
AnswerSet EvaluateNaive(const ConjunctiveQuery& q, const Database& db,
                        EvalStats* stats = nullptr,
                        const EvalContext* ctx = nullptr);

/// Indexed variant: probes `idb` for the bound positions of each atom
/// (built lazily, cached on the view). Falls back to scanning per atom when
/// the view declines to index (disabled / over budget / nothing bound).
AnswerSet EvaluateNaive(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                        EvalStats* stats = nullptr,
                        const EvalContext* ctx = nullptr);

/// Boolean early-exit variant: stops at the first witness.
bool EvaluateNaiveBoolean(const ConjunctiveQuery& q, const Database& db,
                          EvalStats* stats = nullptr);

/// Indexed Boolean early-exit variant.
bool EvaluateNaiveBoolean(const ConjunctiveQuery& q,
                          const IndexedDatabase& idb,
                          EvalStats* stats = nullptr);

/// Membership test: is `answer` in Q(D)?
bool AnswerContains(const ConjunctiveQuery& q, const Database& db,
                    const Tuple& answer);

}  // namespace cqa

#endif  // CQA_EVAL_NAIVE_H_
