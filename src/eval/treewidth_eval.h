// Bounded-treewidth CQ evaluation (paper, Introduction; [11, 16, 30]):
// materialize a table per bag of a tree decomposition of G(Q)
// (O(|D|^{k+1}) work for width k), then run the acyclic join-forest DP over
// the decomposition tree. The min-fill and exact decompositions hold only
// inclusion-maximal bags, and each atom is checked in every bag that holds
// all its variables. The indexed variant materializes bags by a
// backtracking search that probes relation indexes for the bound positions
// of each in-bag atom; per-column candidate lists (from the view's cache)
// fill only bag variables that no in-bag atom mentions. The scan variant
// enumerates the candidate product of each bag and filters it by the
// bag's atoms.

#ifndef CQA_EVAL_TREEWIDTH_EVAL_H_
#define CQA_EVAL_TREEWIDTH_EVAL_H_

#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"
#include "decomp/tree_decomposition.h"
#include "eval/answer_set.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"

namespace cqa {

/// Computes Q(D) using the given tree decomposition of G(Q) (must be
/// valid; width governs the cost). A non-null `stats` counts one node per
/// bag-enumeration step. A non-null `ctx` is polled inside the
/// bag-materialization search and the join-forest DP; the partial result is
/// a sound under-approximation (see eval/eval_context.h).
AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q, const Database& db,
                            const TreeDecomposition& td,
                            EvalStats* stats = nullptr,
                            const EvalContext* ctx = nullptr);

/// Convenience: builds a min-fill decomposition internally.
AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q, const Database& db,
                            EvalStats* stats = nullptr,
                            const EvalContext* ctx = nullptr);

/// Indexed variants: same answers as the scan versions on every input.
AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q,
                            const IndexedDatabase& idb,
                            const TreeDecomposition& td,
                            EvalStats* stats = nullptr,
                            const EvalContext* ctx = nullptr);
AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q,
                            const IndexedDatabase& idb,
                            EvalStats* stats = nullptr,
                            const EvalContext* ctx = nullptr);

}  // namespace cqa

#endif  // CQA_EVAL_TREEWIDTH_EVAL_H_
