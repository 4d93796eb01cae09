// Treewidth computation. Exact decision (`treewidth <= k`) and value via
// memoized elimination-order search (sound and complete for graphs up to 64
// nodes), plus the min-fill heuristic used for fast upper bounds and for
// building evaluation decompositions.

#ifndef CQA_DECOMP_TREEWIDTH_H_
#define CQA_DECOMP_TREEWIDTH_H_

#include <vector>

#include "decomp/tree_decomposition.h"
#include "graph/digraph.h"

namespace cqa {

/// Exact decision: does the underlying simple graph of g have treewidth
/// <= k? Loops are ignored (they do not affect treewidth). Requires
/// g.num_nodes() <= 64.
bool TreewidthAtMost(const Digraph& g, int k);

/// Exact treewidth (0 for edgeless graphs, -1 for the empty graph).
int ExactTreewidth(const Digraph& g);

/// Min-fill elimination order (heuristic, deterministic).
std::vector<int> MinFillOrder(const Digraph& g);

/// The width induced by eliminating in `order` (max closed-neighborhood
/// size at elimination time, minus 1).
int WidthOfEliminationOrder(const Digraph& g, const std::vector<int>& order);

/// Tree decomposition whose bags are the inclusion-maximal closed
/// neighborhoods at elimination time: a bag that is a subset of a tree
/// neighbour's is contracted into it. Always valid, width =
/// WidthOfEliminationOrder.
TreeDecomposition DecompositionFromOrder(const Digraph& g,
                                         const std::vector<int>& order);

/// Convenience: a valid tree decomposition via min-fill (not necessarily
/// optimal width). Used by the evaluation engine.
TreeDecomposition MinFillDecomposition(const Digraph& g);

/// An exact-width tree decomposition (elimination search); requires
/// <= 64 nodes.
TreeDecomposition ExactDecomposition(const Digraph& g);

}  // namespace cqa

#endif  // CQA_DECOMP_TREEWIDTH_H_
