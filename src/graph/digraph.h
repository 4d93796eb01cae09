// Directed graphs. Much of the paper works over the vocabulary of graphs
// (one binary relation E); digraphs are both the tableaux of such queries and
// the objects of the graph-theoretic reinterpretation (Corollary 4.10).

#ifndef CQA_GRAPH_DIGRAPH_H_
#define CQA_GRAPH_DIGRAPH_H_

#include <unordered_set>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "data/database.h"

namespace cqa {

/// A finite digraph on nodes `0..num_nodes()-1` with deduplicated edges.
/// Loops are allowed (they matter: a loop is the tableau of the trivial
/// query Q_triv() :- E(x,x)).
class Digraph {
 public:
  Digraph() = default;

  /// A digraph with `n` isolated nodes.
  explicit Digraph(int n);

  int num_nodes() const { return n_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Adds a fresh node, returning its id.
  int AddNode();

  /// Adds `k` fresh nodes, returning the first id.
  int AddNodes(int k);

  /// Adds edge (u, v); duplicates ignored. Returns true if new.
  bool AddEdge(int u, int v);

  bool HasEdge(int u, int v) const;

  /// True if some node has a loop.
  bool HasLoop() const;

  /// All edges in insertion order.
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Out-/in-neighbor lists (may contain u itself for loops).
  const std::vector<int>& out_neighbors(int u) const;
  const std::vector<int>& in_neighbors(int u) const;

  /// Neighbors in the underlying undirected simple graph (no loops, no
  /// duplicates).
  std::vector<std::vector<int>> UnderlyingAdjacency() const;

  /// Image of this digraph under `image_of` into `new_size` nodes
  /// (edges mapped pointwise, deduplicated). Quotients and homomorphic
  /// images are computed this way.
  Digraph MapThrough(const std::vector<int>& image_of, int new_size) const;

  /// Subgraph induced by nodes with `keep[v]` true; `old_to_new` (optional)
  /// receives the relabeling (-1 dropped).
  Digraph InducedSubgraph(const std::vector<bool>& keep,
                          std::vector<int>* old_to_new) const;

  /// Adds a disjoint copy of `other`; returns the node-id shift applied.
  int AbsorbDisjoint(const Digraph& other);

  /// Conversion to/from the relational view over the graph vocabulary.
  Database ToDatabase() const;
  static Digraph FromDatabase(const Database& db);

  bool operator==(const Digraph& other) const;

 private:
  struct PairHash {
    size_t operator()(const std::pair<int, int>& p) const {
      return HashCombine(static_cast<size_t>(p.first),
                         static_cast<size_t>(p.second));
    }
  };

  int n_ = 0;
  std::vector<std::pair<int, int>> edges_;
  std::unordered_set<std::pair<int, int>, PairHash> edge_set_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
};

/// A digraph with designated initial and terminal nodes; the building block
/// of the appendix gadget constructions ("concatenation", "G^{-1}").
struct PointedDigraph {
  Digraph g;
  int initial = -1;
  int terminal = -1;
};

/// Concatenation a·b: disjoint union identifying a.terminal with b.initial
/// (paper, Section 8). Initial node is a.initial, terminal is b.terminal.
PointedDigraph Concat(const PointedDigraph& a, const PointedDigraph& b);

/// G^{-1}: same digraph with the roles of initial and terminal swapped.
PointedDigraph Invert(PointedDigraph a);

/// Identifies node `b` into node `a` within `g` (b's edges move to a; node b
/// is removed, ids above b shift down by one). Returns the relabeling.
std::vector<int> IdentifyNodes(Digraph* g, int a, int b);

}  // namespace cqa

#endif  // CQA_GRAPH_DIGRAPH_H_
