#include "decomp/treewidth.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "base/check.h"
#include "base/union_find.h"

namespace cqa {
namespace {

// Bitmask adjacency of the underlying simple graph (no loops).
std::vector<uint64_t> AdjMasks(const Digraph& g) {
  CQA_CHECK(g.num_nodes() <= 64);
  std::vector<uint64_t> adj(g.num_nodes(), 0);
  for (const auto& [u, v] : g.edges()) {
    if (u == v) continue;
    adj[u] |= uint64_t{1} << v;
    adj[v] |= uint64_t{1} << u;
  }
  return adj;
}

// Neighbors of v in the graph where `eliminated` vertices have been
// eliminated: vertices u (not eliminated, u != v) reachable from v via a
// path whose internal vertices are all eliminated.
uint64_t ReachableNeighborhood(const std::vector<uint64_t>& adj, int v,
                               uint64_t eliminated) {
  uint64_t frontier = adj[v] & eliminated;  // eliminated direct neighbors
  uint64_t visited = frontier | (uint64_t{1} << v);
  uint64_t result = adj[v] & ~eliminated;
  while (frontier != 0) {
    const int u = __builtin_ctzll(frontier);
    frontier &= frontier - 1;
    const uint64_t nbrs = adj[u];
    result |= nbrs & ~eliminated;
    const uint64_t fresh = nbrs & eliminated & ~visited;
    visited |= fresh;
    frontier |= fresh;
  }
  return result & ~(uint64_t{1} << v);
}

struct SearchContext {
  const std::vector<uint64_t>* adj;
  int n;
  int k;
  std::unordered_map<uint64_t, bool> memo;
  std::vector<int>* order_out;  // optional: elimination order on success
};

bool Search(SearchContext* ctx, uint64_t eliminated, int remaining) {
  if (remaining <= ctx->k + 1) {
    if (ctx->order_out != nullptr) {
      for (int v = 0; v < ctx->n; ++v) {
        if ((eliminated & (uint64_t{1} << v)) == 0) {
          ctx->order_out->push_back(v);
        }
      }
    }
    return true;
  }
  const auto it = ctx->memo.find(eliminated);
  if (it != ctx->memo.end()) {
    if (!it->second) return false;
    // When extracting a witness order we cannot shortcut on cached
    // successes (the memo stores no witness); fall through and recompute.
    if (ctx->order_out == nullptr) return true;
  }

  // The "simplicial/low-degree first" rule: if some vertex's current
  // neighborhood is a clique and has size <= k, eliminating it first is
  // always safe; commit to it without branching.
  int forced = -1;
  for (int v = 0; v < ctx->n && forced < 0; ++v) {
    if (eliminated & (uint64_t{1} << v)) continue;
    const uint64_t nb = ReachableNeighborhood(*ctx->adj, v, eliminated);
    const int deg = __builtin_popcountll(nb);
    if (deg > ctx->k) continue;
    bool clique = true;
    uint64_t rest = nb;
    while (rest != 0 && clique) {
      const int u = __builtin_ctzll(rest);
      rest &= rest - 1;
      const uint64_t nbu =
          ReachableNeighborhood(*ctx->adj, u, eliminated);
      if ((nb & ~(uint64_t{1} << u) & ~nbu) != 0) clique = false;
    }
    if (clique) forced = v;
  }
  if (forced >= 0) {
    const bool ok =
        Search(ctx, eliminated | (uint64_t{1} << forced), remaining - 1);
    if (ok && ctx->order_out != nullptr) ctx->order_out->push_back(forced);
    ctx->memo.emplace(eliminated, ok);
    return ok;
  }

  bool ok = false;
  for (int v = 0; v < ctx->n && !ok; ++v) {
    if (eliminated & (uint64_t{1} << v)) continue;
    const uint64_t nb = ReachableNeighborhood(*ctx->adj, v, eliminated);
    if (__builtin_popcountll(nb) > ctx->k) continue;
    if (Search(ctx, eliminated | (uint64_t{1} << v), remaining - 1)) {
      if (ctx->order_out != nullptr) ctx->order_out->push_back(v);
      ok = true;
    }
  }
  ctx->memo.emplace(eliminated, ok);
  return ok;
}

bool TreewidthAtMostImpl(const Digraph& g, int k, std::vector<int>* order) {
  if (k < 0) return g.num_nodes() == 0;
  if (g.num_nodes() == 0) return true;
  const std::vector<uint64_t> adj = AdjMasks(g);
  SearchContext ctx;
  ctx.adj = &adj;
  ctx.n = g.num_nodes();
  ctx.k = k;
  ctx.order_out = order;
  if (order != nullptr) order->clear();
  const bool ok = Search(&ctx, 0, g.num_nodes());
  if (ok && order != nullptr) {
    // Search appends in reverse (post-order); flip to elimination order.
    std::reverse(order->begin(), order->end());
  }
  return ok;
}

}  // namespace

bool TreewidthAtMost(const Digraph& g, int k) {
  return TreewidthAtMostImpl(g, k, nullptr);
}

int ExactTreewidth(const Digraph& g) {
  if (g.num_nodes() == 0) return -1;
  for (int k = 0; k < g.num_nodes(); ++k) {
    if (TreewidthAtMost(g, k)) return k;
  }
  return g.num_nodes() - 1;
}

std::vector<int> MinFillOrder(const Digraph& g) {
  const int n = g.num_nodes();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [u, v] : g.edges()) {
    if (u == v) continue;
    adj[u][v] = adj[v][u] = true;
  }
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  order.reserve(n);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_fill = -1;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      std::vector<int> nbrs;
      for (int u = 0; u < n; ++u) {
        if (!eliminated[u] && adj[v][u]) nbrs.push_back(u);
      }
      long fill = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          if (!adj[nbrs[i]][nbrs[j]]) ++fill;
        }
      }
      if (best < 0 || fill < best_fill) {
        best = v;
        best_fill = fill;
      }
    }
    order.push_back(best);
    eliminated[best] = true;
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (!eliminated[u] && adj[best][u]) nbrs.push_back(u);
    }
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[nbrs[i]][nbrs[j]] = adj[nbrs[j]][nbrs[i]] = true;
      }
    }
  }
  return order;
}

namespace {

// Shared helper: walks an elimination order, reporting each vertex's closed
// neighborhood (in the progressively filled graph) to `visit`.
template <typename Visitor>
void WalkOrder(const Digraph& g, const std::vector<int>& order,
               Visitor visit) {
  const int n = g.num_nodes();
  CQA_CHECK(static_cast<int>(order.size()) == n);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [u, v] : g.edges()) {
    if (u == v) continue;
    adj[u][v] = adj[v][u] = true;
  }
  std::vector<bool> eliminated(n, false);
  for (const int v : order) {
    CQA_CHECK(v >= 0 && v < n && !eliminated[v]);
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (!eliminated[u] && u != v && adj[v][u]) nbrs.push_back(u);
    }
    visit(v, nbrs);
    eliminated[v] = true;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[nbrs[i]][nbrs[j]] = adj[nbrs[j]][nbrs[i]] = true;
      }
    }
  }
}

// Contracts every tree edge whose one bag is a subset of the other into the
// larger bag, until no bag is a subset of a tree neighbour's. The survivor
// holds every vertex of the bag it absorbs, so each vertex's bags stay
// connected, and contracting forest edges leaves a forest: validity and
// width are unchanged.
TreeDecomposition KeepMaximalBags(const TreeDecomposition& td) {
  const int b = static_cast<int>(td.bags.size());
  UnionFind merged(b);
  std::vector<int> kept(b);  // per set root: the bag every set member fits in
  std::iota(kept.begin(), kept.end(), 0);
  const auto subset = [](const std::vector<int>& small,
                         const std::vector<int>& big) {
    return std::includes(big.begin(), big.end(), small.begin(), small.end());
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [x, y] : td.tree_edges) {
      const int rx = merged.Find(x);
      const int ry = merged.Find(y);
      if (rx == ry) continue;
      const std::vector<int>& bx = td.bags[kept[rx]];
      const std::vector<int>& by = td.bags[kept[ry]];
      if (!subset(bx, by) && !subset(by, bx)) continue;
      const int larger = bx.size() < by.size() ? kept[ry] : kept[rx];
      merged.Union(rx, ry);
      kept[merged.Find(x)] = larger;
      changed = true;
    }
  }
  const std::vector<int> label = merged.DenseLabels();
  TreeDecomposition out;
  out.bags.resize(merged.num_sets());
  for (int i = 0; i < b; ++i) {
    if (merged.Find(i) == i) out.bags[label[i]] = td.bags[kept[i]];
  }
  for (const auto& [x, y] : td.tree_edges) {
    if (label[x] != label[y]) out.tree_edges.emplace_back(label[x], label[y]);
  }
  return out;
}

}  // namespace

int WidthOfEliminationOrder(const Digraph& g, const std::vector<int>& order) {
  int width = -1;
  WalkOrder(g, order, [&](int /*v*/, const std::vector<int>& nbrs) {
    width = std::max(width, static_cast<int>(nbrs.size()));
  });
  return width;
}

TreeDecomposition DecompositionFromOrder(const Digraph& g,
                                         const std::vector<int>& order) {
  const int n = g.num_nodes();
  TreeDecomposition td;
  if (n == 0) return td;
  // Bag i = closed neighborhood of order[i] at elimination time. The parent
  // of bag i is the bag of the earliest-eliminated vertex among its
  // neighbors (standard construction).
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<std::vector<int>> bags(n);
  WalkOrder(g, order, [&](int v, const std::vector<int>& nbrs) {
    std::vector<int> bag = nbrs;
    bag.push_back(v);
    std::sort(bag.begin(), bag.end());
    bags[position[v]] = std::move(bag);
  });
  td.bags = std::move(bags);
  for (int i = 0; i < n; ++i) {
    const int v = order[i];
    // Find the next-eliminated neighbor in bag i.
    int parent_pos = -1;
    for (const int u : td.bags[i]) {
      if (u == v) continue;
      if (parent_pos < 0 || position[u] < parent_pos) parent_pos = position[u];
    }
    if (parent_pos >= 0) td.tree_edges.emplace_back(i, parent_pos);
  }
  return KeepMaximalBags(td);
}

TreeDecomposition MinFillDecomposition(const Digraph& g) {
  return DecompositionFromOrder(g, MinFillOrder(g));
}

TreeDecomposition ExactDecomposition(const Digraph& g) {
  if (g.num_nodes() == 0) return TreeDecomposition{};
  for (int k = 0; k < g.num_nodes(); ++k) {
    std::vector<int> order;
    if (TreewidthAtMostImpl(g, k, &order)) {
      // The search only records the tail once <= k+1 vertices remain plus
      // the branching prefix; order may be partial. Rebuild a full order:
      // vertices recorded first, then it is complete by construction.
      CQA_CHECK(static_cast<int>(order.size()) == g.num_nodes());
      return DecompositionFromOrder(g, order);
    }
  }
  return DecompositionFromOrder(g, MinFillOrder(g));  // unreachable
}

}  // namespace cqa
