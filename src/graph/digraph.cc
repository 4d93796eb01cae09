#include "graph/digraph.h"

#include <algorithm>

#include "base/check.h"

namespace cqa {

Digraph::Digraph(int n) { AddNodes(n); }

int Digraph::AddNode() {
  out_.emplace_back();
  in_.emplace_back();
  return n_++;
}

int Digraph::AddNodes(int k) {
  CQA_CHECK(k >= 0);
  const int first = n_;
  for (int i = 0; i < k; ++i) AddNode();
  return first;
}

bool Digraph::AddEdge(int u, int v) {
  CQA_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (!edge_set_.insert({u, v}).second) return false;
  edges_.emplace_back(u, v);
  out_[u].push_back(v);
  in_[v].push_back(u);
  return true;
}

bool Digraph::HasEdge(int u, int v) const {
  return edge_set_.count({u, v}) > 0;
}

bool Digraph::HasLoop() const {
  for (const auto& [u, v] : edges_) {
    if (u == v) return true;
  }
  return false;
}

const std::vector<int>& Digraph::out_neighbors(int u) const {
  CQA_CHECK(u >= 0 && u < n_);
  return out_[u];
}

const std::vector<int>& Digraph::in_neighbors(int u) const {
  CQA_CHECK(u >= 0 && u < n_);
  return in_[u];
}

std::vector<std::vector<int>> Digraph::UnderlyingAdjacency() const {
  std::vector<std::unordered_set<int>> seen(n_);
  std::vector<std::vector<int>> adj(n_);
  for (const auto& [u, v] : edges_) {
    if (u == v) continue;
    if (seen[u].insert(v).second) adj[u].push_back(v);
    if (seen[v].insert(u).second) adj[v].push_back(u);
  }
  return adj;
}

Digraph Digraph::MapThrough(const std::vector<int>& image_of,
                            int new_size) const {
  CQA_CHECK(static_cast<int>(image_of.size()) == n_);
  Digraph out(new_size);
  for (const auto& [u, v] : edges_) {
    CQA_CHECK(image_of[u] >= 0 && image_of[u] < new_size);
    CQA_CHECK(image_of[v] >= 0 && image_of[v] < new_size);
    out.AddEdge(image_of[u], image_of[v]);
  }
  return out;
}

Digraph Digraph::InducedSubgraph(const std::vector<bool>& keep,
                                 std::vector<int>* old_to_new) const {
  CQA_CHECK(static_cast<int>(keep.size()) == n_);
  std::vector<int> map(n_, -1);
  int next = 0;
  for (int v = 0; v < n_; ++v) {
    if (keep[v]) map[v] = next++;
  }
  Digraph out(next);
  for (const auto& [u, v] : edges_) {
    if (map[u] >= 0 && map[v] >= 0) out.AddEdge(map[u], map[v]);
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

int Digraph::AbsorbDisjoint(const Digraph& other) {
  const int shift = n_;
  AddNodes(other.n_);
  for (const auto& [u, v] : other.edges_) AddEdge(u + shift, v + shift);
  return shift;
}

Database Digraph::ToDatabase() const {
  Database db(Vocabulary::Graph(), n_);
  for (const auto& [u, v] : edges_) db.AddFact(0, {u, v});
  return db;
}

Digraph Digraph::FromDatabase(const Database& db) {
  CQA_CHECK(db.vocab()->num_relations() == 1);
  CQA_CHECK(db.vocab()->arity(0) == 2);
  Digraph g(db.num_elements());
  const ColumnStore& edges = db.facts(0);
  for (size_t i = 0; i < edges.size(); ++i) {
    g.AddEdge(edges.at(i, 0), edges.at(i, 1));
  }
  return g;
}

bool Digraph::operator==(const Digraph& other) const {
  if (n_ != other.n_ || edges_.size() != other.edges_.size()) return false;
  for (const auto& e : edges_) {
    if (other.edge_set_.count(e) == 0) return false;
  }
  return true;
}

PointedDigraph Concat(const PointedDigraph& a, const PointedDigraph& b) {
  CQA_CHECK(a.initial >= 0 && a.terminal >= 0);
  CQA_CHECK(b.initial >= 0 && b.terminal >= 0);
  PointedDigraph out;
  out.g = a.g;
  const int shift = out.g.AbsorbDisjoint(b.g);
  // Identify a.terminal with b.initial (shifted).
  std::vector<int> relabel =
      IdentifyNodes(&out.g, a.terminal, b.initial + shift);
  out.initial = relabel[a.initial];
  out.terminal = relabel[b.terminal + shift];
  return out;
}

PointedDigraph Invert(PointedDigraph a) {
  std::swap(a.initial, a.terminal);
  return a;
}

std::vector<int> IdentifyNodes(Digraph* g, int a, int b) {
  const int n = g->num_nodes();
  CQA_CHECK(a >= 0 && a < n && b >= 0 && b < n);
  std::vector<int> map(n);
  if (a == b) {
    for (int v = 0; v < n; ++v) map[v] = v;
    return map;
  }
  int next = 0;
  for (int v = 0; v < n; ++v) {
    if (v == b) {
      map[v] = -2;  // placeholder; resolved below
    } else {
      map[v] = next++;
    }
  }
  map[b] = map[a];
  *g = g->MapThrough(map, n - 1);
  return map;
}

}  // namespace cqa
