#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/check.h"

namespace cqa {

Hypergraph::Hypergraph(int num_nodes) { AddNodes(num_nodes); }

int Hypergraph::AddNode() {
  edges_of_.emplace_back();
  return n_++;
}

int Hypergraph::AddNodes(int k) {
  CQA_CHECK(k >= 0);
  const int first = n_;
  for (int i = 0; i < k; ++i) AddNode();
  return first;
}

int Hypergraph::AddEdge(std::vector<int> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (nodes.empty()) return -1;
  for (const int v : nodes) CQA_CHECK(v >= 0 && v < n_);
  for (int i = 0; i < num_edges(); ++i) {
    if (edges_[i] == nodes) return i;
  }
  const int idx = num_edges();
  for (const int v : nodes) edges_of_[v].push_back(idx);
  edges_.push_back(std::move(nodes));
  return idx;
}

const std::vector<int>& Hypergraph::edge(int i) const {
  CQA_CHECK(i >= 0 && i < num_edges());
  return edges_[i];
}

const std::vector<int>& Hypergraph::edges_of(int v) const {
  CQA_CHECK(v >= 0 && v < n_);
  return edges_of_[v];
}

Hypergraph Hypergraph::InducedSubhypergraph(const std::vector<bool>& keep,
                                            std::vector<int>* old_to_new) const {
  CQA_CHECK(static_cast<int>(keep.size()) == n_);
  std::vector<int> map(n_, -1);
  int next = 0;
  for (int v = 0; v < n_; ++v) {
    if (keep[v]) map[v] = next++;
  }
  Hypergraph out(next);
  for (const auto& e : edges_) {
    std::vector<int> mapped;
    for (const int v : e) {
      if (map[v] >= 0) mapped.push_back(map[v]);
    }
    if (!mapped.empty()) out.AddEdge(std::move(mapped));
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

int Hypergraph::ExtendEdge(int i, int count) {
  CQA_CHECK(i >= 0 && i < num_edges());
  CQA_CHECK(count >= 0);
  const int first = AddNodes(count);
  std::vector<int> extended = edges_[i];
  for (int j = 0; j < count; ++j) extended.push_back(first + j);
  // Rebuild edge i in place (stays sorted: fresh ids are largest).
  edges_[i] = extended;
  for (int j = 0; j < count; ++j) edges_of_[first + j].push_back(i);
  return first;
}

Digraph Hypergraph::PrimalGraph() const {
  Digraph g(n_);
  for (const auto& e : edges_) {
    for (size_t i = 0; i < e.size(); ++i) {
      for (size_t j = i + 1; j < e.size(); ++j) {
        g.AddEdge(e[i], e[j]);
        g.AddEdge(e[j], e[i]);
      }
    }
  }
  return g;
}

Hypergraph HypergraphOfDatabase(const Database& db) {
  Hypergraph h(db.num_elements());
  for (RelationId r = 0; r < db.vocab()->num_relations(); ++r) {
    for (Tuple t : db.facts(r)) h.AddEdge(std::move(t));
  }
  return h;
}

Digraph GaifmanGraph(const Database& db) {
  return HypergraphOfDatabase(db).PrimalGraph();
}

}  // namespace cqa
