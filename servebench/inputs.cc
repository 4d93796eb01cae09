#include "inputs.h"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace servebench {
namespace {

constexpr cqa::RelationId kEdge = 0;

template <typename T>
void Shuffle(std::vector<T>* items, cqa::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->UniformInt(i)]);
  }
}

long long PairKey(int u, int v) {
  return (static_cast<long long>(u) << 32) | static_cast<unsigned>(v);
}

constexpr int kCliqueSize = 5;
constexpr int kCliquePairs = kCliqueSize * (kCliqueSize - 1) / 2;
using Adjacency = std::array<std::array<bool, kCliqueSize>, kCliqueSize>;

// Tournament on 5 vertices from a 10-bit mask over the pairs i < j in
// lexicographic order: bit set = i -> j, clear = j -> i.
Adjacency FromMask(int mask) {
  Adjacency adj{};
  int bit = 0;
  for (int i = 0; i < kCliqueSize; ++i) {
    for (int j = i + 1; j < kCliqueSize; ++j, ++bit) {
      const bool forward = (mask >> bit) & 1;
      adj[i][j] = forward;
      adj[j][i] = !forward;
    }
  }
  return adj;
}

// The least mask over all relabellings: equal iff isomorphic.
int CanonicalMask(int mask) {
  const Adjacency adj = FromMask(mask);
  std::array<int, kCliqueSize> perm = {0, 1, 2, 3, 4};
  int best = 1 << kCliquePairs;
  do {
    Adjacency relabelled{};
    for (int i = 0; i < kCliqueSize; ++i) {
      for (int j = 0; j < kCliqueSize; ++j) {
        relabelled[perm[i]][perm[j]] = adj[i][j];
      }
    }
    int out = 0;
    int bit = 0;
    for (int i = 0; i < kCliqueSize; ++i) {
      for (int j = i + 1; j < kCliqueSize; ++j, ++bit) {
        if (relabelled[i][j]) out |= 1 << bit;
      }
    }
    best = std::min(best, out);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// One mask per isomorphism class, in a fixed order (the first mask of each
// class in increasing mask order).
std::vector<int> TournamentClasses() {
  std::vector<int> classes;
  std::unordered_set<int> seen;
  for (int mask = 0; mask < (1 << kCliquePairs); ++mask) {
    const int canon = CanonicalMask(mask);
    if (seen.insert(canon).second) classes.push_back(canon);
  }
  return classes;
}

}  // namespace

cqa::Database RandomGraph(int n, int m, int loops, cqa::Rng* rng) {
  cqa::Database db(cqa::Vocabulary::Graph(), n);
  for (cqa::Element e = 0; e < n; ++e) {
    db.SetElementName(e, "v" + std::to_string(e));
  }
  std::unordered_set<long long> taken;
  while (static_cast<int>(taken.size()) < loops) {
    const int u = static_cast<int>(rng->UniformInt(n));
    if (taken.insert(PairKey(u, u)).second) db.AddFact(kEdge, {u, u});
  }
  while (static_cast<int>(taken.size()) < m) {
    const int u = static_cast<int>(rng->UniformInt(n));
    const int v = static_cast<int>(rng->UniformInt(n));
    if (u == v || !taken.insert(PairKey(u, v)).second) continue;
    db.AddFact(kEdge, {u, v});
  }
  return db;
}

cqa::Database RegularGraph(int n, int degree, int loops, cqa::Rng* rng) {
  cqa::Database db(cqa::Vocabulary::Graph(), n);
  for (cqa::Element e = 0; e < n; ++e) {
    db.SetElementName(e, "v" + std::to_string(e));
  }
  std::unordered_set<long long> taken;
  std::vector<int> perm(static_cast<size_t>(n));
  for (int round = 0; round < degree;) {
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    Shuffle(&perm, rng);
    bool usable = true;
    for (int u = 0; u < n && usable; ++u) {
      const int v = perm[static_cast<size_t>(u)];
      usable = u != v && taken.count(PairKey(u, v)) == 0;
    }
    if (!usable) continue;  // resample this permutation
    for (int u = 0; u < n; ++u) {
      const int v = perm[static_cast<size_t>(u)];
      taken.insert(PairKey(u, v));
      db.AddFact(kEdge, {u, v});
    }
    ++round;
  }
  std::vector<int> looped(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) looped[static_cast<size_t>(i)] = i;
  Shuffle(&looped, rng);
  for (int i = 0; i < loops; ++i) {
    const int u = looped[static_cast<size_t>(i)];
    db.AddFact(kEdge, {u, u});
  }
  return db;
}

std::vector<Edge> FreshEdges(const cqa::Database& db, int count,
                             cqa::Rng* rng) {
  const int n = db.num_elements();
  std::unordered_set<long long> taken;
  for (const cqa::Tuple& t : db.facts(kEdge)) taken.insert(PairKey(t[0], t[1]));
  std::vector<Edge> out;
  while (static_cast<int>(out.size()) < count) {
    const int u = static_cast<int>(rng->UniformInt(n));
    const int v = static_cast<int>(rng->UniformInt(n));
    if (u == v || !taken.insert(PairKey(u, v)).second) continue;
    out.emplace_back(u, v);
  }
  return out;
}

std::string EdgeFact(const Edge& e) {
  return "E(v" + std::to_string(e.first) + ", v" + std::to_string(e.second) +
         ")";
}

std::vector<WireQuery> RowQueryPool() {
  // Each template twice, mirrored; the texts are fixed because their costs
  // differ (a 2-path with its first edge free plans differently from one
  // with its second edge free), so only the graph varies with the seed.
  const char* const texts[] = {
      "Q(x, y) :- E(x, y)",
      "Q(y, x) :- E(x, y)",
      "Q(x) :- E(x, y), E(y, z)",
      "Q(z) :- E(x, y), E(y, z)",
      "Q(x, y) :- E(x, y), E(y, z)",
      "Q(y, z) :- E(x, y), E(y, z)",
      "Q(x, a) :- E(x, a), E(b, x)",
      "Q(x, a) :- E(a, x), E(x, b)",
      "Q(x) :- E(x, a), E(x, b), E(c, x)",
      "Q(x) :- E(a, x), E(b, x), E(x, c)",
      "Q(x, a) :- E(x, a), E(b, x), E(c, x)",
      "Q(x, a) :- E(a, x), E(x, b), E(x, c)",
  };
  std::vector<WireQuery> pool;
  for (const char* text : texts) {
    pool.push_back(WireQuery{text, "exact", static_cast<int>(pool.size())});
  }
  return pool;
}

std::vector<std::string> CliqueShapes(cqa::Rng* rng) {
  const std::vector<int> classes = TournamentClasses();
  std::vector<std::string> shapes;
  for (size_t i = 0; i < 2 * classes.size(); ++i) {
    const size_t c = i % classes.size();
    const Adjacency adj = FromMask(classes[c]);
    std::vector<int> relabel = {0, 1, 2, 3, 4};
    Shuffle(&relabel, rng);
    std::vector<std::string> atoms;
    for (int i = 0; i < kCliqueSize; ++i) {
      for (int j = i + 1; j < kCliqueSize; ++j) {
        const int from = relabel[adj[i][j] ? i : j];
        const int to = relabel[adj[i][j] ? j : i];
        atoms.push_back("E(x" + std::to_string(from) + ", x" +
                        std::to_string(to) + ")");
      }
    }
    Shuffle(&atoms, rng);
    std::vector<int> vars = {0, 1, 2, 3, 4};
    Shuffle(&vars, rng);
    std::string text = "Q(";
    for (size_t f = 0; f < i % 3; ++f) {
      text += (f > 0 ? ", x" : "x") + std::to_string(vars[f]);
    }
    text += ") :- ";
    for (size_t a = 0; a < atoms.size(); ++a) {
      text += (a > 0 ? ", " : "") + atoms[a];
    }
    shapes.push_back(std::move(text));
  }
  return shapes;
}

}  // namespace servebench
