#include "gadgets/section53.h"

#include <algorithm>

#include "base/check.h"
#include "cq/parse.h"

namespace cqa {
namespace {

VocabularyPtr Ternary() { return Vocabulary::Single("R", 3); }

// Occurrence count of variable v in atom.
int Occurrences(const Atom& atom, int v) {
  int count = 0;
  for (const int u : atom.vars) count += (u == v);
  return count;
}

}  // namespace

ConjunctiveQuery BuildProp513Query(const ConjunctiveQuery& q_prime, int n) {
  q_prime.Validate();
  CQA_CHECK(q_prime.IsBoolean());
  CQA_CHECK(q_prime.vocab()->num_relations() == 1);
  const int m = q_prime.vocab()->arity(0);
  CQA_CHECK(m > 2);
  CQA_CHECK(n > m);
  CQA_CHECK(q_prime.num_variables() <= 2);

  ConjunctiveQuery q(q_prime.vocab());
  q.AddVariables(n);
  for (int v = 0; v < n; ++v) q.SetVariableName(v, "x" + std::to_string(v + 1));
  // Query variables are 0-based: paper's x_t is our variable t - 1.
  auto xv = [&](int t) { return t - 1; };

  // Branch 1: an atom where some variable occurs exactly twice.
  int star_atom = -1;
  int star_y = -1;
  for (size_t i = 0; i < q_prime.atoms().size() && star_atom < 0; ++i) {
    for (int v = 0; v < q_prime.num_variables(); ++v) {
      if (Occurrences(q_prime.atoms()[i], v) == 2) {
        star_atom = static_cast<int>(i);
        star_y = v;
        break;
      }
    }
  }

  // Expands a non-star atom: x-positions become x1, the r y-occurrences
  // become x2..x_{r+1} in order.
  auto expand_other = [&](const Atom& atom, int y) {
    std::vector<int> vars(atom.vars.size());
    int next = 2;
    for (size_t p = 0; p < atom.vars.size(); ++p) {
      vars[p] = (atom.vars[p] == y) ? xv(next++) : xv(1);
    }
    q.AddAtom(0, std::move(vars));
  };

  if (star_atom >= 0) {
    const Atom& star = q_prime.atoms()[star_atom];
    // Positions of y in the star atom.
    std::vector<int> ypos;
    for (size_t p = 0; p < star.vars.size(); ++p) {
      if (star.vars[p] == star_y) ypos.push_back(static_cast<int>(p));
    }
    CQA_CHECK(ypos.size() == 2);
    for (int i = 2; i <= n; ++i) {
      for (int j = i; j <= n; ++j) {
        std::vector<int> vars(star.vars.size(), xv(1));
        vars[ypos[0]] = xv(i);
        vars[ypos[1]] = xv(j);
        q.AddAtom(0, std::move(vars));
      }
    }
    for (size_t i = 0; i < q_prime.atoms().size(); ++i) {
      if (static_cast<int>(i) == star_atom) continue;
      expand_other(q_prime.atoms()[i], star_y);
    }
  } else {
    // Branch 2: pick the atom with the minimum repetition count p (> 2).
    int best_atom = -1, best_y = -1, best_p = m + 1;
    for (size_t i = 0; i < q_prime.atoms().size(); ++i) {
      for (int v = 0; v < q_prime.num_variables(); ++v) {
        const int occ = Occurrences(q_prime.atoms()[i], v);
        if (occ >= 2 && occ < best_p) {
          best_p = occ;
          best_atom = static_cast<int>(i);
          best_y = v;
        }
      }
    }
    CQA_CHECK(best_atom >= 0);
    const Atom& star = q_prime.atoms()[best_atom];
    std::vector<int> ypos;
    for (size_t p = 0; p < star.vars.size(); ++p) {
      if (star.vars[p] == best_y) ypos.push_back(static_cast<int>(p));
    }
    const int p = best_p;
    for (int i = p; i <= n; ++i) {
      for (int j = i + 1; j <= n; ++j) {
        std::vector<int> vars(star.vars.size(), xv(1));
        for (int t = 0; t + 2 < p; ++t) vars[ypos[t]] = xv(2 + t);
        vars[ypos[p - 2]] = xv(i);
        vars[ypos[p - 1]] = xv(j);
        q.AddAtom(0, std::move(vars));
      }
    }
    for (int i = 2; i <= n; ++i) {
      std::vector<int> vars(star.vars.size(), xv(1));
      for (const int pos : ypos) vars[pos] = xv(i);
      q.AddAtom(0, std::move(vars));
    }
    for (size_t i = 0; i < q_prime.atoms().size(); ++i) {
      if (static_cast<int>(i) == best_atom) continue;
      expand_other(q_prime.atoms()[i], best_y);
    }
  }
  q.SetFreeVariables({});
  q.Validate();
  return q;
}

Prop514Pair BuildProp514Pair(int k) {
  CQA_CHECK(k >= 3);
  auto vocab = Vocabulary::Single("R", k);
  Prop514Pair out{ConjunctiveQuery(vocab), ConjunctiveQuery(vocab)};

  // Q over variables x1..x_{k+1} (0-based ids 0..k).
  ConjunctiveQuery& q = out.q;
  q.AddVariables(k + 1);
  for (int v = 0; v <= k; ++v) q.SetVariableName(v, "x" + std::to_string(v + 1));
  auto xv = [&](int t) { return t - 1; };
  {
    // R(x1, x2, x3, x4, ..., xk)
    std::vector<int> a1;
    for (int t = 1; t <= k; ++t) a1.push_back(xv(t));
    q.AddAtom(0, a1);
    // R(x2, x1, x_{k+1}, x4, ..., xk)
    std::vector<int> a2 = a1;
    a2[0] = xv(2);
    a2[1] = xv(1);
    a2[2] = xv(k + 1);
    q.AddAtom(0, a2);
    // R(x3, x_{k+1}, x1, x4, ..., xk)
    std::vector<int> a3 = a1;
    a3[0] = xv(3);
    a3[1] = xv(k + 1);
    a3[2] = xv(1);
    q.AddAtom(0, a3);
    // R(xj, ..., xj, x1, xj, ..., xj) with x1 in position j (1-based),
    // for 4 <= j <= k.
    for (int j = 4; j <= k; ++j) {
      std::vector<int> aj(k, xv(j));
      aj[j - 1] = xv(1);
      q.AddAtom(0, aj);
    }
  }
  q.SetFreeVariables({});
  q.Validate();

  // Q': k atoms, x in each position once, y elsewhere.
  ConjunctiveQuery& qp = out.q_prime;
  const int x = qp.AddVariable("x");
  const int y = qp.AddVariable("y");
  for (int pos = 0; pos < k; ++pos) {
    std::vector<int> vars(k, y);
    vars[pos] = x;
    qp.AddAtom(0, std::move(vars));
  }
  qp.SetFreeVariables({});
  qp.Validate();
  return out;
}

Prop515Pair BuildProp515Pair() {
  Prop515Pair out{
      MustParseQuery(Ternary(),
                     "Q() :- R(x1,x2,x3), R(x2,x1,x4), R(x4,x3,x1)"),
      MustParseQuery(Ternary(), "Q() :- R(x,y,y), R(y,x,y), R(y,y,x)")};
  return out;
}

bool IsAlmostTriangle(const Database& db) {
  CQA_CHECK(db.vocab()->num_relations() == 1);
  CQA_CHECK(db.vocab()->arity(0) == 3);
  const auto& triples = db.facts(0);
  if (triples.size() != 3) return false;
  for (Element pivot = 0; pivot < db.num_elements(); ++pivot) {
    bool in_all = true;
    std::vector<std::pair<Element, Element>> pairs;
    for (const Tuple& t : triples) {
      // Remove the first occurrence of pivot.
      int removed = -1;
      for (int i = 0; i < 3 && removed < 0; ++i) {
        if (t[i] == pivot) removed = i;
      }
      if (removed < 0) {
        in_all = false;
        break;
      }
      std::vector<Element> rest;
      for (int i = 0; i < 3; ++i) {
        if (i != removed) rest.push_back(t[i]);
      }
      pairs.emplace_back(rest[0], rest[1]);
    }
    if (!in_all) continue;
    // Do the pairs form a triangle on 3 distinct nodes? (The paper reads
    // the leftover pairs as graph edges: {1,2},{2,3},{3,1} is a triangle;
    // for Prop 5.15's query the pairs come out as {x2,x3},{x2,x4},{x4,x3}.)
    std::vector<Element> nodes;
    bool loop = false;
    for (const auto& [u, v] : pairs) {
      nodes.push_back(u);
      nodes.push_back(v);
      loop |= (u == v);
    }
    if (loop) continue;
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (nodes.size() != 3) continue;
    // Three loop-free pairs over exactly three nodes form a triangle iff
    // no two pairs connect the same endpoints.
    // By value: std::minmax returns references into its arguments.
    auto undirected = [](std::pair<Element, Element> p) {
      return std::pair<Element, Element>(std::minmax(p.first, p.second));
    };
    const auto e0 = undirected(pairs[0]);
    const auto e1 = undirected(pairs[1]);
    const auto e2 = undirected(pairs[2]);
    if (e0 != e1 && e1 != e2 && e0 != e2) return true;
  }
  return false;
}

}  // namespace cqa
