#include "gadgets/workloads.h"

#include <numeric>
#include <string>
#include <vector>

#include "base/check.h"

namespace cqa {

ConjunctiveQuery RandomGraphCQ(int num_vars, int num_atoms, Rng* rng,
                               int num_free, bool allow_loops) {
  CQA_CHECK(num_vars >= 1 && num_atoms >= 1);
  CQA_CHECK(num_free >= 0 && num_free <= num_vars);
  ConjunctiveQuery q(Vocabulary::Graph());
  q.AddVariables(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    q.SetVariableName(v, "x" + std::to_string(v));
  }
  // Safety: cover all variables first via a random spanning chain (always,
  // so every variable occurs in an atom), then add the remaining atoms
  // uniformly. num_atoms is treated as a lower bound of num_vars - 1.
  int atoms_left = num_atoms;
  if (num_vars == 1) {
    q.AddAtom(0, {0, 0});  // the only safe atom over one variable
    --atoms_left;
  }
  for (int v = 1; v < num_vars; ++v) {
    const int other = static_cast<int>(rng->UniformInt(v));
    if (rng->Bernoulli(0.5)) {
      q.AddAtom(0, {other, v});
    } else {
      q.AddAtom(0, {v, other});
    }
    --atoms_left;
  }
  while (atoms_left > 0) {
    const int u = static_cast<int>(rng->UniformInt(num_vars));
    int v = static_cast<int>(rng->UniformInt(num_vars));
    if (!allow_loops) {
      while (v == u && num_vars > 1) {
        v = static_cast<int>(rng->UniformInt(num_vars));
      }
      if (v == u) break;
    }
    q.AddAtom(0, {u, v});
    --atoms_left;
  }
  std::vector<int> free_vars;
  for (int i = 0; i < num_free; ++i) free_vars.push_back(i);
  q.SetFreeVariables(std::move(free_vars));
  q.Validate();
  return q;
}

ConjunctiveQuery RandomCQ(VocabularyPtr vocab, int num_vars, int num_atoms,
                          Rng* rng, int num_free) {
  CQA_CHECK(num_vars >= 1 && num_atoms >= 1);
  CQA_CHECK(num_free >= 0 && num_free <= num_vars);
  ConjunctiveQuery q(vocab);
  q.AddVariables(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    q.SetVariableName(v, "x" + std::to_string(v));
  }
  // Cover variables round-robin through the first atoms, then fill
  // uniformly.
  int next_uncovered = 0;
  for (int i = 0; i < num_atoms; ++i) {
    const RelationId r =
        static_cast<RelationId>(rng->UniformInt(vocab->num_relations()));
    const int arity = vocab->arity(r);
    std::vector<int> vars(arity);
    for (int p = 0; p < arity; ++p) {
      if (next_uncovered < num_vars) {
        vars[p] = next_uncovered++;
      } else {
        vars[p] = static_cast<int>(rng->UniformInt(num_vars));
      }
    }
    q.AddAtom(r, std::move(vars));
  }
  // If variables remain uncovered (too few atom slots), extend with extra
  // atoms until safe.
  while (next_uncovered < num_vars) {
    const RelationId r =
        static_cast<RelationId>(rng->UniformInt(vocab->num_relations()));
    const int arity = vocab->arity(r);
    std::vector<int> vars(arity);
    for (int p = 0; p < arity; ++p) {
      vars[p] = (next_uncovered < num_vars)
                    ? next_uncovered++
                    : static_cast<int>(rng->UniformInt(num_vars));
    }
    q.AddAtom(r, std::move(vars));
  }
  std::vector<int> free_vars;
  for (int i = 0; i < num_free; ++i) free_vars.push_back(i);
  q.SetFreeVariables(std::move(free_vars));
  q.Validate();
  return q;
}

ConjunctiveQuery RandomCyclicGraphCQ(int cycle_len, int extra_atoms,
                                     Rng* rng) {
  CQA_CHECK(cycle_len >= 3);
  CQA_CHECK(extra_atoms >= 0);
  ConjunctiveQuery q(Vocabulary::Graph());
  q.AddVariables(cycle_len);
  for (int v = 0; v < cycle_len; ++v) {
    q.SetVariableName(v, "x" + std::to_string(v));
  }
  // Randomly oriented cycle: all three trichotomy regimes are reachable
  // (all-forward cycles are never balanced; mixed orientations can be).
  for (int v = 0; v < cycle_len; ++v) {
    const int next = (v + 1) % cycle_len;
    if (rng->Bernoulli(0.5)) {
      q.AddAtom(0, {v, next});
    } else {
      q.AddAtom(0, {next, v});
    }
  }
  for (int i = 0; i < extra_atoms; ++i) {
    // Pendants grow the variable count; chords densify.
    if (rng->Bernoulli(0.5)) {
      const int u = static_cast<int>(rng->UniformInt(q.num_variables()));
      const int fresh = q.AddVariable("y" + std::to_string(i));
      if (rng->Bernoulli(0.5)) {
        q.AddAtom(0, {u, fresh});
      } else {
        q.AddAtom(0, {fresh, u});
      }
    } else {
      const int u = static_cast<int>(rng->UniformInt(q.num_variables()));
      const int v = static_cast<int>(rng->UniformInt(q.num_variables()));
      if (u != v) q.AddAtom(0, {u, v});
    }
  }
  q.SetFreeVariables({});
  q.Validate();
  return q;
}

ConjunctiveQuery RandomTournamentCQ(int size, int num_free, Rng* rng) {
  CQA_CHECK(size >= 1 && num_free >= 0 && num_free <= size);
  ConjunctiveQuery q(Vocabulary::Graph());
  q.AddVariables(size);
  for (int v = 0; v < size; ++v) {
    q.SetVariableName(v, "x" + std::to_string(v));
  }
  for (int u = 0; u < size; ++u) {
    for (int v = u + 1; v < size; ++v) {
      if (rng->Bernoulli(0.5)) {
        q.AddAtom(0, {u, v});
      } else {
        q.AddAtom(0, {v, u});
      }
    }
  }
  std::vector<int> free_vars(num_free);
  std::iota(free_vars.begin(), free_vars.end(), 0);
  q.SetFreeVariables(free_vars);
  q.Validate();
  return q;
}

ConjunctiveQuery TriangleOutputCQ() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariable("x");
  const int y = q.AddVariable("y");
  const int z = q.AddVariable("z");
  q.AddAtom(0, {x, y});
  q.AddAtom(0, {y, z});
  q.AddAtom(0, {z, x});
  q.SetFreeVariables({x, z});
  return q;
}

ConjunctiveQuery EdgeEnumerationCQ() {
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariable("x");
  const int y = q.AddVariable("y");
  q.AddAtom(0, {x, y});
  q.SetFreeVariables({x, y});
  return q;
}

ConjunctiveQuery StarCQ(int arms) {
  CQA_CHECK(arms >= 1);
  ConjunctiveQuery q(Vocabulary::Graph());
  const int x = q.AddVariable("x");
  std::vector<int> free_vars = {x};
  for (int i = 0; i < arms; ++i) {
    const int y = q.AddVariable("y" + std::to_string(i));
    q.AddAtom(0, {x, y});
    free_vars.push_back(y);
  }
  q.SetFreeVariables(free_vars);
  return q;
}

}  // namespace cqa
