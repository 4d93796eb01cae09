#include "eval/treewidth_eval.h"

#include <algorithm>
#include <functional>

#include "base/check.h"
#include "base/union_find.h"
#include "cq/properties.h"
#include "decomp/treewidth.h"
#include "eval/probe_core.h"
#include "eval/var_table.h"

namespace cqa {
namespace {

// Candidate values per variable: elements occurring at the variable's
// positions in its atoms' relations (intersection across occurrences),
// computed only for the variables `wanted` marks (others stay empty). With
// a view, per-column value lists come from its cache (built once per
// (relation, position), shared across queries and jobs).
std::vector<std::vector<Element>> VariableCandidates(
    const ConjunctiveQuery& q, const Database& db, const IndexedDatabase* idb,
    const std::vector<bool>& wanted, EvalStats* stats) {
  const int n = q.num_variables();
  std::vector<std::vector<Element>> candidates(n);
  std::vector<bool> seeded(n, false);
  for (const Atom& atom : q.atoms()) {
    for (size_t pos = 0; pos < atom.vars.size(); ++pos) {
      const int v = atom.vars[pos];
      if (!wanted[v]) continue;
      std::vector<Element> local;
      const std::vector<Element>* values = nullptr;
      if (idb != nullptr) {
        bool built = false;
        values =
            idb->ColumnValues(atom.rel, static_cast<int>(pos), &built);
        if (stats != nullptr && values != nullptr) {
          if (built) {
            ++stats->index_builds;
          } else {
            ++stats->table_reuses;
          }
        }
      }
      if (values == nullptr) {
        const std::span<const Element> column =
            db.facts(atom.rel).Column(static_cast<int>(pos));
        local.assign(column.begin(), column.end());
        std::sort(local.begin(), local.end());
        local.erase(std::unique(local.begin(), local.end()), local.end());
        values = &local;
      }
      if (!seeded[v]) {
        candidates[v] = *values;
        seeded[v] = true;
      } else {
        std::vector<Element> merged;
        std::set_intersection(candidates[v].begin(), candidates[v].end(),
                              values->begin(), values->end(),
                              std::back_inserter(merged));
        candidates[v] = std::move(merged);
      }
    }
  }
  return candidates;
}

// Materializes the table of one bag: all assignments of the bag's variables
// (from per-variable candidates) satisfying every atom fully contained in
// the bag. O(prod |candidates|) = O(|D|^{k+1}). Each enumeration step counts
// one node before it polls `ctx`, as in the probe core.
VarTable BagTable(const std::vector<int>& bag,
                  const std::vector<const Atom*>& bag_atoms,
                  const std::vector<std::vector<Element>>& candidates,
                  const Database& db, EvalStats* stats,
                  const EvalContext* ctx) {
  VarTable out;
  out.vars = bag;
  out.rows = ColumnStore(static_cast<int>(bag.size()));
  Tuple row(bag.size());
  bool stopped = false;  // partial bag table = subset: sound downstream
  std::function<void(size_t)> enumerate = [&](size_t i) {
    if (stats != nullptr) ++stats->nodes;
    if (ctx != nullptr && ctx->Interrupted()) {
      stopped = true;
      return;
    }
    if (i == bag.size()) {
      for (const Atom* atom : bag_atoms) {
        Tuple fact(atom->vars.size());
        for (size_t j = 0; j < atom->vars.size(); ++j) {
          const auto it =
              std::lower_bound(bag.begin(), bag.end(), atom->vars[j]);
          fact[j] = row[it - bag.begin()];
        }
        if (!db.HasFact(atom->rel, fact)) return;
      }
      out.rows.AppendRow(row);
      return;
    }
    for (const Element e : candidates[bag[i]]) {
      row[i] = e;
      enumerate(i + 1);
      if (stopped) return;
    }
  };
  enumerate(0);
  return out;
}

// Indexed bag materialization: the shared probe-backtracking core searches
// every atom whose scope lies inside the bag (probing the relation index for
// the positions bound so far, exactly like the naive engine). Candidate
// lists fill only bag variables that no in-bag atom mentions. The resulting
// table may be a superset of the scan-based bag table (scan also filters
// atom-bound variables through their global candidate lists), but the join
// over all bags — and hence the final answer set — is identical: every
// satisfying assignment passes both.
VarTable IndexedBagTable(const std::vector<int>& bag,
                         const std::vector<const Atom*>& bag_atoms,
                         const std::vector<std::vector<Element>>& candidates,
                         const IndexedDatabase& idb, EvalStats* stats,
                         const EvalContext* ctx) {
  VarTable out;
  out.vars = bag;
  out.rows = ColumnStore(static_cast<int>(bag.size()));

  const auto rank_of = [&](int v) {
    const auto it = std::lower_bound(bag.begin(), bag.end(), v);
    CQA_CHECK(it != bag.end() && *it == v);
    return static_cast<int>(it - bag.begin());
  };

  // The bag's atoms as probe atoms (slot = rank of the variable within the
  // bag), in the greedy connected trial order.
  std::vector<ProbeAtom> atoms;
  atoms.reserve(bag_atoms.size());
  for (const Atom* atom : bag_atoms) {
    ProbeAtom pa;
    pa.rel = atom->rel;
    pa.slots.reserve(atom->vars.size());
    for (const int v : atom->vars) pa.slots.push_back(rank_of(v));
    atoms.push_back(std::move(pa));
  }
  std::vector<ProbeAtom> ordered = GreedyProbeOrder(
      std::move(atoms), std::vector<bool>(bag.size(), false));

  // Bag variables no in-bag atom constrains: enumerated from candidates.
  std::vector<bool> covered(bag.size(), false);
  for (const ProbeAtom& pa : ordered) {
    for (const int s : pa.slots) covered[s] = true;
  }
  std::vector<size_t> leftover;
  for (size_t r = 0; r < bag.size(); ++r) {
    if (!covered[r]) leftover.push_back(r);
  }

  Tuple row(bag.size(), -1);
  bool stopped = false;  // partial bag table = subset: sound downstream
  std::function<void(size_t)> fill_leftover = [&](size_t i) {
    if (ctx != nullptr && ctx->Interrupted()) {
      stopped = true;
      return;
    }
    if (i == leftover.size()) {
      out.rows.AppendRow(row);
      return;
    }
    for (const Element e : candidates[bag[leftover[i]]]) {
      row[leftover[i]] = e;
      fill_leftover(i + 1);
      if (stopped) break;
    }
    row[leftover[i]] = -1;
  };

  ProbeBacktracker search(std::move(ordered), static_cast<int>(bag.size()),
                          std::vector<bool>(bag.size(), false), idb.db(),
                          &idb, stats, ctx);
  std::vector<Element> assignment(bag.size(), -1);
  search.Search(&assignment, [&](std::span<const Element> a) {
    std::copy(a.begin(), a.end(), row.begin());
    fill_leftover(0);
    return stopped;
  });
  return out;
}

AnswerSet RunTreewidth(const ConjunctiveQuery& q, const Database& db,
                       const IndexedDatabase* idb,
                       const TreeDecomposition& td, EvalStats* stats,
                       const EvalContext* ctx) {
  q.Validate();
  CQA_CHECK(ValidateTreeDecomposition(td, GraphOfQuery(q)));
  const int b = static_cast<int>(td.bags.size());
  if (b == 0) {
    // No variables, so every atom is nullary: Q(D) = {()} iff every such
    // proposition holds in D.
    AnswerSet out(0);
    for (const Atom& atom : q.atoms()) {
      if (db.facts(atom.rel).empty()) return out;
    }
    out.Insert({});
    return out;
  }

  // Check each atom in every bag that contains all its variables (one
  // exists by the clique-containment property of tree decompositions).
  // Every answer satisfies every atom, so each bag table still holds the
  // projection of Q(D), and a bag falls back to candidate lists only for a
  // variable that no atom inside it mentions.
  std::vector<std::vector<const Atom*>> atoms_of_bag(b);
  for (const Atom& atom : q.atoms()) {
    std::vector<int> scope = atom.vars;
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    bool placed = false;
    for (int i = 0; i < b; ++i) {
      if (std::includes(td.bags[i].begin(), td.bags[i].end(), scope.begin(),
                        scope.end())) {
        atoms_of_bag[i].push_back(&atom);
        placed = true;
      }
    }
    CQA_CHECK(placed);
  }

  // The scan BagTable enumerates every bag variable from its candidate
  // list; the indexed bag search reads one only for a bag variable that no
  // atom inside the bag mentions, so only those are computed.
  std::vector<bool> wanted(q.num_variables(), idb == nullptr);
  if (idb != nullptr) {
    for (int i = 0; i < b; ++i) {
      std::vector<bool> mentioned(q.num_variables(), false);
      for (const Atom* atom : atoms_of_bag[i]) {
        for (const int v : atom->vars) mentioned[v] = true;
      }
      for (const int v : td.bags[i]) {
        if (!mentioned[v]) wanted[v] = true;
      }
    }
  }
  const auto candidates = VariableCandidates(q, db, idb, wanted, stats);
  std::vector<VarTable> tables(b);
  for (int i = 0; i < b; ++i) {
    tables[i] = idb != nullptr
                    ? IndexedBagTable(td.bags[i], atoms_of_bag[i], candidates,
                                      *idb, stats, ctx)
                    : BagTable(td.bags[i], atoms_of_bag[i], candidates, db,
                               stats, ctx);
  }

  // Orient the decomposition forest.
  std::vector<int> parent(b, -1);
  {
    std::vector<std::vector<int>> adj(b);
    for (const auto& [x, y] : td.tree_edges) {
      adj[x].push_back(y);
      adj[y].push_back(x);
    }
    std::vector<bool> visited(b, false);
    for (int r = 0; r < b; ++r) {
      if (visited[r]) continue;
      visited[r] = true;
      std::vector<int> stack = {r};
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (const int v : adj[u]) {
          if (!visited[v]) {
            visited[v] = true;
            parent[v] = u;
            stack.push_back(v);
          }
        }
      }
    }
  }
  return EvaluateJoinForest(std::move(tables), parent, q.free_variables(),
                            idb, stats, ctx);
}

}  // namespace

AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q, const Database& db,
                            const TreeDecomposition& td, EvalStats* stats,
                            const EvalContext* ctx) {
  return RunTreewidth(q, db, /*idb=*/nullptr, td, stats, ctx);
}

AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q, const Database& db,
                            EvalStats* stats, const EvalContext* ctx) {
  return EvaluateTreewidth(q, db, MinFillDecomposition(GraphOfQuery(q)),
                           stats, ctx);
}

AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q,
                            const IndexedDatabase& idb,
                            const TreeDecomposition& td, EvalStats* stats,
                            const EvalContext* ctx) {
  return RunTreewidth(q, idb.db(), &idb, td, stats, ctx);
}

AnswerSet EvaluateTreewidth(const ConjunctiveQuery& q,
                            const IndexedDatabase& idb, EvalStats* stats,
                            const EvalContext* ctx) {
  return EvaluateTreewidth(q, idb, MinFillDecomposition(GraphOfQuery(q)),
                           stats, ctx);
}

}  // namespace cqa
