#include "eval/var_table.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash.h"
#include "eval/probe_core.h"

namespace cqa {
namespace {

// Positions of `wanted` variables inside `vars` (both sorted).
std::vector<int> PositionsOf(const std::vector<int>& wanted,
                             const std::vector<int>& vars) {
  std::vector<int> pos;
  pos.reserve(wanted.size());
  for (const int w : wanted) {
    const auto it = std::lower_bound(vars.begin(), vars.end(), w);
    CQA_CHECK(it != vars.end() && *it == w);
    pos.push_back(static_cast<int>(it - vars.begin()));
  }
  return pos;
}

std::vector<int> SharedVars(const std::vector<int>& a,
                            const std::vector<int>& b) {
  std::vector<int> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  return shared;
}

// Row-major flat keys of `rows` restricted to columns `pos` — the build
// input of a KeyedRowGroups. Reads column-major, scatters row-major.
std::vector<Element> FlatKeysOfColumns(const ColumnStore& rows,
                                       const std::vector<int>& pos) {
  const size_t n = rows.size();
  const size_t k = pos.size();
  std::vector<Element> keys(n * k);
  for (size_t j = 0; j < k; ++j) {
    const std::span<const Element> col = rows.Column(pos[j]);
    for (size_t r = 0; r < n; ++r) keys[r * k + j] = col[r];
  }
  return keys;
}

}  // namespace

VarTable AtomMatches(const Atom& atom, const Database& db) {
  VarTable out;
  out.vars = atom.vars;
  std::sort(out.vars.begin(), out.vars.end());
  out.vars.erase(std::unique(out.vars.begin(), out.vars.end()),
                 out.vars.end());
  const int width = static_cast<int>(out.vars.size());
  const std::vector<int> pos_of_var = [&] {
    std::vector<int> map;
    for (const int v : atom.vars) {
      const auto it = std::lower_bound(out.vars.begin(), out.vars.end(), v);
      map.push_back(static_cast<int>(it - out.vars.begin()));
    }
    return map;
  }();
  RowSet set(width);
  set.Reserve(db.facts(atom.rel).size());
  std::vector<Element> row(width);
  for (const Tuple& fact : db.facts(atom.rel)) {
    // Repeated-variable consistency, then project to distinct vars.
    std::fill(row.begin(), row.end(), -1);
    bool ok = true;
    for (size_t i = 0; i < fact.size(); ++i) {
      const int slot = pos_of_var[i];
      if (row[slot] >= 0 && row[slot] != fact[i]) {
        ok = false;
        break;
      }
      row[slot] = fact[i];
    }
    if (ok) set.Insert(row);
  }
  out.rows = set.Take();
  // Repeat-free atoms leave the table pristine: record where each variable
  // sits in the fact so semijoins can probe a relation index later.
  if (out.vars.size() == atom.vars.size()) {
    out.source_rel = atom.rel;
    out.source_pos.resize(out.vars.size());
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      out.source_pos[pos_of_var[i]] = static_cast<int>(i);
    }
  }
  return out;
}

VarTable IntersectSameVars(const VarTable& a, const VarTable& b) {
  CQA_CHECK(a.vars == b.vars);
  const int width = static_cast<int>(a.vars.size());
  std::vector<int> all_cols(width);
  for (int j = 0; j < width; ++j) all_cols[j] = j;
  const ColumnStore& brows = b.Rows();
  const KeyedRowGroups in_b(FlatKeysOfColumns(brows, all_cols), width,
                            brows.size());
  VarTable out;
  out.vars = a.vars;
  out.rows = ColumnStore(width);
  const ColumnStore& arows = a.Rows();
  std::vector<Element> row(width);
  for (size_t r = 0; r < arows.size(); ++r) {
    arows.ReadRow(r, row);
    if (!in_b.Probe(row).empty()) out.rows.AppendRow(row);
  }
  return out;
}

namespace {

// Replaces a's rows with the surviving subset (noted by row id). No-op —
// keeping borrows and pristine sources intact — when nothing was removed.
bool ApplySurvivors(VarTable* a, const std::vector<uint32_t>& kept_ids) {
  const ColumnStore& rows = a->Rows();
  if (kept_ids.size() == rows.size()) return false;
  a->rows = rows.Gather(kept_ids);  // column-major copy, detaches any borrow
  a->borrowed = nullptr;
  a->ClearSource();
  return true;
}

}  // namespace

bool SemijoinInPlace(VarTable* a, const VarTable& b,
                     const IndexedDatabase* idb, EvalStats* stats,
                     const EvalContext* ctx) {
  const std::vector<int> shared = SharedVars(a->vars, b.vars);
  if (shared.empty()) {
    // Degenerate semijoin: keep a iff b nonempty.
    if (!b.Rows().empty()) return false;
    const bool removed = !a->Rows().empty();
    a->rows = ColumnStore(static_cast<int>(a->vars.size()));
    a->borrowed = nullptr;
    if (removed) a->ClearSource();
    return removed;
  }

  const std::vector<int> pos_a = PositionsOf(shared, a->vars);
  const ColumnStore& rows = a->Rows();

  // Probe path: b is a pristine atom table, so "agrees with some row of b"
  // is "some fact of b's relation has these values at the shared positions"
  // — one flat index probe per row of a, no key set over b, no key tuples.
  if (idb != nullptr && b.source_rel >= 0 &&
      idb->db().vocab()->arity(b.source_rel) <= kMaxIndexableArity) {
    const int width = static_cast<int>(a->vars.size());
    const int arity = idb->db().vocab()->arity(b.source_rel);
    const std::vector<int> rank_b = PositionsOf(shared, b.vars);
    // One single-atom probe step: the shared variables' fact positions map
    // to a's columns (pre-bound slots), every other position to a fresh
    // slot. The probe core assembles the key in ascending fact position —
    // exactly the index's key layout.
    ProbeAtom atom;
    atom.rel = b.source_rel;
    atom.slots.assign(arity, -1);
    for (size_t i = 0; i < shared.size(); ++i) {
      atom.slots[b.source_pos[rank_b[i]]] = pos_a[i];
    }
    int num_slots = width;
    for (int p = 0; p < arity; ++p) {
      if (atom.slots[p] < 0) atom.slots[p] = num_slots++;
    }
    std::vector<bool> bound_at_entry(num_slots, false);
    for (int j = 0; j < width; ++j) bound_at_entry[j] = true;
    ProbeBacktracker probe({atom}, num_slots, bound_at_entry, idb->db(), idb,
                           stats, ctx);
    if (probe.EnsureIndex(0) != nullptr) {
      std::vector<Element> assignment(num_slots, -1);
      std::vector<uint32_t> kept_ids;
      kept_ids.reserve(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        if (ctx != nullptr && ctx->Interrupted()) break;  // drop the rest
        for (const int col : pos_a) assignment[col] = rows.at(i, col);
        if (probe.ProbeExists(assignment)) {
          kept_ids.push_back(static_cast<uint32_t>(i));
        }
      }
      return ApplySurvivors(a, kept_ids);
    }
  }

  // Fallback: group b's rows by the shared key and keep a-rows whose key
  // has a nonempty group.
  const std::vector<int> pos_b = PositionsOf(shared, b.vars);
  const ColumnStore& brows = b.Rows();
  const KeyedRowGroups keys(FlatKeysOfColumns(brows, pos_b),
                            static_cast<int>(shared.size()), brows.size());
  std::vector<Element> key(shared.size());
  std::vector<uint32_t> kept_ids;
  kept_ids.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (ctx != nullptr && ctx->Interrupted()) break;  // drop the rest
    for (size_t j = 0; j < pos_a.size(); ++j) key[j] = rows.at(i, pos_a[j]);
    if (!keys.Probe(key).empty()) kept_ids.push_back(static_cast<uint32_t>(i));
  }
  return ApplySurvivors(a, kept_ids);
}

VarTable JoinProject(const VarTable& a, const VarTable& b,
                     const std::vector<int>& keep_vars,
                     const EvalContext* ctx) {
  std::vector<int> all_vars;
  std::set_union(a.vars.begin(), a.vars.end(), b.vars.begin(), b.vars.end(),
                 std::back_inserter(all_vars));
  const std::vector<int> shared = SharedVars(a.vars, b.vars);
  const std::vector<int> pos_a = PositionsOf(shared, a.vars);
  const std::vector<int> pos_b = PositionsOf(shared, b.vars);
  // Group b by its shared-variable key (contiguous row-id ranges).
  const ColumnStore& brows = b.Rows();
  const KeyedRowGroups index(FlatKeysOfColumns(brows, pos_b),
                             static_cast<int>(shared.size()), brows.size());
  // For composing output rows.
  const std::vector<int> a_in_all = PositionsOf(a.vars, all_vars);
  const std::vector<int> b_in_all = PositionsOf(b.vars, all_vars);
  const std::vector<int> keep_in_all = PositionsOf(keep_vars, all_vars);
  VarTable out;
  out.vars = keep_vars;
  const ColumnStore& arows = a.Rows();
  RowSet set(static_cast<int>(keep_vars.size()));
  // Lower bound on the output: every a-row with a partner emits at least one
  // row, so a's cardinality is a cheap reallocation-avoiding estimate.
  set.Reserve(arows.size());
  std::vector<Element> combined(all_vars.size());
  std::vector<Element> key(shared.size());
  std::vector<Element> projected(keep_vars.size());
  for (size_t r = 0; r < arows.size(); ++r) {
    if (ctx != nullptr && ctx->Interrupted()) break;  // partial = subset
    for (size_t j = 0; j < pos_a.size(); ++j) key[j] = arows.at(r, pos_a[j]);
    for (const int id : index.Probe(key)) {
      // One poll per emitted row as well: a wide join emits many rows per
      // a-row, and the context samples the clock only every few hundred
      // polls. A trip here is sticky, so the a-row poll above breaks next.
      if (ctx != nullptr && ctx->Interrupted()) break;
      for (size_t i = 0; i < a_in_all.size(); ++i) {
        combined[a_in_all[i]] = arows.at(r, static_cast<int>(i));
      }
      for (size_t i = 0; i < b_in_all.size(); ++i) {
        combined[b_in_all[i]] = brows.at(id, static_cast<int>(i));
      }
      for (size_t i = 0; i < keep_in_all.size(); ++i) {
        projected[i] = combined[keep_in_all[i]];
      }
      set.Insert(projected);
    }
  }
  out.rows = set.Take();
  return out;
}

VarTable Project(const VarTable& a, const std::vector<int>& keep_vars) {
  const std::vector<int> pos = PositionsOf(keep_vars, a.vars);
  VarTable out;
  out.vars = keep_vars;
  const ColumnStore& arows = a.Rows();
  RowSet set(static_cast<int>(keep_vars.size()));
  set.Reserve(arows.size());
  std::vector<Element> row(keep_vars.size());
  for (size_t r = 0; r < arows.size(); ++r) {
    for (size_t j = 0; j < pos.size(); ++j) row[j] = arows.at(r, pos[j]);
    set.Insert(row);
  }
  out.rows = set.Take();
  return out;
}

AnswerSet EvaluateJoinForest(std::vector<VarTable> tables,
                             const std::vector<int>& parent,
                             const std::vector<int>& free_tuple,
                             const IndexedDatabase* idb, EvalStats* stats,
                             const EvalContext* ctx) {
  const int n = static_cast<int>(tables.size());
  CQA_CHECK(static_cast<int>(parent.size()) == n);
  AnswerSet answers(static_cast<int>(free_tuple.size()));

  // Distinct free variables, sorted.
  std::vector<int> free_vars = free_tuple;
  std::sort(free_vars.begin(), free_vars.end());
  free_vars.erase(std::unique(free_vars.begin(), free_vars.end()),
                  free_vars.end());

  // Children lists and a bottom-up order.
  std::vector<std::vector<int>> children(n);
  std::vector<int> roots;
  for (int i = 0; i < n; ++i) {
    if (parent[i] >= 0) {
      children[parent[i]].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  std::vector<int> order;  // parents before children
  {
    std::vector<int> stack = roots;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      order.push_back(u);
      for (const int c : children[u]) stack.push_back(c);
    }
  }
  CQA_CHECK(static_cast<int>(order.size()) == n);

  // Full reduction: upward pass (children into parents, bottom-up), then
  // downward pass.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    if (parent[u] >= 0) {
      SemijoinInPlace(&tables[parent[u]], tables[u], idb, stats, ctx);
    }
  }
  for (const int u : order) {
    for (const int c : children[u]) {
      SemijoinInPlace(&tables[c], tables[u], idb, stats, ctx);
    }
  }
  // An interruption mid-reduction has only dropped rows (see SemijoinInPlace)
  // so continuing would still be sound, but there is nothing worth salvaging
  // before the DP has run: stop paying for table work and return empty.
  if (ctx != nullptr && !ctx->ok()) return answers;
  for (const int r : roots) {
    if (tables[r].Rows().empty()) return answers;  // no matches at all
  }

  // Bottom-up join-project: at node u keep (free vars in u's subtree) ∪
  // (vars shared with the parent).
  std::vector<std::vector<int>> subtree_vars(n);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    subtree_vars[u] = tables[u].vars;
    for (const int c : children[u]) {
      std::vector<int> merged;
      std::set_union(subtree_vars[u].begin(), subtree_vars[u].end(),
                     subtree_vars[c].begin(), subtree_vars[c].end(),
                     std::back_inserter(merged));
      subtree_vars[u] = std::move(merged);
    }
  }
  // A subtree only needs to enter the join-project DP if it contributes an
  // output variable beyond its parent's scope: after the full reduction the
  // forest is globally consistent (Beeri–Fagin–Maier–Yannakakis), so every
  // surviving parent row extends into such a subtree and joining it would
  // neither filter rows nor bind new output variables.
  std::vector<bool> needed(n, false);
  for (const int u : order) {  // parents before children
    if (parent[u] < 0) {
      needed[u] = true;
      continue;
    }
    if (!needed[parent[u]]) continue;
    std::vector<int> out;
    std::set_intersection(subtree_vars[u].begin(), subtree_vars[u].end(),
                          free_vars.begin(), free_vars.end(),
                          std::back_inserter(out));
    const auto& up = tables[parent[u]].vars;
    for (const int v : out) {
      if (!std::binary_search(up.begin(), up.end(), v)) {
        needed[u] = true;
        break;
      }
    }
  }

  std::vector<VarTable> solved(n);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    if (ctx != nullptr && !ctx->ok()) return answers;
    if (!needed[u]) continue;
    // Keep: free vars within subtree(u), plus vars shared with parent.
    std::vector<int> keep;
    std::set_intersection(subtree_vars[u].begin(), subtree_vars[u].end(),
                          free_vars.begin(), free_vars.end(),
                          std::back_inserter(keep));
    if (parent[u] >= 0) {
      std::vector<int> with_parent;
      std::set_intersection(subtree_vars[u].begin(), subtree_vars[u].end(),
                            tables[parent[u]].vars.begin(),
                            tables[parent[u]].vars.end(),
                            std::back_inserter(with_parent));
      std::vector<int> merged;
      std::set_union(keep.begin(), keep.end(), with_parent.begin(),
                     with_parent.end(), std::back_inserter(merged));
      keep = std::move(merged);
    }
    std::vector<int> kids;
    for (const int c : children[u]) {
      if (needed[c]) kids.push_back(c);
    }
    VarTable acc = tables[u];
    for (size_t i = 0; i < kids.size(); ++i) {
      // Each join keeps `keep` plus the join keys of the children still to
      // come, and drops every other variable: nothing reads it again, and
      // carrying it would multiply the rows (a 2-path projected to its far
      // end would hold every path instead of every end point).
      std::vector<int> wanted = keep;
      for (size_t j = i + 1; j < kids.size(); ++j) {
        std::vector<int> merged;
        std::set_union(wanted.begin(), wanted.end(),
                       solved[kids[j]].vars.begin(),
                       solved[kids[j]].vars.end(), std::back_inserter(merged));
        wanted = std::move(merged);
      }
      // Restrict to the variables this join can actually produce: `keep`
      // also lists free variables of sibling subtrees that only become
      // available once their own child join runs.
      std::vector<int> available;
      std::set_union(acc.vars.begin(), acc.vars.end(),
                     solved[kids[i]].vars.begin(), solved[kids[i]].vars.end(),
                     std::back_inserter(available));
      std::vector<int> step_keep;
      std::set_intersection(wanted.begin(), wanted.end(), available.begin(),
                            available.end(), std::back_inserter(step_keep));
      acc = JoinProject(acc, solved[kids[i]], step_keep, ctx);
    }
    solved[u] = Project(acc, keep);
  }

  // Cross product across roots, projected to free variables.
  VarTable result;
  result.vars = {};
  result.rows = ColumnStore(0);
  result.rows.AppendRow({});  // the nullary seed row
  for (const int r : roots) {
    std::vector<int> keep;
    std::set_union(result.vars.begin(), result.vars.end(),
                   solved[r].vars.begin(), solved[r].vars.end(),
                   std::back_inserter(keep));
    std::vector<int> restricted;
    std::set_intersection(keep.begin(), keep.end(), free_vars.begin(),
                          free_vars.end(), std::back_inserter(restricted));
    result = JoinProject(result, solved[r], restricted, ctx);
  }
  CQA_CHECK(result.vars == free_vars);

  // Expand to the (possibly repeating) free tuple.
  std::vector<int> tuple_pos;
  tuple_pos.reserve(free_tuple.size());
  for (const int v : free_tuple) {
    const auto it = std::lower_bound(free_vars.begin(), free_vars.end(), v);
    tuple_pos.push_back(static_cast<int>(it - free_vars.begin()));
  }
  // Emission: every row of `result` is a genuine answer (joins of shrunken
  // tables only lose answers), so stopping mid-loop stays sound.
  const ColumnStore& rows = result.Rows();
  std::vector<std::span<const Element>> cols;
  for (const int pos : tuple_pos) cols.push_back(rows.Column(pos));
  std::vector<Element> answer(free_tuple.size());
  answers.Reserve(rows.size());  // the rows are distinct already
  for (size_t r = 0; r < rows.size(); ++r) {
    if (ctx != nullptr && ctx->Interrupted()) break;
    for (size_t i = 0; i < cols.size(); ++i) answer[i] = cols[i][r];
    answers.Insert(answer);
    if (ctx != nullptr && ctx->RecordAnswer()) break;
  }
  return answers;
}

}  // namespace cqa
