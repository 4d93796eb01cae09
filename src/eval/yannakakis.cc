#include "eval/yannakakis.h"

#include <algorithm>

#include "base/check.h"
#include "cq/properties.h"
#include "eval/var_table.h"
#include "hypergraph/acyclicity.h"

namespace cqa {
namespace {

// The match table of one atom, preferring the view's cached projection
// (built once per (relation, atom shape), reused across queries and jobs).
VarTable IndexedAtomMatches(const Atom& atom, const IndexedDatabase& idb,
                            EvalStats* stats) {
  VarTable out;
  out.vars = atom.vars;
  std::sort(out.vars.begin(), out.vars.end());
  out.vars.erase(std::unique(out.vars.begin(), out.vars.end()),
                 out.vars.end());
  std::vector<int> out_cols(atom.vars.size());
  for (size_t i = 0; i < atom.vars.size(); ++i) {
    const auto it =
        std::lower_bound(out.vars.begin(), out.vars.end(), atom.vars[i]);
    out_cols[i] = static_cast<int>(it - out.vars.begin());
  }
  bool built = false;
  const ColumnStore* rows = idb.ProjectedRows(
      atom.rel, out_cols, static_cast<int>(out.vars.size()), &built);
  if (rows == nullptr) return AtomMatches(atom, idb.db());
  if (stats != nullptr) {
    if (built) {
      ++stats->index_builds;
    } else {
      ++stats->table_reuses;
    }
  }
  out.borrowed = rows;  // copy-on-write: detached only if a semijoin filters
  if (out.vars.size() == atom.vars.size()) {
    out.source_rel = atom.rel;
    out.source_pos.resize(out.vars.size());
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      out.source_pos[out_cols[i]] = static_cast<int>(i);
    }
  }
  return out;
}

// Builds per-hyperedge tables: each join-tree node is a hyperedge of H(Q);
// its table is the intersection of the match tables of all atoms with that
// variable scope.
std::vector<VarTable> HyperedgeTables(const ConjunctiveQuery& q,
                                      const Hypergraph& h, const Database& db,
                                      const IndexedDatabase* idb,
                                      EvalStats* stats) {
  std::vector<VarTable> tables(h.num_edges());
  std::vector<bool> initialized(h.num_edges(), false);
  for (const Atom& atom : q.atoms()) {
    if (atom.vars.empty()) continue;  // no hyperedge: see RunYannakakis
    // Locate the hyperedge equal to this atom's scope.
    std::vector<int> scope = atom.vars;
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    int edge = -1;
    for (int i = 0; i < h.num_edges(); ++i) {
      if (h.edge(i) == scope) {
        edge = i;
        break;
      }
    }
    CQA_CHECK(edge >= 0);
    VarTable matches = idb != nullptr ? IndexedAtomMatches(atom, *idb, stats)
                                      : AtomMatches(atom, db);
    if (!initialized[edge]) {
      tables[edge] = std::move(matches);
      initialized[edge] = true;
    } else {
      tables[edge] = IntersectSameVars(tables[edge], matches);
    }
  }
  for (int i = 0; i < h.num_edges(); ++i) CQA_CHECK(initialized[i]);
  return tables;
}

AnswerSet RunYannakakis(const ConjunctiveQuery& q, const Database& db,
                        const IndexedDatabase* idb, EvalStats* stats,
                        const EvalContext* ctx) {
  q.Validate();
  // A nullary atom has no hyperedge in H(Q): it is a proposition about the
  // whole database, so a false one empties Q(D) and a true one constrains
  // nothing.
  for (const Atom& atom : q.atoms()) {
    if (atom.vars.empty() && db.facts(atom.rel).empty()) {
      return AnswerSet(static_cast<int>(q.free_variables().size()));
    }
  }
  const Hypergraph h = HypergraphOfQuery(q);
  const auto jt = BuildJoinTree(h);
  CQA_CHECK(jt.has_value());  // caller must pass an acyclic query
  std::vector<VarTable> tables = HyperedgeTables(q, h, db, idb, stats);
  return EvaluateJoinForest(std::move(tables), jt->parent, q.free_variables(),
                            idb, stats, ctx);
}

}  // namespace

AnswerSet EvaluateYannakakis(const ConjunctiveQuery& q, const Database& db,
                             const EvalContext* ctx) {
  return RunYannakakis(q, db, /*idb=*/nullptr, /*stats=*/nullptr, ctx);
}

AnswerSet EvaluateYannakakis(const ConjunctiveQuery& q,
                             const IndexedDatabase& idb, EvalStats* stats,
                             const EvalContext* ctx) {
  return RunYannakakis(q, idb.db(), &idb, stats, ctx);
}

bool EvaluateYannakakisBoolean(const ConjunctiveQuery& q, const Database& db) {
  CQA_CHECK(q.IsBoolean());
  return EvaluateYannakakis(q, db).AsBoolean();
}

}  // namespace cqa
