#include "eval/naive.h"

#include <algorithm>

#include "base/check.h"
#include "eval/probe_core.h"

namespace cqa {
namespace {

// The query's atoms as probe atoms (slot = variable id), in the greedy
// connected trial order from no bound variable.
std::vector<ProbeAtom> OrderedProbeAtoms(const ConjunctiveQuery& q) {
  std::vector<ProbeAtom> atoms;
  atoms.reserve(q.atoms().size());
  for (const Atom& atom : q.atoms()) {
    atoms.push_back(ProbeAtom{atom.rel, atom.vars});
  }
  return GreedyProbeOrder(std::move(atoms),
                          std::vector<bool>(q.num_variables(), false));
}

AnswerSet RunNaive(const ConjunctiveQuery& q, const Database& db,
                   const IndexedDatabase* idb, EvalStats* stats,
                   const EvalContext* ectx) {
  q.Validate();
  const auto& free_tuple = q.free_variables();
  AnswerSet answers(static_cast<int>(free_tuple.size()));
  std::vector<Element> assignment(q.num_variables(), -1);
  ProbeBacktracker search(OrderedProbeAtoms(q), q.num_variables(),
                          std::vector<bool>(q.num_variables(), false), db,
                          idb, stats, ectx);
  std::vector<Element> answer(free_tuple.size());
  search.Search(&assignment, [&](std::span<const Element> a) {
    for (size_t i = 0; i < free_tuple.size(); ++i) {
      answer[i] = a[free_tuple[i]];
      CQA_CHECK(answer[i] >= 0);
    }
    answers.Insert(answer);
    return ectx != nullptr && ectx->RecordAnswer();
  });
  return answers;
}

bool RunNaiveBoolean(const ConjunctiveQuery& q, const Database& db,
                     const IndexedDatabase* idb, EvalStats* stats) {
  q.Validate();
  std::vector<Element> assignment(q.num_variables(), -1);
  ProbeBacktracker search(OrderedProbeAtoms(q), q.num_variables(),
                          std::vector<bool>(q.num_variables(), false), db,
                          idb, stats, /*ctx=*/nullptr);
  bool found = false;
  search.Search(&assignment, [&](std::span<const Element>) {
    found = true;
    return true;  // one witness suffices
  });
  return found;
}

}  // namespace

AnswerSet EvaluateNaive(const ConjunctiveQuery& q, const Database& db,
                        EvalStats* stats, const EvalContext* ctx) {
  return RunNaive(q, db, /*idb=*/nullptr, stats, ctx);
}

AnswerSet EvaluateNaive(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                        EvalStats* stats, const EvalContext* ctx) {
  return RunNaive(q, idb.db(), &idb, stats, ctx);
}

bool EvaluateNaiveBoolean(const ConjunctiveQuery& q, const Database& db,
                          EvalStats* stats) {
  return RunNaiveBoolean(q, db, /*idb=*/nullptr, stats);
}

bool EvaluateNaiveBoolean(const ConjunctiveQuery& q,
                          const IndexedDatabase& idb, EvalStats* stats) {
  return RunNaiveBoolean(q, idb.db(), &idb, stats);
}

bool AnswerContains(const ConjunctiveQuery& q, const Database& db,
                    const Tuple& answer) {
  CQA_CHECK(answer.size() == q.free_variables().size());
  // Bind the free tuple, then run a Boolean early-exit search (scan-based:
  // membership checks are one-shot, not worth index builds).
  std::vector<Element> assignment(q.num_variables(), -1);
  for (size_t i = 0; i < answer.size(); ++i) {
    const int v = q.free_variables()[i];
    if (assignment[v] >= 0 && assignment[v] != answer[i]) return false;
    assignment[v] = answer[i];
  }
  std::vector<bool> bound(q.num_variables(), false);
  for (int v = 0; v < q.num_variables(); ++v) bound[v] = assignment[v] >= 0;
  ProbeBacktracker search(OrderedProbeAtoms(q), q.num_variables(), bound, db,
                          /*idb=*/nullptr, /*stats=*/nullptr,
                          /*ctx=*/nullptr);
  bool found = false;
  search.Search(&assignment, [&](std::span<const Element>) {
    found = true;
    return true;
  });
  return found;
}

}  // namespace cqa
