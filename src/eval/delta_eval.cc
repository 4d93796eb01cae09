#include "eval/delta_eval.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace cqa {

DeltaEvaluator::DeltaEvaluator(const ConjunctiveQuery& q,
                               const IndexedDatabase& idb, EvalStats* stats,
                               const EvalContext* ctx)
    : query_(&q), ctx_(ctx), assignment_(q.num_variables(), -1) {
  const std::vector<Atom>& atoms = q.atoms();
  atom_rels_.reserve(atoms.size());
  seeds_.reserve(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    atom_rels_.push_back(atoms[i].rel);
    std::vector<bool> bound(q.num_variables(), false);
    for (const int v : atoms[i].vars) bound[v] = true;
    std::vector<ProbeAtom> rest;
    rest.reserve(atoms.size() - 1);
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j == i) continue;
      rest.push_back(ProbeAtom{atoms[j].rel, atoms[j].vars});
    }
    SeededSearch seed;
    seed.seed_vars = atoms[i].vars;
    seed.search = std::make_unique<ProbeBacktracker>(
        GreedyProbeOrder(std::move(rest), bound), q.num_variables(), bound,
        idb.db(), &idb, stats, ctx);
    seeds_.push_back(std::move(seed));
  }
}

bool DeltaEvaluator::ApplyFact(const DeltaFact& fact,
                               const AnswerSet& existing, AnswerSet* out) {
  const std::vector<int>& free_vars = query_->free_variables();
  // A Boolean query that is already true stays true: nothing to derive.
  if (free_vars.empty() && (existing.AsBoolean() || out->AsBoolean())) {
    return true;
  }
  std::vector<Element> answer(free_vars.size());
  for (size_t i = 0; i < seeds_.size(); ++i) {
    if (atom_rels_[i] != fact.rel) continue;
    if (ctx_ != nullptr && ctx_->Interrupted()) return false;
    SeededSearch& seed = seeds_[i];
    CQA_CHECK(seed.seed_vars.size() == fact.tuple.size());
    std::fill(assignment_.begin(), assignment_.end(), -1);
    bool consistent = true;  // repeated variables must see one value
    for (size_t p = 0; p < seed.seed_vars.size(); ++p) {
      const int v = seed.seed_vars[p];
      const Element val = fact.tuple[p];
      if (assignment_[v] >= 0 && assignment_[v] != val) {
        consistent = false;
        break;
      }
      assignment_[v] = val;
    }
    if (!consistent) continue;
    seed.search->Search(&assignment_, [&](std::span<const Element> a) {
      for (size_t k = 0; k < free_vars.size(); ++k) {
        answer[k] = a[free_vars[k]];
        CQA_CHECK(answer[k] >= 0);
      }
      if (existing.Contains(answer)) return false;
      if (!out->Insert(answer)) return false;
      return ctx_ != nullptr && ctx_->RecordAnswer();
    });
    if (ctx_ != nullptr && !ctx_->ok()) return false;
  }
  return true;
}

AnswerSet DeltaEvaluateQuery(const ConjunctiveQuery& q,
                             const IndexedDatabase& idb,
                             std::span<const DeltaFact> delta,
                             const AnswerSet& existing, EvalStats* stats,
                             const EvalContext* ctx) {
  AnswerSet out(static_cast<int>(q.free_variables().size()));
  DeltaEvaluator evaluator(q, idb, stats, ctx);
  long long applied = 0;
  for (const DeltaFact& fact : delta) {
    if (!evaluator.ApplyFact(fact, existing, &out)) break;
    ++applied;
  }
  if (stats != nullptr) {
    ++stats->delta_ticks;
    stats->delta_facts += applied;
  }
  return out;
}

}  // namespace cqa
