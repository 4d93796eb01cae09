#include "eval/engine.h"

#include <utility>

#include "base/check.h"
#include "core/approximator.h"
#include "core/overapprox.h"
#include "core/query_class.h"
#include "cq/properties.h"
#include "decomp/treewidth.h"
#include "eval/naive.h"
#include "eval/treewidth_eval.h"
#include "eval/yannakakis.h"
#include "graph/digraph.h"

namespace cqa {
namespace {

class NaiveEngine : public Engine {
 public:
  EngineKind kind() const override { return EngineKind::kNaive; }
  bool Supports(const ConjunctiveQuery&) const override { return true; }
  AnswerSet Evaluate(const ConjunctiveQuery& q, const Database& db,
                     EvalStats* stats, const EvalContext* ctx) const override {
    return EvaluateNaive(q, db, stats, ctx);
  }
  AnswerSet Evaluate(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                     EvalStats* stats, const EvalContext* ctx) const override {
    return EvaluateNaive(q, idb, stats, ctx);
  }
};

class YannakakisEngine : public Engine {
 public:
  EngineKind kind() const override { return EngineKind::kYannakakis; }
  bool Supports(const ConjunctiveQuery& q) const override {
    return IsAcyclicQuery(q);
  }
  AnswerSet Evaluate(const ConjunctiveQuery& q, const Database& db,
                     EvalStats*, const EvalContext* ctx) const override {
    CQA_CHECK(Supports(q));
    return EvaluateYannakakis(q, db, ctx);
  }
  AnswerSet Evaluate(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                     EvalStats* stats, const EvalContext* ctx) const override {
    CQA_CHECK(Supports(q));
    return EvaluateYannakakis(q, idb, stats, ctx);
  }
};

class TreewidthEngine : public Engine {
 public:
  EngineKind kind() const override { return EngineKind::kTreewidth; }
  bool Supports(const ConjunctiveQuery&) const override { return true; }
  // Unlike Yannakakis' scan path, which has no search node or index probe
  // to count, the scan bag enumeration reports its steps as nodes.
  AnswerSet Evaluate(const ConjunctiveQuery& q, const Database& db,
                     EvalStats* stats, const EvalContext* ctx) const override {
    return EvaluateTreewidth(q, db, stats, ctx);
  }
  AnswerSet Evaluate(const ConjunctiveQuery& q, const IndexedDatabase& idb,
                     EvalStats* stats, const EvalContext* ctx) const override {
    return EvaluateTreewidth(q, idb, stats, ctx);
  }
};

// Plans one synthesized rewrite: the exact-path engine for a query that is
// in TW(width_budget) by construction (min-fill may overshoot the exact
// treewidth, so the planner verdict — not an assumption — decides).
ApproxSubPlan PlanRewrite(ConjunctiveQuery rewrite,
                          const PlannerOptions& opts) {
  ApproxSubPlan sub{std::move(rewrite), EngineKind::kNaive};
  sub.kind = PlanQuery(sub.query, opts, AnswerMode::kExact).kind;
  return sub;
}

// Fills d.under / d.over with TW(width_budget) rewrites of q as `mode`
// requires. Returns false (leaving d untouched beyond diagnostics) when a
// required side produced no usable rewrite, so the caller can fall back to
// exact evaluation.
bool SynthesizeRewrites(const ConjunctiveQuery& q, const PlannerOptions& opts,
                        AnswerMode mode, PlanDecision* d) {
  const int class_width = opts.width_budget >= 1 ? opts.width_budget : 1;
  const std::unique_ptr<QueryClass> cls = MakeTreewidthClass(class_width);
  const bool want_under = mode == AnswerMode::kUnderApproximate ||
                          mode == AnswerMode::kBounds;
  const bool want_over = mode == AnswerMode::kOverApproximate ||
                         mode == AnswerMode::kBounds;

  std::vector<ApproxSubPlan> under, over;
  if (want_under) {
    ApproximationResult result = ComputeApproximations(q, *cls);
    for (ConjunctiveQuery& approx : result.approximations) {
      under.push_back(PlanRewrite(std::move(approx), opts));
      if (static_cast<int>(under.size()) >= opts.max_rewrites) break;
    }
    if (under.empty()) return false;
  }
  if (want_over) {
    OverapproximationResult result = ComputeOverapproximations(q, *cls);
    for (ConjunctiveQuery& sub : result.overapproximations) {
      over.push_back(PlanRewrite(std::move(sub), opts));
      if (static_cast<int>(over.size()) >= opts.max_rewrites) break;
    }
    if (over.empty()) return false;
  }
  d->under = std::move(under);
  d->over = std::move(over);
  return true;
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kYannakakis:
      return "yannakakis";
    case EngineKind::kTreewidth:
      return "treewidth";
  }
  return "unknown";
}

const char* AnswerModeName(AnswerMode mode) {
  switch (mode) {
    case AnswerMode::kExact:
      return "exact";
    case AnswerMode::kOverApproximate:
      return "over";
    case AnswerMode::kUnderApproximate:
      return "under";
    case AnswerMode::kBounds:
      return "bounds";
  }
  return "unknown";
}

std::unique_ptr<Engine> MakeEngine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return std::make_unique<NaiveEngine>();
    case EngineKind::kYannakakis:
      return std::make_unique<YannakakisEngine>();
    case EngineKind::kTreewidth:
      return std::make_unique<TreewidthEngine>();
  }
  CQA_CHECK(false);
  return nullptr;
}

PlanDecision PlanQuery(const ConjunctiveQuery& q, const PlannerOptions& opts,
                       AnswerMode mode) {
  PlanDecision d;
  d.mode = mode;
  d.acyclic = IsAcyclicQuery(q);
  if (d.acyclic) {
    d.kind = EngineKind::kYannakakis;
    d.reason = "H(Q) acyclic: Yannakakis, O(|D|*|Q|) up to output";
    return d;
  }
  // Cyclic: bound the width of G(Q) by the min-fill heuristic (polynomial).
  // This, not the exact treewidth, is the right decision metric: the
  // treewidth engine evaluates over the min-fill decomposition, so its bag
  // tables cost O(|D|^{min_fill_width+1}).
  const Digraph g = GraphOfQuery(q);
  d.width = WidthOfEliminationOrder(g, MinFillOrder(g));
  if (d.width >= 0 && d.width <= opts.width_budget) {
    d.kind = EngineKind::kTreewidth;
    d.reason = "cyclic, width bound " + std::to_string(d.width) +
               " <= " + std::to_string(opts.width_budget) + ": treewidth DP";
    return d;
  }

  // Width over budget. Exact mode falls back to naive; approximate modes
  // rewrite into TW(width_budget) approximations when the query is small
  // enough to synthesize for (the enumeration is Bell(vars) / 2^atoms).
  const std::string over_budget = "cyclic, width bound " +
                                  std::to_string(d.width) + " > " +
                                  std::to_string(opts.width_budget);
  d.kind = EngineKind::kNaive;
  if (mode == AnswerMode::kExact) {
    d.reason = over_budget + ": naive backtracking";
    return d;
  }
  if (q.num_variables() > opts.max_synthesis_vars ||
      static_cast<int>(q.atoms().size()) > opts.max_synthesis_atoms) {
    d.reason = over_budget + "; approximation synthesis skipped (query too " +
               "large: " + std::to_string(q.num_variables()) + " vars, " +
               std::to_string(q.atoms().size()) +
               " atoms): exact naive fallback";
    return d;
  }
  if (!SynthesizeRewrites(q, opts, mode, &d)) {
    d.reason = over_budget +
               "; no usable rewrite found: exact naive fallback";
    return d;
  }
  d.approximate = true;
  d.reason = over_budget + ": " + AnswerModeName(mode) + " via " +
             std::to_string(d.under.size()) + " under / " +
             std::to_string(d.over.size()) + " over TW(" +
             std::to_string(opts.width_budget >= 1 ? opts.width_budget : 1) +
             ") rewrites";
  return d;
}

std::unique_ptr<Engine> PlanEngine(const ConjunctiveQuery& q,
                                   const PlannerOptions& opts) {
  return MakeEngine(PlanQuery(q, opts).kind);
}

std::vector<int> CanonicalQueryKey(const ConjunctiveQuery& q) {
  std::vector<int> rename(q.num_variables(), -1);
  int next = 0;
  const auto canon = [&](int v) {
    if (rename[v] < 0) rename[v] = next++;
    return rename[v];
  };
  std::vector<int> key;
  key.reserve(4 * q.atoms().size() + q.free_variables().size() + 2);
  key.push_back(static_cast<int>(q.atoms().size()));
  for (const Atom& atom : q.atoms()) {
    key.push_back(atom.rel);
    key.push_back(static_cast<int>(atom.vars.size()));
    for (const int v : atom.vars) key.push_back(canon(v));
  }
  key.push_back(-1);  // separator: atoms | free tuple
  for (const int v : q.free_variables()) key.push_back(canon(v));
  return key;
}

std::vector<int> PlanCacheKey(const ConjunctiveQuery& q,
                              const PlannerOptions& opts, AnswerMode mode) {
  std::vector<int> key = CanonicalQueryKey(q);
  key.push_back(-2);  // separator: shape | planner knobs + mode
  key.push_back(opts.width_budget);
  key.push_back(opts.max_rewrites);
  key.push_back(opts.max_synthesis_vars);
  key.push_back(opts.max_synthesis_atoms);
  key.push_back(static_cast<int>(mode));
  return key;
}

}  // namespace cqa
