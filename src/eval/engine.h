// The evaluation-algorithm layer: the three evaluators (naive backtracking,
// Yannakakis for acyclic CQs, bounded-treewidth DP) behind a uniform Engine
// interface, plus the approximation-aware planner. This header is the
// *algorithm* vocabulary; the *serving* vocabulary (EvalRequest/EvalResponse,
// QueryService, batching, streaming) lives in eval/service.h.
//
// Every engine has two matching modes: scan (the paper-faithful baseline)
// and indexed (RelationIndex probes via a shared IndexedDatabase view).
// The service always evaluates on a view; the scan overloads are the
// baseline that tests and benches compare against.
//
// The planner (PlanQuery) implements the paper's serving story end to end:
// acyclic queries go to Yannakakis, small-width cyclic queries to the
// treewidth DP, and — the headline contribution (Barceló–Libkin–Romero,
// PODS'12) — when a query's width exceeds the budget and the caller asked
// for an approximate AnswerMode, the planner *rewrites* the query: it
// synthesizes maximally contained TW(width_budget) under-approximations
// (core/approximator, Theorem 4.1) and minimal containing subquery
// over-approximations (core/overapprox), and the plan carries those
// rewritten sub-queries with an engine picked for each. Synthesis depends
// only on the query shape, so plans are cached per canonical shape x mode
// (PlanCacheKey) and the synthesis cost is paid once across batches.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - Engine instances are stateless and immutable after construction: one
//    instance may serve concurrent Evaluate calls from many threads.
//  - PlanQuery is a pure function of (query, options, mode); decisions are
//    freely copyable and shareable across threads.

#ifndef CQA_EVAL_ENGINE_H_
#define CQA_EVAL_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/answer_set.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"

namespace cqa {

/// The available evaluation algorithms.
enum class EngineKind {
  kNaive,       ///< backtracking join, |D|^O(|Q|) (eval/naive)
  kYannakakis,  ///< semijoin full reduction, acyclic only (eval/yannakakis)
  kTreewidth,   ///< bag-table DP over a tree decomposition (eval/treewidth_eval)
};

/// Stable display name ("naive", "yannakakis", "treewidth").
const char* EngineKindName(EngineKind kind);

/// What a request wants back (paper, Definition 3.1 / Section 7). Exact
/// evaluation can be exponentially expensive on high-width queries; the
/// approximate modes trade completeness for tractability:
///  - kExact: Q(D) itself, whatever it costs.
///  - kUnderApproximate: certain answers — the union of the maximally
///    contained TW(width_budget) rewrites. Every returned tuple is in Q(D).
///  - kOverApproximate: possible answers — the intersection of the minimal
///    containing in-class subquery rewrites. Every tuple of Q(D) is
///    returned (possibly with extras).
///  - kBounds: both, as an AnswerBounds sandwich under ⊆ Q(D) ⊆ over.
/// On queries the planner can evaluate exactly within budget, all four
/// modes return the exact answers (the bounds collapse).
enum class AnswerMode {
  kExact,
  kOverApproximate,
  kUnderApproximate,
  kBounds,
};

/// Stable display name ("exact", "over", "under", "bounds").
const char* AnswerModeName(AnswerMode mode);

/// A single evaluation algorithm behind a uniform interface.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual EngineKind kind() const = 0;
  const char* name() const { return EngineKindName(kind()); }

  /// True if this engine can evaluate `q` (Yannakakis requires acyclicity;
  /// the others accept every CQ).
  virtual bool Supports(const ConjunctiveQuery& q) const = 0;

  /// Computes Q(D) by the scan-based path. CHECK-fails if !Supports(q).
  /// A non-null `ctx` makes the evaluation cooperatively interruptible
  /// (deadline / cancel / budgets, eval/eval_context.h); on interruption the
  /// answers found so far — a sound under-approximation — are returned and
  /// ctx->status() says why the search stopped.
  virtual AnswerSet Evaluate(const ConjunctiveQuery& q, const Database& db,
                             EvalStats* stats = nullptr,
                             const EvalContext* ctx = nullptr) const = 0;

  /// Computes Q(D) probing `idb`'s cached indexes (building them lazily).
  /// Identical answers to the scan path. CHECK-fails if !Supports(q).
  virtual AnswerSet Evaluate(const ConjunctiveQuery& q,
                             const IndexedDatabase& idb,
                             EvalStats* stats = nullptr,
                             const EvalContext* ctx = nullptr) const = 0;
};

/// Engine factory.
std::unique_ptr<Engine> MakeEngine(EngineKind kind);

/// One rewritten (approximation) query inside an approximate plan, with the
/// engine the planner picked for it. Sub-queries are tractable by
/// construction (they land in TW(width_budget)), so their engines are
/// Yannakakis or the treewidth DP in the common case.
struct ApproxSubPlan {
  ConjunctiveQuery query;
  EngineKind kind = EngineKind::kNaive;
};

/// Planner knobs.
struct PlannerOptions {
  /// Width budget: use the treewidth engine when the established width
  /// bound is <= this; beyond it the bag tables (O(|D|^{width+1})) are
  /// considered too large. In AnswerMode::kExact the naive engine runs
  /// instead; in the approximate modes the planner rewrites the query into
  /// TW(width_budget) approximations (see PlanQuery).
  int width_budget = 3;

  /// Cap on the number of rewritten queries kept per side (under / over).
  /// Fewer rewrites = cheaper evaluation, looser bounds.
  int max_rewrites = 4;

  /// Approximation synthesis enumerates variable partitions (Bell numbers)
  /// and atom subsets (2^m); beyond these structural sizes the planner
  /// skips synthesis and falls back to exact evaluation rather than stall.
  int max_synthesis_vars = 8;
  int max_synthesis_atoms = 16;
};

/// Why the planner picked an engine, plus the structural facts it computed.
/// For approximate modes on width-over-budget queries the decision also
/// carries the synthesized rewrites; the decision is shape-determined, so
/// caches may serve one decision to every query of the same canonical shape
/// (the rewrites' answers depend only on the shape, not on the original
/// variable numbering).
struct PlanDecision {
  EngineKind kind = EngineKind::kNaive;  ///< engine for the exact path
  bool acyclic = false;  ///< H(Q) alpha-acyclic
  /// Width bound of G(Q) the planner established: the min-fill elimination
  /// width, i.e. the width of the decomposition the treewidth engine would
  /// actually evaluate over. -1 if not needed (acyclic queries go straight
  /// to Yannakakis).
  int width = -1;
  /// The AnswerMode this plan was made for (part of the cache key).
  AnswerMode mode = AnswerMode::kExact;
  /// True when this plan answers via the rewrites below instead of `kind`:
  /// the mode was approximate and the width exceeded the budget.
  bool approximate = false;
  /// Maximally contained TW(width_budget) rewrites (union = certain
  /// answers). Nonempty iff `approximate` and the mode needs an under side.
  std::vector<ApproxSubPlan> under;
  /// Minimal containing in-class subquery rewrites (intersection = possible
  /// answers). Nonempty iff `approximate` and the mode needs an over side.
  std::vector<ApproxSubPlan> over;
  std::string reason;  ///< one-line human-readable justification
};

/// Picks an engine from the structure of `q` (paper, Sections 4 and 6):
/// acyclic -> Yannakakis; else width bound <= budget -> treewidth DP; else
/// naive. With an approximate `mode` and a width bound over budget, the
/// planner instead synthesizes under-/over-approximation rewrites (as the
/// mode requires) and returns an `approximate` plan; when synthesis is
/// structurally infeasible (PlannerOptions::max_synthesis_*) or yields no
/// usable rewrite, the plan falls back to exact naive evaluation and says
/// so in `reason`.
PlanDecision PlanQuery(const ConjunctiveQuery& q,
                       const PlannerOptions& opts = {},
                       AnswerMode mode = AnswerMode::kExact);

/// Convenience: plan and instantiate the exact-path engine in one step.
std::unique_ptr<Engine> PlanEngine(const ConjunctiveQuery& q,
                                   const PlannerOptions& opts = {});

/// The canonical shape key the plan cache uses: atoms in query order
/// with variables renamed by first occurrence, then the renamed free tuple.
/// Queries that differ only in variable numbering share a key (planning
/// depends on structure only); atom order is preserved, so it is a cheap
/// shape key, not a full isomorphism canonical form.
std::vector<int> CanonicalQueryKey(const ConjunctiveQuery& q);

/// The key the plan cache uses: CanonicalQueryKey qualified by the planner
/// knobs and the answer mode that influenced the decision, so one cache can
/// serve batches running with different PlannerOptions and modes without
/// ever crossing their plans.
std::vector<int> PlanCacheKey(const ConjunctiveQuery& q,
                              const PlannerOptions& opts,
                              AnswerMode mode = AnswerMode::kExact);

/// Where a request's plan came from.
enum class PlanSource {
  kPlanned,  ///< the planner ran for this request
  kCached,   ///< the EvalCache plan tier served it (EvalCache::GetOrPlan)
};

}  // namespace cqa

#endif  // CQA_EVAL_ENGINE_H_
