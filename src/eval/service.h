// QueryService: the one serving API. Callers describe work as EvalRequests
// (query + database ref + AnswerMode + one consolidated EvalOptions) and get
// EvalResponses back (answers or an AnswerBounds sandwich, plus the plan,
// where it came from, and per-request stats) — blocking one at a time, as a
// deterministic batch, streamed through a persistent worker pool, or as a
// *standing query* (Subscribe/Publish + Subscription::Poll): the answers are
// maintained incrementally as facts are inserted, each Poll returning just
// the additions (eval/delta_eval.h has the delta algebra). The
// approximation-aware planner (eval/engine.h) sits behind it: a request in
// an approximate mode on a width-over-budget query is answered by evaluating
// synthesized TW(width_budget) rewrites, whose synthesis is cached per query
// shape in the EvalCache plan tier — the one plan tier of every calling
// convention (EvalCache::GetOrPlan) — so it is paid once across requests.
// Every request is planned there, and one plan runner (service.cc)
// evaluates the plan for every calling convention and for a subscription's
// baseline tick.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - EvalRequest borrows its Database; the caller keeps it alive until the
//    response is returned / the Submit future is ready, and must not mutate
//    a database while requests over it are in flight. Mutating, assigning
//    over or destroying a database between requests is fine: the EvalCache
//    (eval/cache.h) keys views by Database::id() and catches a grown
//    database's view up via Database::version(). (A database under a live
//    Subscription may only gain facts; see Subscription.)
//  - QueryService::EvaluateBatch is const and reentrant; it owns its
//    transient thread pool, so several batches may proceed concurrently on
//    one service. Within a batch, one immutable IndexedDatabase view per
//    distinct database is shared by all workers, and each canonical shape x
//    mode is planned once. Results are deterministic: bit-identical to a
//    sequential run.
//  - Every calling convention (Evaluate, EvaluateBatch, Submit, Subscribe)
//    takes views and plans from serving_cache(): EvalOptions::cache when
//    set — it may be shared by many services and threads — else a private
//    EvalCache the service owns. Views outlive the request or batch that
//    built them; EvalCacheOptions::max_index_bytes bounds what is retained.
//  - Submit/Drain/Shutdown form the streaming seam. They are mutually
//    thread-safe (any thread may submit), but unlike EvaluateBatch they
//    mutate the service (a persistent worker pool + queue), so a streaming
//    service must outlive its futures' producers, i.e. destroy it only
//    after Shutdown or after all futures are ready. A request's answers are
//    identical to what a blocking EvaluateBatch of the same request would
//    return; only completion order varies.

#ifndef CQA_EVAL_SERVICE_H_
#define CQA_EVAL_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cq/cq.h"
#include "data/database.h"
#include "eval/answer_set.h"
#include "eval/engine.h"
#include "eval/eval_context.h"
#include "eval/eval_stats.h"

namespace cqa {

class EvalCache;   // eval/cache.h
struct DeltaFact;  // eval/delta_eval.h

/// The serving options, in one struct. PlannerOptions is nested once here;
/// engine.h stays its single source of truth.
struct EvalOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  int num_threads = 0;
  /// Planner knobs: width budget + approximation-synthesis limits.
  PlannerOptions planner;
  /// The cache every calling convention goes through (eval/cache.h;
  /// QueryService::serving_cache): index views and plans are looked up
  /// there first and stored back, so they outlive any one request or
  /// batch. When unset, the service owns a private EvalCache with default
  /// options.
  std::shared_ptr<EvalCache> cache;
  /// Default resource limits applied to every request (deadline, node
  /// budget, max_answers; eval/eval_context.h). A request's own
  /// EvalRequest::limits overrides these field by field. For streamed
  /// requests the deadline clock starts at Submit — queueing counts.
  EvalLimits limits;
  /// Streaming admission control: the submit queue refuses to grow beyond
  /// this many *queued* (not yet executing) requests — Submit then returns
  /// a failed future carrying SubmitRejectedError{kQueueFull} and
  /// BatchStats::shed_rejected counts it. 0 (or negative) = unbounded.
  int max_queue = 0;
  /// Shed-before-reject threshold: once the queue holds at least this many
  /// requests, incoming AnswerMode::kExact requests are degraded to
  /// kBounds (the paper's sandwich as load management: a sound
  /// under/over pair now instead of an exact answer later), counted in
  /// BatchStats::shed_degraded and flagged EvalResponse::degraded. 0 =
  /// derived as max(1, max_queue / 2) when max_queue is set, else off.
  int degrade_queue = 0;
};

/// One unit of serving work. `db` is borrowed and must outlive the request;
/// many requests may share one database.
struct EvalRequest {
  ConjunctiveQuery query;
  const Database* db = nullptr;
  AnswerMode mode = AnswerMode::kExact;
  /// Per-request resource limits; nonzero fields override EvalOptions::
  /// limits (EvalLimits::Merge). max_answers stops AnswerSet
  /// materialization once the budget is reached.
  EvalLimits limits;
  /// Optional cooperative cancel flag (MakeCancelFlag); setting it to true
  /// makes the evaluation stop with ResponseStatus::kCancelled. May be
  /// shared across requests to cancel a group at once.
  CancelFlag cancel;
};

/// The paper's answer sandwich for AnswerMode::kBounds: under ⊆ Q(D) ⊆ over.
struct AnswerBounds {
  AnswerSet under = AnswerSet(0);  ///< certain answers (all correct)
  AnswerSet over = AnswerSet(0);   ///< possible answers (nothing missing)
  /// False when the evaluation was interrupted (EvalResponse::status !=
  /// kOk): an interrupted over side may be missing genuine answers, so
  /// `over` is NOT a valid superset of Q(D) and must be ignored. `under`
  /// stays sound either way (interruption only loses certain answers).
  bool over_valid = true;

  long long certain_count() const { return static_cast<long long>(under.size()); }
  long long possible_count() const { return static_cast<long long>(over.size()); }
  /// True when the sandwich collapsed: the bounds *are* the exact answers.
  bool tight() const { return over_valid && under == over; }
};

/// Outcome of one request.
struct EvalResponse {
  AnswerMode mode = AnswerMode::kExact;  ///< mode of the request
  /// Why evaluation finished. Anything but kOk means it stopped early
  /// (deadline / cancel / budget) and the response carries *partial*
  /// results: `answers` (and bounds->under) are still a sound set of
  /// certain answers — a subset of Q(D) — but never exact, and an over
  /// side is invalid (AnswerBounds::over_valid). In kOverApproximate mode
  /// a non-kOk response's answers are unreliable in both directions.
  ResponseStatus status = ResponseStatus::kOk;
  /// True when admission control rewrote this request from kExact to
  /// kBounds under queue pressure (EvalOptions::degrade_queue); `mode`
  /// then reads kBounds, the mode actually served.
  bool degraded = false;
  /// The answers in the mode's reading: exact Q(D) (kExact, or any mode on
  /// an in-budget query), the certain answers (kUnderApproximate, kBounds),
  /// or the possible answers (kOverApproximate).
  AnswerSet answers = AnswerSet(0);
  /// True when `answers` is exactly Q(D) — always in kExact mode with
  /// status kOk, and in the approximate modes whenever the planner could
  /// stay exact. Always false when status != kOk.
  bool exact = true;
  /// The sandwich, set iff mode == kBounds (under == answers then).
  std::optional<AnswerBounds> bounds;
  EngineKind engine = EngineKind::kNaive;  ///< exact-path engine of the plan
  PlanDecision plan;                       ///< planner verdict (if planned)
  PlanSource plan_source = PlanSource::kPlanned;  ///< where the plan came from
  EvalStats eval;        ///< per-request evaluation counters
  double plan_ms = 0.0;  ///< planning wall time (includes synthesis)
  double eval_ms = 0.0;  ///< evaluation wall time

  /// True when the plan came from the EvalCache plan tier.
  bool plan_cached() const { return plan_source == PlanSource::kCached; }
};

/// Aggregate timing over a batch.
struct BatchStats {
  double wall_ms = 0.0;        ///< end-to-end wall time of the batch
  double total_eval_ms = 0.0;  ///< sum of per-request eval times (CPU-ish)
  double max_job_ms = 0.0;     ///< slowest single request (plan + eval)
  int jobs = 0;
  int threads_used = 0;
  /// Requests whose plan the EvalCache plan tier served (PlanSource::
  /// kCached): planned earlier in this batch, by an earlier batch, or by a
  /// streaming request.
  long long plan_hits = 0;
  /// Distinct-database view acquisitions served by serving_cache() (a view
  /// caught up in place counts as served) / built fresh into it.
  long long index_cache_hits = 0;
  long long index_cache_misses = 0;
  /// Requests answered through approximation rewrites (plan.approximate).
  long long approx_jobs = 0;
  /// Requests that finished with status != kOk (deadline / cancel /
  /// truncation): their responses carry sound partial under-approximations.
  long long stopped_jobs = 0;
  /// Admission-control counters (streaming path; see EvalOptions::
  /// max_queue / degrade_queue): kExact requests degraded to kBounds under
  /// queue pressure, and submissions rejected outright on a full queue.
  /// Populated by QueryService::StreamingStats; always 0 in EvaluateBatch
  /// stats (batches are admitted as a whole).
  long long shed_degraded = 0;
  long long shed_rejected = 0;
  EvalStats eval;             ///< summed per-request evaluation counters
  long long index_bytes = 0;  ///< footprint of the index views this batch used
};

/// The cursor handoff (the streaming reading of an EvalResponse): the
/// response's answer sets moved — never copied — into immutable
/// AnswerCursor paging snapshots (eval/answer_set.h). `meta` keeps every
/// scalar field (mode, status, degraded, exact, plan, stats, timings) but
/// its `answers` (and, in kBounds, `bounds`) have been consumed; sizes and
/// rows live on the cursors.
///
/// Snapshot rule, shared with Subscription::Poll: both readers observe the
/// database at a single version. A Poll tick applies pending facts
/// atomically under the database's write mutex and moves the subscription
/// from one version snapshot to the next; a cursor is pinned to the version
/// it evaluated at (AnswerCursor::db_version — captured here from the live
/// database, which cannot have mutated mid-request per the EvalRequest
/// contract). A cursor opened before a Publish either finishes on its
/// snapshot (the rows are owned) or is refused by a staleness-bounding
/// serving layer with a typed kCursorInvalidated error (src/net/server.h);
/// a torn page mixing two versions can never be produced.
struct CursorResponse {
  EvalResponse meta;
  /// The mode's primary answer set (kExact/kOver/kUnder answers; the
  /// certain side in kBounds). Never null.
  std::shared_ptr<const AnswerCursor> answers;
  /// The possible side (kBounds only; null otherwise). Check
  /// meta.bounds->over_valid before trusting it after an interruption.
  std::shared_ptr<const AnswerCursor> over;
};

/// Why QueryService::Submit refused a request; delivered through the
/// returned future (std::future::get throws it).
class SubmitRejectedError : public std::runtime_error {
 public:
  enum class Reason {
    kShutdown,   ///< Submit after Shutdown(): the worker pool is gone
    kQueueFull,  ///< EvalOptions::max_queue reached (load shedding)
  };

  explicit SubmitRejectedError(Reason reason)
      : std::runtime_error(reason == Reason::kShutdown
                               ? "submit rejected: service shut down"
                               : "submit rejected: queue full"),
        reason_(reason) {}

  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

/// One batch of standing-query changes — the result of one
/// Subscription::Poll. CQs (and the approximation sandwich) are monotone, so
/// deltas are pure additions; see eval/delta_eval.h for the algebra.
struct SubscriptionDelta {
  /// Why the tick finished. Anything but kOk means the tick stopped early
  /// (deadline / cancel / budget): the reported additions are still genuine
  /// (sound), but the tick is partial — unapplied facts stay pending and
  /// the next Poll picks them up.
  ResponseStatus status = ResponseStatus::kOk;
  /// Newly inserted facts this tick fully committed (the contiguous prefix
  /// of the pending facts, in insertion order per relation).
  size_t facts_applied = 0;
  /// True when the tick (re)ran a full from-scratch evaluation instead of
  /// delta maintenance: the first Poll, or the first after an interrupted
  /// initialization. The additions then describe the full current answers.
  bool reinitialized = false;
  /// True when, at the end of this tick, every inserted fact has been
  /// applied and the state is fully initialized — answers() is current.
  bool caught_up = false;
  /// Additions to the certain side (answers() — exact answers, or the
  /// union of under-rewrites for width-over-budget queries).
  AnswerSet new_answers = AnswerSet(0);
  /// Additions to the possible side (possible() — the intersection of
  /// over-rewrites; equals new_answers when the plan is exact).
  AnswerSet new_possible = AnswerSet(0);
  EvalStats eval;  ///< per-tick evaluation counters (delta_ticks et al.)
};

/// A standing query: the maintained answers of one EvalRequest, kept
/// current as facts are inserted into its database. Created only by
/// QueryService::Subscribe; destroy in any order relative to the service.
///
/// Lifecycle: Subscribe registers the query (planning it like any request,
/// through the same plan cache). Each Poll() applies the facts inserted
/// since the previous Poll through semi-naive delta evaluation
/// (eval/delta_eval.h) — the first Poll runs the from-scratch baseline —
/// and returns the answer additions. Per-tick resource limits come from
/// EvalOptions::limits merged with the request's own; an interrupted tick
/// is soundly partial (see SubscriptionDelta::status) and the next Poll
/// resumes where it stopped.
///
/// Writer contract: insert facts through QueryService::Publish(db, ...) —
/// it serializes writers against this subscription's Polls, so a writer
/// thread and a polling subscriber thread need no external locking. (Facts
/// inserted by bare Database::AddFact are picked up too, but then the
/// caller must not run AddFact concurrently with Poll.) Deletions are not
/// supported — the delta algebra is insert-only, matching CQ monotonicity.
///
/// The baseline tick answers through the same plan runner as every request
/// (so it equals Evaluate's answers at that version); later ticks push the
/// delta through one DeltaEvaluator per rewrite, an exact plan being the
/// one-rewrite case whose rewrite is the query itself.
/// Thread-safe: Poll, answers(), possible(), and caught_up() may be called
/// from different threads.
class Subscription {
 public:
  ~Subscription();
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// Applies all facts inserted since the last Poll (the first Poll runs
  /// the full baseline) and returns the additions. Blocks concurrent
  /// Publish calls on the same database for the duration of the tick.
  SubscriptionDelta Poll();

  /// Snapshot of the certain side: always a sound subset of Q(D) as of the
  /// last Poll; the exact answers when caught_up() and the plan is exact.
  AnswerSet answers() const;

  /// Snapshot of the possible side (⊇ Q(D) as of the last Poll, when
  /// over_valid(); equals answers() for exact plans).
  AnswerSet possible() const;

  /// True once a baseline tick has completed and the plan has a possible
  /// side (an exact plan, or over rewrites). An interrupted baseline leaves
  /// it false; an interrupted delta tick commits nothing and leaves it true.
  bool over_valid() const;

  /// True when every fact inserted before the last Poll has been applied.
  bool caught_up() const;

  const PlanDecision& plan() const { return plan_; }

 private:
  friend class QueryService;
  Subscription(EvalRequest request, PlanDecision plan,
               std::shared_ptr<EvalCache> cache,
               std::shared_ptr<std::mutex> write_mu);

  // Tick steps; the caller holds the write lock and mu_. RunBaseline
  // returns false when interrupted, ApplyDelta the committed prefix length.
  bool RunBaseline(const IndexedDatabase& idb, const EvalContext* ctx,
                   SubscriptionDelta* out);
  size_t ApplyDelta(const std::vector<DeltaFact>& delta,
                    const IndexedDatabase& idb, const EvalContext* ctx,
                    SubscriptionDelta* out);
  bool CaughtUpLocked() const;

  /// The standing request; its limits already merged with EvalOptions::
  /// limits (they apply per tick).
  const EvalRequest request_;
  const PlanDecision plan_;
  const std::shared_ptr<EvalCache> cache_;  ///< view source (serving cache)
  /// The database's write lock, shared with QueryService::Publish: held for
  /// the whole tick so the fact vectors are stable while Poll reads them.
  const std::shared_ptr<std::mutex> write_mu_;

  mutable std::mutex mu_;  ///< guards the maintained state below
  std::vector<size_t> consumed_;  ///< facts applied, per relation
  /// True after a complete baseline; stays true (delta ticks commit fact by
  /// fact, so an interrupted one leaves a consistent state).
  bool initialized_ = false;
  /// Exact answers, or the union of the under rewrites.
  AnswerSet certain_;
  /// The intersection of over_parts_ (approximate plans only).
  AnswerSet possible_;
  std::vector<AnswerSet> over_parts_;  ///< one per plan_.over rewrite
};

/// The serving facade. One service instance handles blocking, batch, and
/// streaming evaluation in all four AnswerModes through one options struct
/// and (optionally) one shared cross-batch cache.
class QueryService {
 public:
  explicit QueryService(EvalOptions options = {});

  /// Joins the streaming workers (running Submit futures complete first).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Evaluates one request, blocking. Equivalent to a one-element batch.
  EvalResponse Evaluate(const EvalRequest& request) const;

  /// Runs all requests across a transient thread pool; results are indexed
  /// like the input and bit-identical to a sequential run. `stats`
  /// (optional) receives aggregate timing. One immutable IndexedDatabase
  /// per distinct database is shared by all workers; views and plans come
  /// from serving_cache(), and each canonical shape x mode (with its
  /// approximation synthesis) is planned once, however many workers miss on
  /// it. If a request throws (e.g. bad_alloc), the pool winds down and the
  /// first exception is rethrown to the caller.
  std::vector<EvalResponse> EvaluateBatch(
      const std::vector<EvalRequest>& requests,
      BatchStats* stats = nullptr) const;

  /// Streaming submission: enqueues one request on the persistent worker
  /// pool (started lazily on first call) and returns a future for its
  /// response. The answers equal what EvaluateBatch({request}) would
  /// produce. Thread-safe. Plans and views go through serving_cache();
  /// concurrent first-sight requests of one shape plan once. If the request
  /// throws, the exception is delivered via the future.
  ///
  /// Admission control: after Shutdown() — or when a concurrent Shutdown
  /// wins the race — Submit returns a failed future carrying
  /// SubmitRejectedError{kShutdown} (never a crash, never a silent drop).
  /// With EvalOptions::max_queue set, a full queue returns a failed future
  /// carrying SubmitRejectedError{kQueueFull}; above the degrade threshold
  /// kExact requests are served as kBounds instead (EvalResponse::
  /// degraded). The request's deadline (if any) is armed here, so queue
  /// wait counts against it. StreamingStats() exposes the shed counters.
  std::future<EvalResponse> Submit(EvalRequest request);

  /// Cumulative streaming-path counters: jobs served, shed_degraded /
  /// shed_rejected from admission control, stopped_jobs from
  /// deadline/cancel/budget trips. Other BatchStats fields stay 0.
  /// Thread-safe.
  BatchStats StreamingStats() const;

  /// The cursor handoff: moves `response`'s answer sets into paging
  /// snapshots pinned to `db`'s current version (see CursorResponse for the
  /// snapshot rule). Call with the database the response was evaluated
  /// against, after the response is ready — Evaluate returned or the Submit
  /// future resolved — and before any later mutation of `db`; the
  /// EvalRequest contract (no mutation while a request is in flight) makes
  /// the version read here the evaluation-time version.
  static CursorResponse MakeCursors(EvalResponse response, const Database& db);

  /// Blocks until every submitted request has completed. Thread-safe.
  void Drain();

  /// Drains outstanding requests, then stops and joins the worker pool.
  /// Idempotent; afterwards Submit returns failed futures (see Submit).
  /// Thread-safe.
  void Shutdown();

  /// Registers a standing query: plans `request` (same plan cache as any
  /// other request) and returns a Subscription whose Poll() maintains the
  /// answers incrementally as facts are inserted into request.db. The
  /// request's limits (merged with EvalOptions::limits) apply per tick, and
  /// its cancel flag stops ticks cooperatively. Thread-safe.
  std::unique_ptr<Subscription> Subscribe(EvalRequest request);

  /// Inserts one fact, serialized against every subscription on `db` (the
  /// subscription writer seam: a writer thread publishing while a
  /// subscriber thread polls needs no external locking). Returns
  /// Database::AddFact's verdict (false = duplicate, nothing inserted).
  /// Thread-safe; `db` must outlive the call.
  bool Publish(Database* db, RelationId rel, Tuple fact);

  /// The cache every calling convention goes through: EvalOptions::cache
  /// when set, else a private cache the service owns. Never null.
  EvalCache* serving_cache() const;

  const EvalOptions& options() const { return options_; }

 private:
  struct Pending {
    EvalRequest request;
    std::promise<EvalResponse> promise;
    /// Created at Submit time (deadline armed there: queue wait counts);
    /// null when the request has no limits and no cancel flag.
    std::shared_ptr<const EvalContext> ctx;
    bool degraded = false;  ///< admission control rewrote kExact -> kBounds
  };

  void WorkerLoop();

  /// The per-database write mutex shared by Publish and every Subscription
  /// on that database (created on first use, retained for the service's
  /// lifetime; entries are keyed by identity).
  std::shared_ptr<std::mutex> WriteMutexFor(const Database* db);

  EvalOptions options_;
  /// EvalOptions::cache, or a private one; fixed at construction.
  const std::shared_ptr<EvalCache> serving_cache_;

  // Streaming state (untouched by EvaluateBatch, which shares only
  // serving_cache_).
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: request or shutdown
  std::condition_variable idle_cv_;  ///< signals Drain: in_flight_ hit 0
  std::deque<Pending> queue_;
  std::vector<std::thread> workers_;
  long long in_flight_ = 0;  ///< queued + executing requests
  bool stopping_ = false;
  // Streaming-path counters (guarded by mu_; surfaced by StreamingStats).
  long long streamed_jobs_ = 0;
  long long shed_degraded_ = 0;
  long long shed_rejected_ = 0;
  long long stopped_jobs_ = 0;

  // Per-database write mutexes for the subscription seam (its own lock,
  // held only for map access — never together with mu_).
  std::mutex pub_mu_;
  std::unordered_map<const Database*, std::shared_ptr<std::mutex>>
      write_mu_by_db_;
};

}  // namespace cqa

#endif  // CQA_EVAL_SERVICE_H_
