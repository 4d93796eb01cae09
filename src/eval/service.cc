#include "eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "data/index.h"
#include "eval/cache.h"
#include "eval/delta_eval.h"

namespace cqa {
namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// 0 (or negative) means "use the hardware", with a floor of one thread.
int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

// One stateless instance of every engine; safe to share across threads.
struct EngineSet {
  EngineSet()
      : engines{MakeEngine(EngineKind::kNaive),
                MakeEngine(EngineKind::kYannakakis),
                MakeEngine(EngineKind::kTreewidth)} {}
  const Engine& For(EngineKind kind) const {
    return *engines[static_cast<int>(kind)];
  }
  std::unique_ptr<Engine> engines[3];
};

// What the plan runner computed on one view: the certain side, and one
// answer set per over rewrite (intersect them for the possible side).
struct PlanRun {
  AnswerSet certain;
  /// Every over rewrite's complete answers, or empty when the run was
  /// interrupted first: an interrupted part is a subset of its rewrite, and
  /// intersecting with it could drop genuine answers.
  std::vector<AnswerSet> over_parts;
};

// The plan runner, shared by every request and by a subscription's baseline
// tick. The certain side is the exact query itself on plan.kind for an
// exact plan, else the union of the maximally contained rewrites: each
// rewrite Q' satisfies Q' ⊆ Q, so every tuple is a genuine answer, and an
// interrupted partial union (fewer rewrites, each a partial subset) still
// is. Then the containing rewrites (Q ⊆ Q'') are evaluated one by one. The
// run stops at the first interruption.
PlanRun RunPlan(const ConjunctiveQuery& query, const PlanDecision& plan,
                const EngineSet& engines, const IndexedDatabase& idb,
                EvalStats* stats, const EvalContext* ctx) {
  const auto evaluate = [&](const ConjunctiveQuery& q, EngineKind kind) {
    return engines.For(kind).Evaluate(q, idb, stats, ctx);
  };
  const auto live = [&] { return ctx == nullptr || ctx->ok(); };
  if (!plan.approximate) return PlanRun{evaluate(query, plan.kind), {}};
  PlanRun run{AnswerSet(static_cast<int>(query.free_variables().size())),
              {}};
  for (const ApproxSubPlan& sub : plan.under) {
    if (!live()) break;
    run.certain.InsertAll(evaluate(sub.query, sub.kind));
  }
  for (const ApproxSubPlan& sub : plan.over) {
    if (!live()) break;
    run.over_parts.push_back(evaluate(sub.query, sub.kind));
  }
  if (!live()) run.over_parts.clear();
  return run;
}

// Possible answers: the intersection of the containing rewrites' answers.
// Each rewrite Q'' satisfies Q ⊆ Q'', so no genuine answer is dropped.
AnswerSet IntersectionOf(const std::vector<AnswerSet>& parts, int arity) {
  AnswerSet result(arity);
  if (parts.empty()) return result;
  parts[0].ForEachRow([&](std::span<const Element> row) {
    bool in_all = true;
    for (size_t i = 1; i < parts.size() && in_all; ++i) {
      in_all = parts[i].Contains(row);
    }
    if (in_all) result.Insert(row);
  });
  return result;
}

// Plans and evaluates one request on `idb`, the view of request.db, into
// `out`. Plans come from `cache`'s single-flight plan tier.
void ExecuteRequest(const EvalRequest& request, const EvalOptions& options,
                    const EngineSet& engines, const IndexedDatabase& idb,
                    EvalCache& cache, const EvalContext* ctx,
                    EvalResponse* out) {
  out->mode = request.mode;
  const int out_arity = static_cast<int>(request.query.free_variables().size());
  // A request that arrives already stopped (expired deadline — possibly
  // spent queueing — a raised cancel flag, or a zero budget) returns
  // immediately: empty answers are the canonical sound under-approximation,
  // and planning is skipped too.
  if (ctx != nullptr && ctx->Interrupted()) {
    out->status = ctx->status();
    out->exact = false;
    out->answers = AnswerSet(out_arity);
    if (request.mode == AnswerMode::kBounds) {
      AnswerBounds bounds;
      bounds.under = AnswerSet(out_arity);
      bounds.over = AnswerSet(out_arity);
      bounds.over_valid = false;
      out->bounds = std::move(bounds);
    }
    out->plan.reason = std::string("not planned: request already stopped (") +
                       ResponseStatusName(out->status) + ")";
    return;
  }
  const auto plan_start = std::chrono::steady_clock::now();
  bool hit = false;
  const std::shared_ptr<const PlanDecision> plan = cache.GetOrPlan(
      PlanCacheKey(request.query, options.planner, request.mode),
      [&] { return PlanQuery(request.query, options.planner, request.mode); },
      &hit);
  out->plan = *plan;  // deep copy outside every lock
  out->plan_source = hit ? PlanSource::kCached : PlanSource::kPlanned;
  out->engine = out->plan.kind;
  out->plan_ms = MsSince(plan_start);

  const auto eval_start = std::chrono::steady_clock::now();
  PlanRun run = RunPlan(request.query, out->plan, engines, idb, &out->eval,
                        ctx);
  // Exact evaluation serves every mode; in kBounds the sandwich collapses.
  out->exact = !out->plan.approximate;
  if (request.mode == AnswerMode::kOverApproximate && out->plan.approximate) {
    out->answers = IntersectionOf(run.over_parts, out_arity);
  } else {
    out->answers = std::move(run.certain);  // exact, or the certain answers
  }
  if (request.mode == AnswerMode::kBounds) {
    AnswerBounds bounds;
    bounds.under = out->answers;
    bounds.over = out->plan.approximate
                      ? IntersectionOf(run.over_parts, out_arity)
                      : out->answers;
    out->bounds = std::move(bounds);
  }
  out->eval_ms = MsSince(eval_start);
  // Interruption verdict: sticky on the context, stamped on the response.
  // Partial answers are a sound under-approximation, never exact; any over
  // side computed under interruption may be missing genuine answers.
  if (ctx != nullptr && !ctx->ok()) {
    out->status = ctx->status();
    out->exact = false;
    if (out->bounds.has_value()) out->bounds->over_valid = false;
  }
}

}  // namespace

QueryService::QueryService(EvalOptions options)
    : options_(std::move(options)),
      serving_cache_(options_.cache != nullptr
                         ? options_.cache
                         : std::make_shared<EvalCache>()) {}

QueryService::~QueryService() { Shutdown(); }

EvalResponse QueryService::Evaluate(const EvalRequest& request) const {
  std::vector<EvalRequest> one;
  one.push_back(request);
  std::vector<EvalResponse> responses = EvaluateBatch(one);
  return std::move(responses.front());
}

std::vector<EvalResponse> QueryService::EvaluateBatch(
    const std::vector<EvalRequest>& requests, BatchStats* stats) const {
  const auto run_start = std::chrono::steady_clock::now();

  std::vector<EvalResponse> responses(requests.size());
  const EngineSet engines;
  EvalCache& cache = *serving_cache_;

  const int hw_threads = ResolveThreadCount(options_.num_threads);
  int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(hw_threads), requests.size()));

  // One immutable index view per distinct database, shared by all worker
  // threads: structures are built once (under the view's lock) and probed
  // concurrently afterwards. The shared_ptr keeps a view usable even if the
  // cache evicts it mid-batch.
  std::unordered_map<const Database*, std::shared_ptr<const IndexedDatabase>>
      views;
  long long view_hits = 0, view_misses = 0;
  for (const EvalRequest& request : requests) {
    CQA_CHECK(request.db != nullptr);
    auto& slot = views[request.db];
    if (slot != nullptr) continue;
    bool hit = false;
    slot = cache.AcquireIndexed(*request.db, &hit);
    ++(hit ? view_hits : view_misses);
  }

  const auto run_request = [&](size_t i) {
    const EvalRequest& request = requests[i];
    // One interruption token per request (deadline armed here, when the
    // request actually starts): service-wide defaults overridden field by
    // field by the request's own limits. No limits, no token, no overhead.
    const EvalLimits limits =
        EvalLimits::Merge(options_.limits, request.limits);
    std::optional<EvalContext> ectx;
    if (limits.any() || request.cancel != nullptr) {
      ectx.emplace(limits, request.cancel);
    }
    ExecuteRequest(request, options_, engines, *views.at(request.db), cache,
                   ectx.has_value() ? &*ectx : nullptr, &responses[i]);
  };

  if (threads <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) run_request(i);
  } else {
    // Work-stealing by atomic index: deterministic output because every
    // request writes only responses[i] and evaluation itself is
    // deterministic. A throw (e.g. bad_alloc inside rewrite synthesis)
    // must not escape a std::thread — the first one is captured, the pool
    // winds down, and it is rethrown to the caller after the join.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < requests.size();
             i = next.fetch_add(1)) {
          if (failed.load(std::memory_order_relaxed)) return;
          try {
            run_request(i);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(error_mu);
              if (first_error == nullptr) {
                first_error = std::current_exception();
              }
            }
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->wall_ms = MsSince(run_start);
    stats->jobs = static_cast<int>(requests.size());
    stats->threads_used = requests.empty() ? 0 : std::max(threads, 1);
    stats->index_cache_hits = view_hits;
    stats->index_cache_misses = view_misses;
    for (const EvalResponse& r : responses) {
      stats->total_eval_ms += r.eval_ms;
      stats->max_job_ms = std::max(stats->max_job_ms, r.plan_ms + r.eval_ms);
      stats->eval.Add(r.eval);
      if (r.plan_cached()) ++stats->plan_hits;
      if (r.plan.approximate) ++stats->approx_jobs;
      if (r.status != ResponseStatus::kOk) ++stats->stopped_jobs;
    }
    for (const auto& [db, view] : views) {
      stats->index_bytes += view->stats().bytes;
    }
  }
  return responses;
}

namespace {

// A future that is already failed with the given rejection reason — the
// documented Submit outcome for shutdown races and full queues.
std::future<EvalResponse> RejectedFuture(SubmitRejectedError::Reason reason) {
  std::promise<EvalResponse> promise;
  promise.set_exception(
      std::make_exception_ptr(SubmitRejectedError(reason)));
  return promise.get_future();
}

}  // namespace

std::future<EvalResponse> QueryService::Submit(EvalRequest request) {
  CQA_CHECK(request.db != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  // Submit after (or racing) Shutdown: a failed future, never a crash or a
  // silent drop — the submitter learns the fate of every request.
  if (stopping_) {
    return RejectedFuture(SubmitRejectedError::Reason::kShutdown);
  }
  // Admission control (EvalOptions::max_queue / degrade_queue): reject on a
  // full queue; above the degrade threshold serve kExact as kBounds — the
  // approximation sandwich as load management (a sound under/over pair now
  // instead of an exact answer later).
  bool degraded = false;
  if (options_.max_queue > 0) {
    if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      ++shed_rejected_;
      return RejectedFuture(SubmitRejectedError::Reason::kQueueFull);
    }
  }
  const int degrade_at =
      options_.degrade_queue > 0
          ? options_.degrade_queue
          : (options_.max_queue > 0 ? std::max(1, options_.max_queue / 2) : 0);
  if (degrade_at > 0 && static_cast<int>(queue_.size()) >= degrade_at &&
      request.mode == AnswerMode::kExact) {
    request.mode = AnswerMode::kBounds;
    degraded = true;
    ++shed_degraded_;
  }
  if (workers_.empty()) {
    const int threads = ResolveThreadCount(options_.num_threads);
    workers_.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back(&QueryService::WorkerLoop, this);
    }
  }
  Pending pending{std::move(request)};
  pending.degraded = degraded;
  // The interruption token is created NOW, so a deadline covers queue wait:
  // a request that expires while queued returns an immediate (empty, sound)
  // kDeadlineExceeded response instead of occupying a worker.
  const EvalLimits limits =
      EvalLimits::Merge(options_.limits, pending.request.limits);
  if (limits.any() || pending.request.cancel != nullptr) {
    pending.ctx =
        std::make_shared<const EvalContext>(limits, pending.request.cancel);
  }
  queue_.push_back(std::move(pending));
  std::future<EvalResponse> future = queue_.back().promise.get_future();
  ++in_flight_;
  work_cv_.notify_one();
  return future;
}

BatchStats QueryService::StreamingStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BatchStats stats;
  stats.jobs = static_cast<int>(streamed_jobs_);
  stats.shed_degraded = shed_degraded_;
  stats.shed_rejected = shed_rejected_;
  stats.stopped_jobs = stopped_jobs_;
  return stats;
}

CursorResponse QueryService::MakeCursors(EvalResponse response,
                                         const Database& db) {
  CursorResponse out;
  const uint64_t version = db.version();
  out.answers = std::make_shared<const AnswerCursor>(
      std::move(response.answers), version);
  response.answers = AnswerSet(out.answers->arity());
  if (response.bounds.has_value()) {
    // The under side duplicates `answers`; both sets are consumed so the
    // response carries no materialized copy of a large result.
    out.over = std::make_shared<const AnswerCursor>(
        std::move(response.bounds->over), version);
    response.bounds->under = AnswerSet(out.answers->arity());
    response.bounds->over = AnswerSet(out.over->arity());
  }
  out.meta = std::move(response);
  return out;
}

void QueryService::WorkerLoop() {
  const EngineSet engines;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and all pending requests done
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();

    EvalResponse response;
    std::exception_ptr error;
    // The shared_ptr keeps the view alive for the whole request even if the
    // cache evicts it meanwhile. A throw must not escape the worker thread
    // (std::terminate): it travels through the future.
    try {
      const std::shared_ptr<const IndexedDatabase> view =
          serving_cache_->AcquireIndexed(*pending.request.db);
      ExecuteRequest(pending.request, options_, engines, *view,
                     *serving_cache_, pending.ctx.get(), &response);
      response.degraded = pending.degraded;
    } catch (...) {
      error = std::current_exception();
    }

    // Count the job before its future becomes ready, so StreamingStats read
    // after the future resolves includes it.
    lock.lock();
    ++streamed_jobs_;
    if (error != nullptr) {
      pending.promise.set_exception(error);
    } else {
      if (response.status != ResponseStatus::kOk) ++stopped_jobs_;
      pending.promise.set_value(std::move(response));
    }
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void QueryService::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

EvalCache* QueryService::serving_cache() const { return serving_cache_.get(); }

std::shared_ptr<std::mutex> QueryService::WriteMutexFor(const Database* db) {
  std::lock_guard<std::mutex> lock(pub_mu_);
  std::shared_ptr<std::mutex>& slot = write_mu_by_db_[db];
  if (slot == nullptr) slot = std::make_shared<std::mutex>();
  return slot;
}

bool QueryService::Publish(Database* db, RelationId rel, Tuple fact) {
  CQA_CHECK(db != nullptr);
  const std::shared_ptr<std::mutex> write_mu = WriteMutexFor(db);
  std::lock_guard<std::mutex> lock(*write_mu);
  return db->AddFact(rel, std::move(fact));
}

std::unique_ptr<Subscription> QueryService::Subscribe(EvalRequest request) {
  CQA_CHECK(request.db != nullptr);
  // Plan like any other request, through the one plan tier. The plan is
  // fixed for the subscription's lifetime — the decision depends on the
  // query shape and mode only, never on the data.
  const std::shared_ptr<const PlanDecision> plan = serving_cache_->GetOrPlan(
      PlanCacheKey(request.query, options_.planner, request.mode),
      [&] { return PlanQuery(request.query, options_.planner, request.mode); });
  request.limits = EvalLimits::Merge(options_.limits, request.limits);
  std::shared_ptr<std::mutex> write_mu = WriteMutexFor(request.db);
  // The subscription's view source is the serving cache: its identity
  // catch-up path (eval/cache.h) is what keeps per-tick index maintenance
  // O(delta) instead of a per-tick rebuild.
  return std::unique_ptr<Subscription>(new Subscription(
      std::move(request), *plan, serving_cache_, std::move(write_mu)));
}

Subscription::Subscription(EvalRequest request, PlanDecision plan,
                           std::shared_ptr<EvalCache> cache,
                           std::shared_ptr<std::mutex> write_mu)
    : request_(std::move(request)),
      plan_(std::move(plan)),
      cache_(std::move(cache)),
      write_mu_(std::move(write_mu)),
      consumed_(request_.db->vocab()->num_relations(), 0),
      certain_(static_cast<int>(request_.query.free_variables().size())),
      possible_(certain_.arity()) {}

Subscription::~Subscription() = default;

SubscriptionDelta Subscription::Poll() {
  // The write lock first — Publish calls on this database block for the
  // whole tick, so the fact vectors are stable while the tick reads them —
  // then the subscription's own state lock. Same order in caught_up();
  // the cache and view locks nest strictly inside: no cycles.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> state_lock(mu_);
  const Database& db = *request_.db;
  SubscriptionDelta out;
  out.new_answers = AnswerSet(certain_.arity());
  out.new_possible = AnswerSet(certain_.arity());
  ++out.eval.delta_ticks;

  // The view rides the cache's catch-up path: same database object, newer
  // version — appended in place, never rebuilt (EvalCacheStats::
  // index_delta_appends counts it).
  const std::shared_ptr<const IndexedDatabase> view =
      cache_->AcquireIndexed(db);

  const int num_relations = db.vocab()->num_relations();
  std::vector<DeltaFact> delta;
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::vector<Tuple>& facts = db.facts(r);
    for (size_t id = consumed_[r]; id < facts.size(); ++id) {
      delta.push_back(DeltaFact{r, facts[id]});
    }
  }

  // Per-tick interruption token (deadline armed now, covering this tick
  // only); an interrupted tick commits a prefix and the rest stays pending.
  std::optional<EvalContext> ectx;
  if (request_.limits.any() || request_.cancel != nullptr) {
    ectx.emplace(request_.limits, request_.cancel);
  }
  const EvalContext* ctx = ectx.has_value() ? &*ectx : nullptr;
  if (!initialized_) {
    // First tick, or an earlier baseline was interrupted: run it again and
    // report what it adds to the answers reported so far.
    out.reinitialized = true;
    if (RunBaseline(*view, ctx, &out)) out.facts_applied = delta.size();
  } else {
    out.facts_applied = ApplyDelta(delta, *view, ctx, &out);
  }
  // Exact plans: the sandwich collapses, possible() is certain().
  if (!plan_.approximate) out.new_possible = out.new_answers;
  out.eval.delta_facts += static_cast<long long>(out.facts_applied);
  out.status = ctx != nullptr ? ctx->status() : ResponseStatus::kOk;

  // Advance the per-relation cursors over the committed prefix, in the same
  // relation-major order the delta was collected.
  size_t applied = out.facts_applied;
  for (RelationId r = 0; r < num_relations && applied > 0; ++r) {
    const size_t pending = db.facts(r).size() - consumed_[r];
    const size_t take = std::min(applied, pending);
    consumed_[r] += take;
    applied -= take;
  }
  out.caught_up = CaughtUpLocked();
  return out;
}

bool Subscription::RunBaseline(const IndexedDatabase& idb,
                               const EvalContext* ctx,
                               SubscriptionDelta* out) {
  const EngineSet engines;
  PlanRun run = RunPlan(request_.query, plan_, engines, idb, &out->eval, ctx);
  // Partial results of an interrupted run are kept: they are proven answers
  // and insertions never remove one (monotonicity), so merging them in is
  // sound, and the next baseline completes the set.
  run.certain.ForEachRow([&](std::span<const Element> row) {
    if (certain_.Insert(row)) out->new_answers.Insert(row);
  });
  if (ctx != nullptr && !ctx->ok()) return false;
  // The over parts are replaced only by a complete set. Each grew with the
  // database, so their fresh intersection contains every possible answer
  // reported before: merging keeps reported answers stable.
  over_parts_ = std::move(run.over_parts);
  const AnswerSet possible = IntersectionOf(over_parts_, possible_.arity());
  possible.ForEachRow([&](std::span<const Element> row) {
    if (possible_.Insert(row)) out->new_possible.Insert(row);
  });
  initialized_ = true;
  return true;
}

size_t Subscription::ApplyDelta(const std::vector<DeltaFact>& delta,
                                const IndexedDatabase& idb,
                                const EvalContext* ctx,
                                SubscriptionDelta* out) {
  // An exact plan is the one-rewrite case: its certain side is the query.
  std::vector<DeltaEvaluator> unders;
  unders.reserve(plan_.under.size() + 1);
  if (!plan_.approximate) {
    unders.emplace_back(request_.query, idb, &out->eval, ctx);
  }
  for (const ApproxSubPlan& sub : plan_.under) {
    unders.emplace_back(sub.query, idb, &out->eval, ctx);
  }
  std::vector<DeltaEvaluator> overs;
  overs.reserve(plan_.over.size());
  for (const ApproxSubPlan& sub : plan_.over) {
    overs.emplace_back(sub.query, idb, &out->eval, ctx);
  }
  size_t applied = 0;
  for (const DeltaFact& fact : delta) {
    // Per-fact temporaries: nothing is committed unless the fact processes
    // completely, so an interruption never leaves the under union or an
    // over part half-updated (an under-complete over part would make the
    // intersection drop possible answers).
    AnswerSet under_fresh(certain_.arity());
    bool complete = true;
    for (DeltaEvaluator& evaluator : unders) {
      if (!evaluator.ApplyFact(fact, certain_, &under_fresh)) {
        complete = false;
        break;
      }
    }
    std::vector<AnswerSet> over_fresh;
    over_fresh.reserve(overs.size());
    for (size_t j = 0; complete && j < overs.size(); ++j) {
      over_fresh.emplace_back(possible_.arity());
      if (!overs[j].ApplyFact(fact, over_parts_[j], &over_fresh[j])) {
        complete = false;
      }
    }
    if (!complete) break;
    certain_.InsertAll(under_fresh);
    out->new_answers.InsertAll(under_fresh);
    for (size_t j = 0; j < over_fresh.size(); ++j) {
      over_parts_[j].InsertAll(over_fresh[j]);
    }
    // A tuple newly enters the intersection only if some part just gained
    // it, so the fresh sets are a complete candidate list.
    for (const AnswerSet& fresh : over_fresh) {
      fresh.ForEachRow([&](std::span<const Element> row) {
        if (possible_.Contains(row)) return;
        for (const AnswerSet& part : over_parts_) {
          if (!part.Contains(row)) return;
        }
        possible_.Insert(row);
        out->new_possible.Insert(row);
      });
    }
    ++applied;
  }
  return applied;
}

bool Subscription::CaughtUpLocked() const {
  if (!initialized_) return false;
  const int num_relations = request_.db->vocab()->num_relations();
  for (RelationId r = 0; r < num_relations; ++r) {
    if (consumed_[r] != request_.db->facts(r).size()) return false;
  }
  return true;
}

AnswerSet Subscription::answers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return certain_;
}

AnswerSet Subscription::possible() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_.approximate ? possible_ : certain_;
}

bool Subscription::over_valid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return initialized_ && (!plan_.approximate || !plan_.over.empty());
}

bool Subscription::caught_up() const {
  // Write lock too: the fact-vector sizes are read here, and a concurrent
  // Publish writes them.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return CaughtUpLocked();
}

}  // namespace cqa
