#include "eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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

AnswerSet EvaluateSubPlan(const ApproxSubPlan& sub, const EngineSet& engines,
                          const IndexedDatabase* idb, const Database& db,
                          EvalStats* stats, const EvalContext* ctx) {
  const Engine& engine = engines.For(sub.kind);
  return idb != nullptr ? engine.Evaluate(sub.query, *idb, stats, ctx)
                        : engine.Evaluate(sub.query, db, stats, ctx);
}

// Certain answers: the union of the maximally contained rewrites. Each
// rewrite Q' satisfies Q' ⊆ Q, so every tuple is a genuine answer — and an
// interrupted partial union (fewer rewrites, each a partial subset) still
// is: the under side stays sound under every interruption.
AnswerSet UnionOfSubPlans(const std::vector<ApproxSubPlan>& subs,
                          const EngineSet& engines,
                          const IndexedDatabase* idb, const Database& db,
                          int arity, EvalStats* stats,
                          const EvalContext* ctx) {
  AnswerSet result(arity);
  for (const ApproxSubPlan& sub : subs) {
    if (ctx != nullptr && !ctx->ok()) break;
    const AnswerSet part = EvaluateSubPlan(sub, engines, idb, db, stats, ctx);
    for (const Tuple& t : part.tuples()) result.Insert(t);
  }
  return result;
}

// Possible answers: the intersection of the containing rewrites. Each
// rewrite Q'' satisfies Q ⊆ Q'', so no genuine answer is ever dropped —
// but ONLY when every rewrite ran to completion: an interrupted part is a
// subset of its rewrite, so the intersection may drop genuine answers. The
// caller marks the over side invalid whenever ctx tripped.
AnswerSet IntersectionOfSubPlans(const std::vector<ApproxSubPlan>& subs,
                                 const EngineSet& engines,
                                 const IndexedDatabase* idb, const Database& db,
                                 int arity, EvalStats* stats,
                                 const EvalContext* ctx) {
  std::vector<AnswerSet> parts;
  parts.reserve(subs.size());
  for (const ApproxSubPlan& sub : subs) {
    if (ctx != nullptr && !ctx->ok()) break;
    parts.push_back(EvaluateSubPlan(sub, engines, idb, db, stats, ctx));
  }
  AnswerSet result(arity);
  if (parts.empty() || parts.size() != subs.size()) return result;
  for (const Tuple& t : parts[0].tuples()) {
    bool in_all = true;
    for (size_t i = 1; i < parts.size() && in_all; ++i) {
      in_all = parts[i].Contains(t);
    }
    if (in_all) result.Insert(t);
  }
  return result;
}

// Plans and evaluates one request into `out`. Plans come from `cache`'s
// single-flight plan tier; `idb` null means the scan path. Approximate
// plans are answered by their rewrites (union for the under side,
// intersection for the over side).
void ExecuteRequest(const EvalRequest& request, const EvalOptions& options,
                    const EngineSet& engines, const IndexedDatabase* idb,
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
  // Forcing an engine is an exact-mode affair: it bypasses the planner and
  // with it the approximation rule, so approximate-mode requests always go
  // through planning.
  if (request.mode == AnswerMode::kExact && options.forced_engine.has_value() &&
      engines.For(*options.forced_engine).Supports(request.query)) {
    out->plan.kind = *options.forced_engine;
    out->plan.reason = "forced by EvalOptions";
  } else {
    bool hit = false;
    const std::shared_ptr<const PlanDecision> plan = cache.GetOrPlan(
        PlanCacheKey(request.query, options.planner, request.mode),
        [&] { return PlanQuery(request.query, options.planner, request.mode); },
        &hit);
    out->plan = *plan;  // deep copy outside every lock
    out->plan_source = hit ? PlanSource::kCached : PlanSource::kPlanned;
  }
  out->engine = out->plan.kind;
  out->plan_ms = MsSince(plan_start);

  const auto eval_start = std::chrono::steady_clock::now();
  const Database& db = *request.db;
  if (!out->plan.approximate) {
    // Exact evaluation serves every mode; in kBounds the sandwich collapses.
    const Engine& engine = engines.For(out->engine);
    out->answers = idb != nullptr
                       ? engine.Evaluate(request.query, *idb, &out->eval, ctx)
                       : engine.Evaluate(request.query, db, &out->eval, ctx);
    out->exact = true;
    if (request.mode == AnswerMode::kBounds) {
      AnswerBounds bounds;
      bounds.under = out->answers;
      bounds.over = out->answers;
      out->bounds = std::move(bounds);
    }
  } else {
    const int arity = static_cast<int>(request.query.free_variables().size());
    out->exact = false;
    switch (request.mode) {
      case AnswerMode::kUnderApproximate:
        out->answers = UnionOfSubPlans(out->plan.under, engines, idb, db,
                                       arity, &out->eval, ctx);
        break;
      case AnswerMode::kOverApproximate:
        out->answers = IntersectionOfSubPlans(out->plan.over, engines, idb,
                                              db, arity, &out->eval, ctx);
        break;
      case AnswerMode::kBounds: {
        AnswerBounds bounds;
        bounds.under = UnionOfSubPlans(out->plan.under, engines, idb, db,
                                       arity, &out->eval, ctx);
        // The over side is only worth computing while the request is still
        // live: an interrupted over side is invalid anyway (see below).
        bounds.over =
            ctx == nullptr || ctx->ok()
                ? IntersectionOfSubPlans(out->plan.over, engines, idb, db,
                                         arity, &out->eval, ctx)
                : AnswerSet(arity);
        out->answers = bounds.under;  // the sound (certain) reading
        out->bounds = std::move(bounds);
        break;
      }
      case AnswerMode::kExact:
        CQA_CHECK(false);  // the planner never marks exact plans approximate
        break;
    }
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
    if (!options_.engine.use_index) continue;
    auto& slot = views[request.db];
    if (slot != nullptr) continue;
    bool hit = false;
    slot = cache.AcquireIndexed(*request.db, &hit);
    ++(hit ? view_hits : view_misses);
  }

  const auto run_request = [&](size_t i) {
    const EvalRequest& request = requests[i];
    const IndexedDatabase* idb =
        options_.engine.use_index ? views.at(request.db).get() : nullptr;
    // One interruption token per request (deadline armed here, when the
    // request actually starts): service-wide defaults overridden field by
    // field by the request's own limits. No limits, no token, no overhead.
    const EvalLimits limits =
        EvalLimits::Merge(options_.limits, request.limits);
    std::optional<EvalContext> ectx;
    if (limits.any() || request.cancel != nullptr) {
      ectx.emplace(limits, request.cancel);
    }
    ExecuteRequest(request, options_, engines, idb, cache,
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
    bool stopped = false;
    // The shared_ptr keeps the view alive for the whole request even if the
    // cache evicts it meanwhile. A throw must not escape the worker thread
    // (std::terminate): it travels through the future.
    try {
      std::shared_ptr<const IndexedDatabase> view;
      if (options_.engine.use_index) {
        view = serving_cache_->AcquireIndexed(*pending.request.db);
      }
      ExecuteRequest(pending.request, options_, engines, view.get(),
                     *serving_cache_, pending.ctx.get(), &response);
      response.degraded = pending.degraded;
      stopped = response.status != ResponseStatus::kOk;
      pending.promise.set_value(std::move(response));
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }

    lock.lock();
    ++streamed_jobs_;
    if (stopped) ++stopped_jobs_;
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
  const EvalLimits limits = EvalLimits::Merge(options_.limits, request.limits);
  auto state = std::make_unique<StandingQueryState>(
      std::move(request.query), request.mode, *plan);
  // The subscription's view source is the serving cache: its identity
  // catch-up path (eval/cache.h) is what keeps per-tick index maintenance
  // O(delta) instead of a per-tick rebuild.
  return std::unique_ptr<Subscription>(new Subscription(
      std::move(state), request.db, limits, request.cancel, serving_cache_,
      options_.engine.use_index, WriteMutexFor(request.db)));
}

Subscription::Subscription(std::unique_ptr<StandingQueryState> state,
                           const Database* db, EvalLimits limits,
                           CancelFlag cancel, std::shared_ptr<EvalCache> cache,
                           bool use_index, std::shared_ptr<std::mutex> write_mu)
    : db_(db),
      limits_(limits),
      cancel_(std::move(cancel)),
      cache_(std::move(cache)),
      use_index_(use_index),
      write_mu_(std::move(write_mu)),
      state_(std::move(state)),
      consumed_(db->vocab()->num_relations(), 0) {}

Subscription::~Subscription() = default;

SubscriptionDelta Subscription::Poll() {
  // The write lock first — Publish calls on this database block for the
  // whole tick, so the fact vectors are stable while the tick reads them —
  // then the subscription's own state lock. Same order in caught_up();
  // the cache and view locks nest strictly inside: no cycles.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> state_lock(mu_);
  SubscriptionDelta out;

  // The view rides the cache's catch-up path: same database object, newer
  // version — appended in place, never rebuilt (EvalCacheStats::
  // index_delta_appends counts it).
  std::shared_ptr<const IndexedDatabase> view;
  if (use_index_) view = cache_->AcquireIndexed(*db_);

  const int num_relations = db_->vocab()->num_relations();
  std::vector<DeltaFact> delta;
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::vector<Tuple>& facts = db_->facts(r);
    for (size_t id = consumed_[r]; id < facts.size(); ++id) {
      delta.push_back(DeltaFact{r, facts[id]});
    }
  }

  // Per-tick interruption token (deadline armed now, covering this tick
  // only); an interrupted tick commits a prefix and the rest stays pending.
  std::optional<EvalContext> ectx;
  if (limits_.any() || cancel_ != nullptr) ectx.emplace(limits_, cancel_);
  StandingQueryState::TickResult tick = state_->Apply(
      *db_, view.get(), delta, &out.eval, ectx.has_value() ? &*ectx : nullptr);

  // Advance the per-relation cursors over the committed prefix, in the same
  // relation-major order the delta was collected.
  size_t applied = tick.facts_applied;
  for (RelationId r = 0; r < num_relations && applied > 0; ++r) {
    const size_t pending = db_->facts(r).size() - consumed_[r];
    const size_t take = std::min(applied, pending);
    consumed_[r] += take;
    applied -= take;
  }

  out.status = tick.status;
  out.facts_applied = tick.facts_applied;
  out.reinitialized = tick.reinitialized;
  out.new_answers = std::move(tick.new_answers);
  out.new_possible = std::move(tick.new_possible);
  bool all_consumed = state_->initialized();
  for (RelationId r = 0; r < num_relations && all_consumed; ++r) {
    all_consumed = consumed_[r] == db_->facts(r).size();
  }
  out.caught_up = all_consumed;
  return out;
}

AnswerSet Subscription::answers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->certain();
}

AnswerSet Subscription::possible() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->possible();
}

bool Subscription::over_valid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->over_valid();
}

bool Subscription::caught_up() const {
  // Write lock too: the fact-vector sizes are read here, and a concurrent
  // Publish writes them.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  bool all_consumed = state_->initialized();
  const int num_relations = db_->vocab()->num_relations();
  for (RelationId r = 0; r < num_relations && all_consumed; ++r) {
    all_consumed = consumed_[r] == db_->facts(r).size();
  }
  return all_consumed;
}

const ConjunctiveQuery& Subscription::query() const { return state_->query(); }
AnswerMode Subscription::mode() const { return state_->mode(); }
const PlanDecision& Subscription::plan() const { return state_->plan(); }

}  // namespace cqa
