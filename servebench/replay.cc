#include "replay.h"

#include <sys/socket.h>

#include <cstdlib>
#include <cstdio>
#include <utility>
#include <vector>

#include "cq/parse.h"

namespace servebench {
namespace {

// A token of the server's format (cqa1-<id>-<offset>-<check>), so FETCH
// envelopes have the wire's size.
constexpr const char* kToken =
    "cqa1-0000000000000001-0000000000000100-0123456789abcdef";

const char* EngineSpan(cqa::EngineKind kind) {
  switch (kind) {
    case cqa::EngineKind::kNaive:
      return "eval.engine.naive";
    case cqa::EngineKind::kYannakakis:
      return "eval.engine.yannakakis";
    case cqa::EngineKind::kTreewidth:
      return "eval.engine.treewidth";
  }
  return "eval.engine.other";
}

cqa::EvalOptions ServiceOptions(std::shared_ptr<cqa::EvalCache> cache) {
  cqa::EvalOptions options;
  options.num_threads = 1;
  options.cache = std::move(cache);
  return options;
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "servebench: replay failed: %s\n", what);
  std::exit(2);
}

}  // namespace

cqa::AnswerMode ModeOf(const std::string& name) {
  for (const cqa::AnswerMode m :
       {cqa::AnswerMode::kExact, cqa::AnswerMode::kOverApproximate,
        cqa::AnswerMode::kUnderApproximate, cqa::AnswerMode::kBounds}) {
    if (name == cqa::AnswerModeName(m)) return m;
  }
  Die("unknown mode");
}

ReplayState::ReplayState(const cqa::Database& initial,
                         const cqa::ServerOptions& options)
    : db_(initial),
      cache_(std::make_shared<cqa::EvalCache>()),
      planner_(options.eval.planner),
      page_size_(options.default_limit),
      admission_(options.admission),
      engines_{cqa::MakeEngine(cqa::EngineKind::kNaive),
               cqa::MakeEngine(cqa::EngineKind::kYannakakis),
               cqa::MakeEngine(cqa::EngineKind::kTreewidth)},
      service_(ServiceOptions(cache_)) {}

void ReplayState::Publish(const Edge& edge, SpanLog* log) {
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  SpanLog::Scope span(log, "eval.publish");
  service_.Publish(&db_, 0, {edge.first, edge.second});
}

Replayer::Replayer(ReplayState* state) : state_(state) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) Die("socketpair");
  send_ = cqa::UniqueFd(fds[0]);
  receive_ = cqa::UniqueFd(fds[1]);
  // One thread writes a whole frame before reading it back, so the buffer
  // must hold the largest payload (two pages of a bounds response).
  const int buffer = 1 << 22;
  ::setsockopt(send_.get(), SOL_SOCKET, SO_SNDBUF, &buffer, sizeof(buffer));
  ::setsockopt(receive_.get(), SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
  reader_ = std::make_unique<cqa::FrameReader>(receive_.get(),
                                               size_t{64} << 20);
}

std::optional<cqa::Json> Replayer::RoundTrip(const cqa::Json& message,
                                             SpanLog* log, long long* bytes) {
  std::string payload;
  {
    SpanLog::Scope span(log, "net.json_dump");
    payload = message.Dump();
  }
  if (bytes != nullptr) *bytes += static_cast<long long>(payload.size());
  std::string received;
  std::string error;
  {
    SpanLog::Scope span(log, "net.frame");
    if (!cqa::WriteFrame(send_.get(), payload, &error) ||
        reader_->Next(&received, &error) != cqa::FrameReader::Result::kFrame) {
      Die(error.c_str());
    }
  }
  SpanLog::Scope span(log, "net.json_parse");
  return cqa::Json::Parse(received);
}

void Replayer::Admit(const cqa::Json& request, SpanLog* log) {
  SpanLog::Scope span(log, "net.admission");
  const cqa::TenantAdmission::Result admit =
      state_->admission_.Admit(request.GetString("api_key"));
  if (admit.code != cqa::AdmitCode::kOk) Die("admission refused");
  state_->admission_.Release(admit.tenant);
}

std::shared_ptr<const cqa::PlanDecision> Replayer::Plan(
    const cqa::ConjunctiveQuery& q, cqa::AnswerMode mode, SpanLog* log) {
  ReplayState& st = *state_;
  SpanLog::Scope span(log, "eval.plan");
  const std::vector<int> key = cqa::PlanCacheKey(q, st.planner_, mode);
  if (std::shared_ptr<const cqa::PlanDecision> cached =
          st.cache_->LookupPlan(key)) {
    return cached;
  }
  const auto synthesize = [&](cqa::AnswerMode side, const char* name) {
    SpanLog::Scope synth(log, name);
    return cqa::PlanQuery(q, st.planner_, side);
  };
  cqa::PlanDecision plan;
  switch (mode) {
    case cqa::AnswerMode::kExact:
      plan = cqa::PlanQuery(q, st.planner_, mode);
      break;
    case cqa::AnswerMode::kUnderApproximate:
      plan = synthesize(mode, "core.under_synth");
      break;
    case cqa::AnswerMode::kOverApproximate:
      plan = synthesize(mode, "core.over_synth");
      break;
    case cqa::AnswerMode::kBounds: {
      // A bounds plan synthesizes both sides independently (the under and
      // over rewrites of the one-sided plans), so timing the sides apart
      // splits its synthesis cost without changing the plan.
      cqa::PlanDecision under =
          synthesize(cqa::AnswerMode::kUnderApproximate, "core.under_synth");
      cqa::PlanDecision over =
          synthesize(cqa::AnswerMode::kOverApproximate, "core.over_synth");
      if (under.approximate && over.approximate) {
        plan = std::move(under);
        plan.mode = mode;
        plan.over = std::move(over.over);
      } else {
        plan = cqa::PlanQuery(q, st.planner_, mode);
      }
      break;
    }
  }
  auto shared = std::make_shared<const cqa::PlanDecision>(std::move(plan));
  st.cache_->StorePlan(key, shared);
  return shared;
}

cqa::EvalResponse Replayer::Execute(const cqa::ConjunctiveQuery& q,
                                    cqa::AnswerMode mode,
                                    const cqa::PlanDecision& plan,
                                    const cqa::IndexedDatabase& view,
                                    SpanLog* log, Outcome* out) {
  const auto run = [&](const cqa::ConjunctiveQuery& query,
                       cqa::EngineKind kind) {
    SpanLog::Scope span(log, EngineSpan(kind));
    return state_->engines_[static_cast<int>(kind)]->Evaluate(query, view,
                                                              &out->stats);
  };
  cqa::EvalResponse response;
  response.mode = mode;
  if (!plan.approximate) {
    response.answers = run(q, plan.kind);
    if (mode == cqa::AnswerMode::kBounds) {
      cqa::AnswerBounds bounds;
      bounds.under = response.answers;
      bounds.over = response.answers;
      response.bounds = std::move(bounds);
    }
    return response;
  }
  out->approximate = true;
  out->rewrites = static_cast<long long>(plan.under.size() + plan.over.size());
  const int arity = static_cast<int>(q.free_variables().size());
  // Union of the under rewrites, intersection of the over rewrites, as the
  // service combines them; the span's self time is the set work.
  SpanLog::Scope span(log, "eval.combine");
  cqa::AnswerSet under(arity);
  cqa::AnswerSet over(arity);
  if (mode != cqa::AnswerMode::kOverApproximate) {
    for (const cqa::ApproxSubPlan& sub : plan.under) {
      const cqa::AnswerSet part = run(sub.query, sub.kind);
      for (const cqa::Tuple& t : part.tuples()) under.Insert(t);
    }
  }
  if (mode != cqa::AnswerMode::kUnderApproximate) {
    std::vector<cqa::AnswerSet> parts;
    for (const cqa::ApproxSubPlan& sub : plan.over) {
      parts.push_back(run(sub.query, sub.kind));
    }
    if (!parts.empty()) {
      for (const cqa::Tuple& t : parts[0].tuples()) {
        bool in_all = true;
        for (size_t i = 1; i < parts.size() && in_all; ++i) {
          in_all = parts[i].Contains(t);
        }
        if (in_all) over.Insert(t);
      }
    }
  }
  switch (mode) {
    case cqa::AnswerMode::kUnderApproximate:
      response.answers = std::move(under);
      break;
    case cqa::AnswerMode::kOverApproximate:
      response.answers = std::move(over);
      break;
    default: {
      cqa::AnswerBounds bounds;
      response.answers = under;
      bounds.under = std::move(under);
      bounds.over = std::move(over);
      response.bounds = std::move(bounds);
      break;
    }
  }
  return response;
}

cqa::Json Replayer::PageRows(const cqa::AnswerCursor& cursor, size_t offset,
                             SpanLog* log) {
  std::span<const cqa::Tuple> page;
  {
    SpanLog::Scope span(log, "eval.page");
    page = cursor.Page(offset, state_->page_size_);
  }
  SpanLog::Scope span(log, "net.rows_json");
  cqa::Json rows = cqa::Json::Array();
  for (const cqa::Tuple& t : page) {
    cqa::Json row = cqa::Json::Array();
    for (const cqa::Element e : t) {
      row.Append(cqa::Json::Str(state_->db_.ElementName(e)));
    }
    rows.Append(std::move(row));
  }
  return rows;
}

void Replayer::ClientRows(const cqa::Json& response, const char* key,
                          SpanLog* log) {
  SpanLog::Scope span(log, "net.client_rows");
  std::vector<std::vector<std::string>> out;
  const cqa::Json* rows = response.Find(key);
  if (rows == nullptr || !rows->is_array()) return;
  for (const cqa::Json& row : rows->items()) {
    std::vector<std::string> tuple;
    for (const cqa::Json& cell : row.items()) tuple.push_back(cell.AsString());
    out.push_back(std::move(tuple));
  }
}

void Replayer::Drain(const cqa::AnswerCursor& cursor, SpanLog* log,
                     Outcome* out) {
  for (size_t offset = state_->page_size_; offset < cursor.size();
       offset += state_->page_size_) {
    cqa::Json fetch = cqa::Json::Object();
    fetch.Set("verb", cqa::Json::Str("FETCH"));
    fetch.Set("cursor", cqa::Json::Str(kToken));
    const std::optional<cqa::Json> request = RoundTrip(fetch, log, nullptr);
    if (!request.has_value()) Die("bad FETCH envelope");
    Admit(*request, log);
    const bool more = offset + state_->page_size_ < cursor.size();
    cqa::Json response = cqa::Json::Object();
    response.Set("ok", cqa::Json::Bool(true));
    response.Set("answers", PageRows(cursor, offset, log));
    response.Set("more", cqa::Json::Bool(more));
    response.Set("done", cqa::Json::Bool(!more));
    if (more) response.Set("cursor", cqa::Json::Str(kToken));
    const std::optional<cqa::Json> received =
        RoundTrip(response, log, &out->response_bytes);
    if (!received.has_value()) Die("bad FETCH response");
    ++out->responses;
    ClientRows(*received, "answers", log);
  }
}

Replayer::Outcome Replayer::Replay(const WireQuery& query, SpanLog* log) {
  ReplayState& st = *state_;
  std::shared_lock<std::shared_mutex> lock(st.db_mu_);
  const cqa::AnswerMode mode = ModeOf(query.mode);
  Outcome out;
  std::optional<cqa::ConjunctiveQuery> parsed;
  {
    SpanLog::Scope root(log, "replay");
    // 1. The EVAL envelope, as CqaClient::Eval builds it.
    cqa::Json eval = cqa::Json::Object();
    eval.Set("verb", cqa::Json::Str("EVAL"));
    eval.Set("db", cqa::Json::Str("g"));
    eval.Set("query", cqa::Json::Str(query.text));
    eval.Set("mode", cqa::Json::Str(query.mode));
    const std::optional<cqa::Json> request = RoundTrip(eval, log, nullptr);
    if (!request.has_value()) Die("bad EVAL envelope");
    // 2. Admission, then the query parse.
    Admit(*request, log);
    {
      SpanLog::Scope span(log, "cq.parse");
      parsed = cqa::ParseQuery(st.db_.vocab(), request->GetString("query"));
    }
    if (!parsed.has_value()) Die("query does not parse");
    // 3. Plan (or synthesis on a first-sight shape), then the view.
    const std::shared_ptr<const cqa::PlanDecision> plan =
        Plan(*parsed, mode, log);
    std::shared_ptr<const cqa::IndexedDatabase> view;
    {
      SpanLog::Scope span(log, "data.view_acquire");
      view = st.cache_->AcquireIndexed(st.db_);
    }
    // 4. Engines, then the answer sort into cursors.
    cqa::EvalResponse response =
        Execute(*parsed, mode, *plan, *view, log, &out);
    const bool exact = !plan->approximate;
    const char* engine = cqa::EngineKindName(plan->kind);
    cqa::CursorResponse cursors;
    {
      SpanLog::Scope span(log, "eval.make_cursors");
      cursors = cqa::QueryService::MakeCursors(std::move(response), st.db_);
    }
    // 5. The EVAL response with the first page of each side, as
    // CqaServer::HandleEval builds it, then every FETCH.
    const size_t limit = st.page_size_;
    cqa::Json reply = cqa::Json::Object();
    reply.Set("ok", cqa::Json::Bool(true));
    reply.Set("mode", cqa::Json::Str(query.mode));
    reply.Set("status", cqa::Json::Str("ok"));
    reply.Set("exact", cqa::Json::Bool(exact));
    reply.Set("degraded", cqa::Json::Bool(false));
    reply.Set("sharded", cqa::Json::Bool(false));
    reply.Set("engine", cqa::Json::Str(engine));
    reply.Set("arity", cqa::Json::Number(cursors.answers->arity()));
    reply.Set("answer_count", cqa::Json::Number(
                                  static_cast<double>(cursors.answers->size())));
    reply.Set("answers", PageRows(*cursors.answers, 0, log));
    reply.Set("more", cqa::Json::Bool(limit < cursors.answers->size()));
    if (limit < cursors.answers->size()) {
      reply.Set("cursor", cqa::Json::Str(kToken));
    }
    if (cursors.over != nullptr) {
      reply.Set("certain_count",
                cqa::Json::Number(static_cast<double>(cursors.answers->size())));
      reply.Set("possible_count",
                cqa::Json::Number(static_cast<double>(cursors.over->size())));
      reply.Set("over_valid", cqa::Json::Bool(true));
      reply.Set("over", PageRows(*cursors.over, 0, log));
      reply.Set("over_more", cqa::Json::Bool(limit < cursors.over->size()));
      if (limit < cursors.over->size()) {
        reply.Set("over_cursor", cqa::Json::Str(kToken));
      }
    }
    reply.Set("plan_ms", cqa::Json::Number(0.25));
    reply.Set("eval_ms", cqa::Json::Number(1.25));
    const std::optional<cqa::Json> received =
        RoundTrip(reply, log, &out.response_bytes);
    if (!received.has_value()) Die("bad EVAL response");
    ++out.responses;
    ClientRows(*received, "answers", log);
    if (cursors.over != nullptr) ClientRows(*received, "over", log);
    Drain(*cursors.answers, log, &out);
    if (cursors.over != nullptr) Drain(*cursors.over, log, &out);
  }
  {
    SpanLog::Scope span(log, "eval.service");
    st.service_.Evaluate(cqa::EvalRequest{*parsed, &st.db_, mode});
  }
  return out;
}

}  // namespace servebench
