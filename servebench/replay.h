// The traced run's in-process replay: one wire request re-run through the
// public function of each layer, in wire order, with a span around every
// call —
//   1. request JSON dump, frame, parse;      (net)
//   2. tenant admission, query parse;        (net, cq)
//   3. plan or synthesis, view acquire;      (eval, core, data)
//   4. engine calls, answer sort, pages;     (eval)
//   5. response dump, frame, parse.          (net)
// The replay owns its database copy, EvalCache and admission registry,
// warmed the way the server's are, so its layer times stand for the
// server's without touching the server.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>

#include "data/database.h"
#include "eval/cache.h"
#include "eval/service.h"
#include "inputs.h"
#include "net/admission.h"
#include "net/json.h"
#include "net/server.h"
#include "net/wire.h"
#include "trace.h"

namespace servebench {

/// State the replaying client threads of one run share.
class ReplayState {
 public:
  /// Copies `initial`; planner knobs, page size and admission come from
  /// `options`, the server's own.
  ReplayState(const cqa::Database& initial, const cqa::ServerOptions& options);

  ReplayState(const ReplayState&) = delete;
  ReplayState& operator=(const ReplayState&) = delete;

  /// Inserts one edge into the replay database through
  /// QueryService::Publish (span "eval.publish"), so the replay follows a
  /// growing database.
  void Publish(const Edge& edge, SpanLog* log);

 private:
  friend class Replayer;

  cqa::Database db_;
  /// Replays read the database shared, Publish writes it exclusive.
  std::shared_mutex db_mu_;
  std::shared_ptr<cqa::EvalCache> cache_;
  cqa::PlannerOptions planner_;
  size_t page_size_;
  cqa::TenantAdmission admission_;
  std::unique_ptr<cqa::Engine> engines_[3];  ///< indexed by EngineKind
  /// Evaluates whole requests ("eval.service") and publishes; shares cache_.
  cqa::QueryService service_;
};

/// One client thread's replayer: owns the socket pair frames travel over.
class Replayer {
 public:
  explicit Replayer(ReplayState* state);

  /// What the replay of one request saw.
  struct Outcome {
    long long responses = 0;
    long long response_bytes = 0;
    bool approximate = false;
    long long rewrites = 0;  ///< under + over rewrites of the plan
    cqa::EvalStats stats;    ///< summed over every engine call
  };

  /// Replays `query` as the server would serve it: the EVAL, then every
  /// FETCH until each cursor is drained. Then, as a separate root span
  /// ("eval.service"), the in-process QueryService::Evaluate of the same
  /// request. A null `log` replays untimed (warm-up).
  Outcome Replay(const WireQuery& query, SpanLog* log);

 private:
  /// Dump, frame over the socket pair, parse. Adds the payload size to
  /// `bytes` when non-null.
  std::optional<cqa::Json> RoundTrip(const cqa::Json& message, SpanLog* log,
                                     long long* bytes);
  void Admit(const cqa::Json& request, SpanLog* log);
  std::shared_ptr<const cqa::PlanDecision> Plan(const cqa::ConjunctiveQuery& q,
                                                cqa::AnswerMode mode,
                                                SpanLog* log);
  cqa::EvalResponse Execute(const cqa::ConjunctiveQuery& q,
                            cqa::AnswerMode mode,
                            const cqa::PlanDecision& plan,
                            const cqa::IndexedDatabase& view, SpanLog* log,
                            Outcome* out);
  /// One response page of `cursor` at `offset`: page, rows JSON.
  cqa::Json PageRows(const cqa::AnswerCursor& cursor, size_t offset,
                     SpanLog* log);
  /// The client's decoding of a response's rows (CqaClient::ParseRows).
  void ClientRows(const cqa::Json& response, const char* key, SpanLog* log);
  /// Every FETCH after the first page, until `cursor` is drained.
  void Drain(const cqa::AnswerCursor& cursor, SpanLog* log, Outcome* out);

  ReplayState* state_;
  cqa::UniqueFd send_;
  cqa::UniqueFd receive_;
  std::unique_ptr<cqa::FrameReader> reader_;
};

/// The wire-mode name's AnswerMode ("exact", "under", "over", "bounds").
cqa::AnswerMode ModeOf(const std::string& name);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
