// cqa_server: the network front end over QueryService. A CqaServer owns a
// QueryService, hosts a set of named databases, and serves the
// length-prefixed JSON wire protocol (net/wire.h) on a TCP port with a
// thread per connection. Five verbs:
//
//   EVAL    {"verb":"EVAL","db":<name>,"query":<rule text>,"mode":
//            "exact"|"over"|"under"|"bounds","limit":N,"deadline_ms":D,
//            "max_nodes":N,"max_answers":N,"api_key":K}
//           Parses the query over the database's vocabulary (cq/parse.h),
//           bridges it onto QueryService::Submit — so deadlines arm at
//           submission, queue wait counts, and the PR-6 shedding
//           (degrade-to-kBounds, queue-full rejection) applies — and
//           replies with the first `limit`-sized page of answers plus a
//           resumable cursor token when more remain. kBounds responses
//           carry both sides (certain page + possible page, each with its
//           own cursor). `limit`, `max_nodes` and `max_answers` must be
//           non-negative integers that fit in 64 bits (else bad_request;
//           0 = default / no limit); a `deadline_ms` too far out for the
//           clock to represent acts as no deadline.
//   FETCH   {"verb":"FETCH","cursor":<token>,"limit":N}
//           The next page of an open cursor. Tokens are opaque, offset-
//           carrying and idempotent: re-sending a token re-reads the same
//           page, so a client that lost a response can resume.
//   CLOSE   {"verb":"CLOSE","cursor":<token>}   Drops a cursor early.
//   PUBLISH {"verb":"PUBLISH","db":<name>,"fact":"E(a, b)"}
//           Inserts one fact through QueryService::Publish (serialized
//           against subscriptions), under the database's exclusive lock.
//   STATS   {"verb":"STATS"}
//           Streaming/shedding counters (BatchStats), EvalCache counters,
//           per-tenant admission counters, and the server's own counters.
//
// Responses are {"ok":true,...} or {"ok":false,"error":{"code":...,
// "message":...}}; the error codes are the typed surface of every refusal
// layer (see ErrorCode below).
//
// Answer paging and the snapshot rule
// -----------------------------------
// Every response's answers come from an AnswerCursor snapshot
// (eval/answer_set.h) taken by QueryService::MakeCursors when the Submit
// future resolves: rows are in a deterministic sorted order, and paging
// with limit=1 concatenates to exactly the answers an in-process
// Evaluate would return. Cursors share the subscription snapshot rule
// (eval/service.h): a cursor is pinned to the database version it
// evaluated at, and this server *bounds staleness* — a FETCH on a cursor
// whose database has since been mutated (PUBLISH) is refused with
// "cursor_invalidated" rather than serving pre-mutation rows; a torn page
// mixing versions can never be produced. Exhausted and CLOSEd cursors are
// dropped; at most ServerOptions::max_cursors are retained (LRU, evicted
// cursors answer "unknown_cursor").
//
// Admission ordering: api_key -> tenant (token bucket + concurrent cap,
// net/admission.h) runs before the request touches the QueryService, whose
// own max_queue/degrade_queue shedding still applies behind it. STATS only
// authenticates (monitoring must work while a tenant is throttled).
//
// Coherence: EVAL/FETCH hold the database's shared lock, PUBLISH its
// exclusive lock, so a fact never lands mid-evaluation (the EvalRequest
// no-mutation contract) and a version read never tears.
//
// Lifecycle: AddDatabase -> Start -> (serve) -> Shutdown. Shutdown is the
// graceful drain (SIGTERM handling in the cqa_server binary calls it):
// stop accepting, unblock idle connections (in-flight requests finish and
// their responses are written), join every connection thread, then
// Drain() + Shutdown() the QueryService. Idempotent; the destructor calls
// it too.

#ifndef CQA_NET_SERVER_H_
#define CQA_NET_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/database.h"
#include "eval/service.h"
#include "net/admission.h"
#include "net/json.h"
#include "net/wire.h"

namespace cqa {

struct ServerOptions {
  /// Interface to bind ("127.0.0.1" = loopback only).
  std::string host = "127.0.0.1";
  /// TCP port; 0 = ephemeral (read the bound port from port()).
  int port = 0;
  /// Forwarded to the owned QueryService (threads, cache, limits,
  /// max_queue/degrade_queue shedding — the whole serving stack).
  EvalOptions eval;
  /// Tenant registry (net/admission.h). Default: anonymous, unlimited.
  AdmissionOptions admission;
  /// Page size when a request omits "limit" (or sends 0).
  size_t default_limit = 256;
  /// Requested page sizes are clamped to this.
  size_t max_limit = 4096;
  /// Open cursors retained (LRU beyond this; evicted ones answer
  /// "unknown_cursor", which a client treats like an expired pagination
  /// token: re-issue the query).
  size_t max_cursors = 1024;
  /// Frames larger than this are a protocol error (connection closed).
  size_t max_frame_bytes = 16 * 1024 * 1024;
};

/// The typed wire error codes ("error":{"code":...}).
struct ErrorCode {
  static constexpr const char* kBadRequest = "bad_request";
  static constexpr const char* kParseError = "parse_error";
  static constexpr const char* kUnknownDatabase = "unknown_database";
  static constexpr const char* kUnauthenticated = "unauthenticated";
  static constexpr const char* kRateLimited = "rate_limited";
  static constexpr const char* kTenantBusy = "tenant_busy";
  static constexpr const char* kQueueFull = "queue_full";
  static constexpr const char* kShuttingDown = "shutting_down";
  static constexpr const char* kBadCursorToken = "bad_cursor_token";
  static constexpr const char* kUnknownCursor = "unknown_cursor";
  static constexpr const char* kCursorInvalidated = "cursor_invalidated";
};

/// Cumulative server counters (snapshot via CqaServer::stats).
struct ServerStats {
  long long connections_accepted = 0;
  long long requests = 0;  ///< frames dispatched (all verbs)
  long long eval_requests = 0;
  long long fetch_requests = 0;
  long long publish_requests = 0;
  long long errors = 0;  ///< error responses sent
  long long cursors_opened = 0;
  long long cursors_invalidated = 0;  ///< refused after a mutation
  long long cursors_evicted = 0;      ///< dropped by the max_cursors LRU
  long long open_cursors = 0;         ///< currently registered
};

class CqaServer {
 public:
  explicit CqaServer(ServerOptions options);
  ~CqaServer();  ///< calls Shutdown()

  CqaServer(const CqaServer&) = delete;
  CqaServer& operator=(const CqaServer&) = delete;

  /// Registers `db` under `name` for EVAL/PUBLISH requests. The database is
  /// borrowed and must outlive the server; after Start it is accessed only
  /// under the server's per-database lock, so the caller must not touch it
  /// concurrently. Call before Start.
  void AddDatabase(std::string name, Database* db);

  /// Binds, listens, and starts the accept thread. False (with `error`) if
  /// the port cannot be bound.
  bool Start(std::string* error);

  /// The bound port (after Start) — the ephemeral port when options.port=0.
  int port() const { return port_; }

  /// Graceful drain; see the file comment. Idempotent, thread- and
  /// signal-context-unsafe (call from a normal thread, as the binary's
  /// signal loop does).
  void Shutdown();

  ServerStats stats() const;
  QueryService& service() { return *service_; }
  TenantAdmission& admission() { return admission_; }

 private:
  struct DbEntry {
    Database* db = nullptr;
    /// EVAL/FETCH shared, PUBLISH exclusive (see the coherence note).
    std::shared_mutex rw;
    /// name -> element for PUBLISH fact parsing; grown under the
    /// exclusive lock when a fact mentions a fresh element.
    std::unordered_map<std::string, Element> elements;
  };

  struct CursorEntry {
    std::shared_ptr<const AnswerCursor> cursor;
    DbEntry* db_entry = nullptr;
    std::list<uint64_t>::iterator lru_pos;
  };

  struct Conn {
    UniqueFd fd;
    std::thread thread;
  };

  void AcceptLoop();
  void HandleConnection(uint64_t conn_id);
  /// Joins and erases connections that announced completion.
  void ReapFinished();

  Json Dispatch(const Json& request);
  Json HandleEval(const Json& request);
  Json HandleFetch(const Json& request);
  Json HandleClose(const Json& request);
  Json HandlePublish(const Json& request);
  Json HandleStats(const Json& request);

  /// The registered entry for `name`, or nullptr (entries are stable).
  DbEntry* FindDb(const std::string& name);
  /// Applies default_limit / max_limit; false (with an error response in
  /// `error_out`) when "limit" is not a non-negative integer in range.
  bool ParseLimit(const Json& request, size_t* limit, Json* error_out) const;

  /// Registers a cursor (evicting LRU entries past max_cursors) and
  /// returns the token for `offset`.
  std::string RegisterCursor(std::shared_ptr<const AnswerCursor> cursor,
                             DbEntry* db_entry, size_t offset);
  std::string EncodeToken(uint64_t id, size_t offset) const;
  /// False on a malformed or foreign (checksum-failing) token.
  bool DecodeToken(const std::string& token, uint64_t* id,
                   size_t* offset) const;

  ServerOptions options_;
  std::unique_ptr<QueryService> service_;
  TenantAdmission admission_;

  UniqueFd listen_fd_;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;  ///< serializes Shutdown (dtor + signal loop)
  bool shut_down_ = false;  ///< guarded by shutdown_mu_

  std::mutex conn_mu_;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Conn> conns_;
  std::vector<uint64_t> finished_conns_;

  std::mutex db_mu_;  ///< guards the map shape only (entries are stable)
  std::unordered_map<std::string, std::unique_ptr<DbEntry>> dbs_;

  mutable std::mutex cursor_mu_;
  uint64_t next_cursor_id_ = 1;
  uint64_t token_secret_ = 0;  ///< seeded per server; makes tokens opaque
  std::unordered_map<uint64_t, CursorEntry> cursors_;
  std::list<uint64_t> cursor_lru_;  ///< front = most recently used

  // Counters (atomic: bumped from every connection thread).
  mutable std::atomic<long long> connections_accepted_{0};
  mutable std::atomic<long long> requests_{0};
  mutable std::atomic<long long> eval_requests_{0};
  mutable std::atomic<long long> fetch_requests_{0};
  mutable std::atomic<long long> publish_requests_{0};
  mutable std::atomic<long long> errors_{0};
  mutable std::atomic<long long> cursors_opened_{0};
  mutable std::atomic<long long> cursors_invalidated_{0};
  mutable std::atomic<long long> cursors_evicted_{0};
};

}  // namespace cqa

#endif  // CQA_NET_SERVER_H_
