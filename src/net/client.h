// CqaClient: the client side of the wire protocol (net/server.h has the
// verb reference). One client owns one connection and is used from one
// thread (requests are strictly request/response on the stream).
//
// Every typed call returns nullopt on failure with the typed error in
// last_error(): the server's error code ("rate_limited", "queue_full",
// "cursor_invalidated", ...) or "transport" when the connection itself
// failed. Call() is the raw escape hatch: it sends any envelope (stamping
// the configured api_key) and returns the decoded response object whether
// ok or not.
//
// Paging: Eval returns the first page plus a resumable cursor token when
// more rows remain; Fetch(cursor) pages forward (each page returns the
// *next* token — tokens are idempotent, so a re-sent token re-reads its
// page); FetchAll drains a cursor to completion. Rows are element-name
// tuples in the server's deterministic sorted order, so pages concatenate
// to exactly the in-process answer set.

#ifndef CQA_NET_CLIENT_H_
#define CQA_NET_CLIENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/json.h"
#include "net/wire.h"

namespace cqa {

class CqaClient {
 public:
  CqaClient() = default;

  /// Connects to a running cqa_server. False (with last_error() code
  /// "transport") on failure. Reconnecting an already-connected client
  /// drops the old connection.
  bool Connect(const std::string& host, int port);

  bool connected() const { return fd_.valid(); }

  /// API key stamped onto every request envelope ("" = anonymous tenant).
  void set_api_key(std::string api_key) { api_key_ = std::move(api_key); }

  struct EvalParams {
    std::string db;
    std::string query;          ///< rule text, e.g. "Q(x) :- E(x, y)"
    std::string mode = "exact"; ///< "exact" | "over" | "under" | "bounds"
    size_t limit = 0;           ///< page size; 0 = server default
    double deadline_ms = 0.0;   ///< 0 = no deadline (EvalLimits semantics)
    long long max_nodes = 0;
    long long max_answers = 0;
  };

  /// One page of answers; `cursor` is non-empty iff more rows remain.
  struct Page {
    std::vector<std::vector<std::string>> rows;
    std::string cursor;
    bool more = false;
  };

  struct EvalResult {
    Page answers;       ///< the mode's primary side (certain, in "bounds")
    Page over;          ///< the possible side ("bounds" only)
    std::string mode;   ///< mode actually served (degradation may rewrite)
    std::string status; ///< "ok" | "deadline_exceeded" | ...
    bool exact = false;
    bool degraded = false;
    bool over_valid = true;
    long long answer_count = 0;
    long long possible_count = 0;  ///< "bounds" only
    Json raw;           ///< the response object, less the page rows
  };

  std::optional<EvalResult> Eval(const EvalParams& params);
  std::optional<Page> Fetch(const std::string& cursor, size_t limit = 0);
  /// True if the server acknowledged the CLOSE (whether or not the cursor
  /// was still open).
  bool CloseCursor(const std::string& cursor);
  /// Inserts one fact ("E(a, b)"); returns AddFact's verdict (false =
  /// duplicate) — nullopt on refusal.
  std::optional<bool> Publish(const std::string& db, const std::string& fact);
  /// The STATS response object ("streaming" / "cache" / "server" /
  /// "tenants" sections).
  std::optional<Json> Stats();

  /// Starting from `first`, appends every remaining page to `out` until the
  /// cursor is exhausted. False (error in last_error()) if a page fails —
  /// e.g. "cursor_invalidated" after a concurrent PUBLISH.
  bool DrainCursor(const Page& first, size_t limit,
                   std::vector<std::vector<std::string>>* out);

  /// Raw round trip: stamps api_key, sends, decodes. nullopt only on
  /// transport failure; protocol refusals come back as {"ok":false,...}.
  std::optional<Json> Call(Json request);

  struct Error {
    std::string code;     ///< server ErrorCode, or "transport"
    std::string message;
  };
  const Error& last_error() const { return last_error_; }

 private:
  /// Runs Call and unwraps: nullopt + last_error() unless {"ok":true}.
  std::optional<Json> CallChecked(Json request);
  /// Moves the names out of a parsed rows array (no second copy per cell).
  static void ParseRows(Json rows, std::vector<std::vector<std::string>>* out);
  /// Takes the page's rows out of `response` and reads its cursor fields.
  static Page ParsePage(Json* response, const char* rows_key,
                        const char* cursor_key, const char* more_key);

  UniqueFd fd_;
  std::unique_ptr<FrameReader> reader_;
  std::string api_key_;
  Error last_error_;
};

}  // namespace cqa

#endif  // CQA_NET_CLIENT_H_
