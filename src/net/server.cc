#include "net/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <span>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "base/strings.h"
#include "cq/parse.h"
#include "eval/cache.h"
#include "net/json.h"

namespace cqa {
namespace {

Json MakeError(const char* code, std::string message,
               double retry_after_ms = 0.0) {
  Json err = Json::Object();
  err.Set("code", Json::Str(code));
  err.Set("message", Json::Str(std::move(message)));
  Json out = Json::Object();
  out.Set("ok", Json::Bool(false));
  out.Set("error", std::move(err));
  if (retry_after_ms > 0.0) {
    out.Set("retry_after_ms", Json::Number(retry_after_ms));
  }
  return out;
}

// A page's rows as the envelope carries them: an array of rows of element
// names, encoded straight from the cursor into one JSON text with Json's
// string escaping. The bytes are those Dump writes for the same rows built
// as Json::Str names, with no Json node per cell.
Json PageRows(std::span<const Tuple> rows, const Database& db) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('[');
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) out.push_back(',');
      Json::AppendQuoted(db.ElementName(rows[i][j]), &out);
    }
    out.push_back(']');
  }
  out.push_back(']');
  return Json::Raw(std::move(out));
}

bool ParseMode(const std::string& name, AnswerMode* out) {
  for (const AnswerMode m :
       {AnswerMode::kExact, AnswerMode::kOverApproximate,
        AnswerMode::kUnderApproximate, AnswerMode::kBounds}) {
    if (name == AnswerModeName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

// Reads the optional non-negative integer field `key` (absent = 0). A
// negative, fractional or non-finite value, or one past what long long
// holds, is a typed bad_request, so no double-to-integer cast overflows.
bool ParseCount(const Json& request, const char* key, long long* out,
                Json* error_out) {
  const double raw = request.GetNumber(key, 0.0);
  // 2^63 is exact as a double, and every double in [0, 2^63) casts in range.
  if (raw >= 0.0 && raw < 9223372036854775808.0 &&
      raw == static_cast<double>(static_cast<long long>(raw))) {
    *out = static_cast<long long>(raw);
    return true;
  }
  *error_out = MakeError(ErrorCode::kBadRequest,
                         std::string(key) + " must be a non-negative int");
  return false;
}

/// Releases the admission slot when a request handler returns.
class AdmissionGuard {
 public:
  AdmissionGuard() = default;
  AdmissionGuard(TenantAdmission* admission, std::string tenant)
      : admission_(admission), tenant_(std::move(tenant)) {}
  ~AdmissionGuard() {
    if (admission_ != nullptr) admission_->Release(tenant_);
  }
  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

 private:
  TenantAdmission* admission_ = nullptr;
  std::string tenant_;
};

}  // namespace

CqaServer::CqaServer(ServerOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<QueryService>(options_.eval)),
      admission_(options_.admission) {
  std::random_device rd;
  token_secret_ = (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

CqaServer::~CqaServer() { Shutdown(); }

void CqaServer::AddDatabase(std::string name, Database* db) {
  CQA_CHECK(db != nullptr);
  CQA_CHECK(!accept_thread_.joinable());  // before Start
  auto entry = std::make_unique<DbEntry>();
  entry->db = db;
  for (Element e = 0; e < db->num_elements(); ++e) {
    entry->elements.emplace(db->ElementName(e), e);
  }
  std::lock_guard<std::mutex> lock(db_mu_);
  const bool inserted = dbs_.emplace(std::move(name), std::move(entry)).second;
  CQA_CHECK(inserted);  // duplicate database name
}

bool CqaServer::Start(std::string* error) {
  CQA_CHECK(!accept_thread_.joinable());
  listen_fd_ =
      ListenTcp(options_.host, options_.port, /*backlog=*/64, &port_, error);
  if (!listen_fd_.valid()) return false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void CqaServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener gone (shutdown) or unrecoverable
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn_mu_);
    const uint64_t id = next_conn_id_++;
    Conn conn;
    conn.fd = UniqueFd(fd);
    conn.thread = std::thread([this, id] { HandleConnection(id); });
    conns_.emplace(id, std::move(conn));
    ReapFinished();
  }
}

void CqaServer::ReapFinished() {
  // Caller holds conn_mu_. Move the finished Conns out, join outside any
  // lock contention concerns (the threads have already announced exit).
  std::vector<Conn> done;
  for (const uint64_t id : finished_conns_) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // Shutdown already took it
    done.push_back(std::move(it->second));
    conns_.erase(it);
  }
  finished_conns_.clear();
  for (Conn& conn : done) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

void CqaServer::HandleConnection(uint64_t conn_id) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = conns_.find(conn_id);
    if (it != conns_.end()) fd = it->second.fd.get();
  }
  if (fd >= 0) {
    FrameReader reader(fd, options_.max_frame_bytes);
    std::string payload;
    for (;;) {
      std::string frame_error;
      const FrameReader::Result r = reader.Next(&payload, &frame_error);
      if (r == FrameReader::Result::kEof) break;
      if (r == FrameReader::Result::kError) {
        // The stream is desynchronized; best-effort error, then close.
        std::string ignored;
        WriteFrame(fd,
                   MakeError(ErrorCode::kBadRequest,
                             "framing error: " + frame_error)
                       .Dump(),
                   &ignored);
        errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      std::string parse_error;
      const std::optional<Json> request = Json::Parse(payload, &parse_error);
      Json response =
          request.has_value() && request->is_object()
              ? Dispatch(*request)
              : MakeError(ErrorCode::kBadRequest,
                          request.has_value() ? "request must be an object"
                                              : "bad JSON: " + parse_error);
      if (!response.GetBool("ok")) {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      std::string write_error;
      if (!WriteFrame(fd, response.Dump(), &write_error)) break;
    }
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  finished_conns_.push_back(conn_id);
}

Json CqaServer::Dispatch(const Json& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string verb = request.GetString("verb");
  const std::string api_key = request.GetString("api_key");

  if (verb == "STATS") {
    // Monitoring authenticates but is never throttled: a tenant must be
    // able to observe its own rate limiting.
    if (!admission_.Authenticate(api_key).has_value()) {
      return MakeError(ErrorCode::kUnauthenticated, "unknown api_key");
    }
    return HandleStats(request);
  }

  const TenantAdmission::Result admit = admission_.Admit(api_key);
  switch (admit.code) {
    case AdmitCode::kUnknownKey:
      return MakeError(ErrorCode::kUnauthenticated, "unknown api_key");
    case AdmitCode::kRateLimited:
      return MakeError(ErrorCode::kRateLimited,
                       "tenant " + admit.tenant + " over its request rate",
                       admit.retry_after_ms);
    case AdmitCode::kTenantBusy:
      return MakeError(ErrorCode::kTenantBusy,
                       "tenant " + admit.tenant +
                           " at its concurrent-request cap");
    case AdmitCode::kOk:
      break;
  }
  const AdmissionGuard guard(&admission_, admit.tenant);

  if (verb == "EVAL") return HandleEval(request);
  if (verb == "FETCH") return HandleFetch(request);
  if (verb == "CLOSE") return HandleClose(request);
  if (verb == "PUBLISH") return HandlePublish(request);
  return MakeError(ErrorCode::kBadRequest, "unknown verb: " + verb);
}

CqaServer::DbEntry* CqaServer::FindDb(const std::string& name) {
  std::lock_guard<std::mutex> lock(db_mu_);
  const auto it = dbs_.find(name);
  return it == dbs_.end() ? nullptr : it->second.get();
}

bool CqaServer::ParseLimit(const Json& request, size_t* limit,
                           Json* error_out) const {
  long long raw = 0;
  if (!ParseCount(request, "limit", &raw, error_out)) return false;
  *limit = raw == 0 ? options_.default_limit
                    : std::min(static_cast<size_t>(raw), options_.max_limit);
  return true;
}

Json CqaServer::HandleEval(const Json& request) {
  eval_requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string db_name = request.GetString("db");
  DbEntry* entry = FindDb(db_name);
  if (entry == nullptr) {
    return MakeError(ErrorCode::kUnknownDatabase,
                     "unknown database: " + db_name);
  }
  size_t limit = 0;
  Json error;
  if (!ParseLimit(request, &limit, &error)) return error;
  AnswerMode mode = AnswerMode::kExact;
  if (!ParseMode(request.GetString("mode", "exact"), &mode)) {
    return MakeError(ErrorCode::kBadRequest,
                     "mode must be exact|over|under|bounds");
  }
  EvalLimits limits;
  limits.deadline_ms = request.GetNumber("deadline_ms", 0.0);
  if (!ParseCount(request, "max_nodes", &limits.max_nodes, &error) ||
      !ParseCount(request, "max_answers", &limits.max_answers, &error)) {
    return error;
  }

  // Shared lock: evaluation must never overlap a PUBLISH on this database
  // (the EvalRequest no-mutation contract).
  std::shared_lock<std::shared_mutex> db_lock(entry->rw);

  std::string parse_error;
  const std::optional<ConjunctiveQuery> query = ParseQuery(
      entry->db->vocab(), request.GetString("query"), &parse_error);
  if (!query.has_value()) {
    return MakeError(ErrorCode::kParseError, "bad query: " + parse_error);
  }

  EvalRequest eval{*query, entry->db, mode, limits, /*cancel=*/nullptr};

  // The bridge onto the streaming path: deadlines arm at Submit (queue
  // wait counts) and the PR-6 shedding applies — degraded responses flow
  // through, rejections surface as typed errors behind the per-tenant
  // admission that already passed.
  EvalResponse response;
  try {
    response = service_->Submit(std::move(eval)).get();
  } catch (const SubmitRejectedError& e) {
    return MakeError(e.reason() == SubmitRejectedError::Reason::kQueueFull
                         ? ErrorCode::kQueueFull
                         : ErrorCode::kShuttingDown,
                     e.what());
  }

  CursorResponse cur =
      QueryService::MakeCursors(std::move(response), *entry->db);

  Json out = Json::Object();
  out.Set("ok", Json::Bool(true));
  out.Set("mode", Json::Str(AnswerModeName(cur.meta.mode)));
  out.Set("status", Json::Str(ResponseStatusName(cur.meta.status)));
  out.Set("exact", Json::Bool(cur.meta.exact));
  out.Set("degraded", Json::Bool(cur.meta.degraded));
  out.Set("engine", Json::Str(EngineKindName(cur.meta.engine)));
  out.Set("arity", Json::Number(static_cast<double>(cur.answers->arity())));
  out.Set("answer_count",
          Json::Number(static_cast<double>(cur.answers->size())));
  out.Set("answers", PageRows(cur.answers->Page(0, limit), *entry->db));
  const bool more = limit < cur.answers->size();
  out.Set("more", Json::Bool(more));
  if (more) {
    out.Set("cursor",
            Json::Str(RegisterCursor(cur.answers, entry, limit)));
  }
  if (cur.meta.bounds.has_value()) {
    CQA_CHECK(cur.over != nullptr);
    out.Set("certain_count",
            Json::Number(static_cast<double>(cur.answers->size())));
    out.Set("possible_count",
            Json::Number(static_cast<double>(cur.over->size())));
    out.Set("over_valid", Json::Bool(cur.meta.bounds->over_valid));
    out.Set("over", PageRows(cur.over->Page(0, limit), *entry->db));
    const bool over_more = limit < cur.over->size();
    out.Set("over_more", Json::Bool(over_more));
    if (over_more) {
      out.Set("over_cursor",
              Json::Str(RegisterCursor(cur.over, entry, limit)));
    }
  }
  out.Set("plan_ms", Json::Number(cur.meta.plan_ms));
  out.Set("eval_ms", Json::Number(cur.meta.eval_ms));
  return out;
}

Json CqaServer::HandleFetch(const Json& request) {
  fetch_requests_.fetch_add(1, std::memory_order_relaxed);
  uint64_t id = 0;
  size_t offset = 0;
  if (!DecodeToken(request.GetString("cursor"), &id, &offset)) {
    return MakeError(ErrorCode::kBadCursorToken,
                     "malformed or foreign cursor token");
  }
  size_t limit = 0;
  Json error;
  if (!ParseLimit(request, &limit, &error)) return error;

  std::shared_ptr<const AnswerCursor> cursor;
  DbEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    const auto it = cursors_.find(id);
    if (it == cursors_.end()) {
      return MakeError(ErrorCode::kUnknownCursor,
                       "cursor closed, exhausted, or evicted");
    }
    cursor = it->second.cursor;
    entry = it->second.db_entry;
    cursor_lru_.splice(cursor_lru_.begin(), cursor_lru_, it->second.lru_pos);
  }

  // The snapshot rule: pages only come off the version the cursor
  // evaluated at. The shared lock pairs with PUBLISH's exclusive lock, so
  // this version read cannot tear.
  std::shared_lock<std::shared_mutex> db_lock(entry->rw);
  if (entry->db->version() != cursor->db_version()) {
    {
      std::lock_guard<std::mutex> lock(cursor_mu_);
      const auto it = cursors_.find(id);
      if (it != cursors_.end()) {
        cursor_lru_.erase(it->second.lru_pos);
        cursors_.erase(it);
      }
    }
    cursors_invalidated_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kCursorInvalidated,
                     "database mutated since the cursor's snapshot; "
                     "re-issue the query");
  }

  const std::span<const Tuple> page = cursor->Page(offset, limit);
  const size_t next = offset + page.size();
  const bool more = next < cursor->size();
  Json out = Json::Object();
  out.Set("ok", Json::Bool(true));
  out.Set("answers", PageRows(page, *entry->db));
  out.Set("more", Json::Bool(more));
  out.Set("done", Json::Bool(!more));
  if (more) {
    out.Set("cursor", Json::Str(EncodeToken(id, next)));
  } else {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    const auto it = cursors_.find(id);
    if (it != cursors_.end()) {
      cursor_lru_.erase(it->second.lru_pos);
      cursors_.erase(it);
    }
  }
  return out;
}

Json CqaServer::HandleClose(const Json& request) {
  uint64_t id = 0;
  size_t offset = 0;
  if (!DecodeToken(request.GetString("cursor"), &id, &offset)) {
    return MakeError(ErrorCode::kBadCursorToken,
                     "malformed or foreign cursor token");
  }
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    const auto it = cursors_.find(id);
    if (it != cursors_.end()) {
      cursor_lru_.erase(it->second.lru_pos);
      cursors_.erase(it);
      closed = true;
    }
  }
  Json out = Json::Object();
  out.Set("ok", Json::Bool(true));
  out.Set("closed", Json::Bool(closed));
  return out;
}

Json CqaServer::HandlePublish(const Json& request) {
  publish_requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string db_name = request.GetString("db");
  DbEntry* entry = FindDb(db_name);
  if (entry == nullptr) {
    return MakeError(ErrorCode::kUnknownDatabase,
                     "unknown database: " + db_name);
  }
  const std::string fact = request.GetString("fact");
  const size_t open = fact.find('(');
  if (open == std::string::npos || fact.empty() || fact.back() != ')') {
    return MakeError(ErrorCode::kParseError, "malformed fact: " + fact);
  }
  const std::string_view rel_name = Trim(std::string_view(fact).substr(0, open));
  const std::optional<RelationId> rel =
      entry->db->vocab()->FindRelation(rel_name);
  if (!rel.has_value()) {
    return MakeError(ErrorCode::kParseError,
                     "unknown relation: " + std::string(rel_name));
  }

  // Validate the whole fact before touching the database: a refused
  // PUBLISH must leave the universe, the version and open cursors alone.
  const std::string_view args =
      std::string_view(fact).substr(open + 1, fact.size() - open - 2);
  std::vector<std::string> names;
  for (const std::string& field : Split(args, ',')) {
    const std::string_view name = Trim(field);
    if (!IsIdentifier(name)) {
      return MakeError(ErrorCode::kParseError,
                       "malformed element name: " + std::string(name));
    }
    names.emplace_back(name);
  }
  if (static_cast<int>(names.size()) != entry->db->vocab()->arity(*rel)) {
    return MakeError(ErrorCode::kParseError,
                     "arity mismatch for " + std::string(rel_name));
  }

  // Exclusive lock: the mutation must not overlap any evaluation or page
  // fetch on this database (pairs with the shared locks in EVAL/FETCH).
  std::unique_lock<std::shared_mutex> db_lock(entry->rw);
  Tuple tuple;
  for (const std::string& name : names) {
    auto it = entry->elements.find(name);
    if (it == entry->elements.end()) {
      const Element e = entry->db->AddElement();
      entry->db->SetElementName(e, name);
      it = entry->elements.emplace(name, e).first;
    }
    tuple.push_back(it->second);
  }
  const bool inserted =
      service_->Publish(entry->db, *rel, std::move(tuple));
  Json out = Json::Object();
  out.Set("ok", Json::Bool(true));
  out.Set("inserted", Json::Bool(inserted));
  out.Set("version", Json::Number(static_cast<double>(entry->db->version())));
  return out;
}

Json CqaServer::HandleStats(const Json&) {
  Json out = Json::Object();
  out.Set("ok", Json::Bool(true));

  const BatchStats streaming = service_->StreamingStats();
  Json s = Json::Object();
  s.Set("jobs", Json::Number(static_cast<double>(streaming.jobs)));
  s.Set("shed_degraded",
        Json::Number(static_cast<double>(streaming.shed_degraded)));
  s.Set("shed_rejected",
        Json::Number(static_cast<double>(streaming.shed_rejected)));
  s.Set("stopped_jobs",
        Json::Number(static_cast<double>(streaming.stopped_jobs)));
  out.Set("streaming", std::move(s));

  const EvalCacheStats cs = service_->serving_cache()->stats();
  Json c = Json::Object();
  c.Set("index_hits", Json::Number(static_cast<double>(cs.index_hits)));
  c.Set("index_misses", Json::Number(static_cast<double>(cs.index_misses)));
  c.Set("index_entries", Json::Number(static_cast<double>(cs.index_entries)));
  c.Set("index_bytes", Json::Number(static_cast<double>(cs.index_bytes)));
  c.Set("plan_hits", Json::Number(static_cast<double>(cs.plan_hits)));
  c.Set("plan_misses", Json::Number(static_cast<double>(cs.plan_misses)));
  c.Set("plan_entries", Json::Number(static_cast<double>(cs.plan_entries)));
  out.Set("cache", std::move(c));

  const ServerStats ss = stats();
  Json sv = Json::Object();
  sv.Set("connections_accepted",
         Json::Number(static_cast<double>(ss.connections_accepted)));
  sv.Set("requests", Json::Number(static_cast<double>(ss.requests)));
  sv.Set("eval_requests",
         Json::Number(static_cast<double>(ss.eval_requests)));
  sv.Set("fetch_requests",
         Json::Number(static_cast<double>(ss.fetch_requests)));
  sv.Set("publish_requests",
         Json::Number(static_cast<double>(ss.publish_requests)));
  sv.Set("errors", Json::Number(static_cast<double>(ss.errors)));
  sv.Set("open_cursors", Json::Number(static_cast<double>(ss.open_cursors)));
  sv.Set("cursors_opened",
         Json::Number(static_cast<double>(ss.cursors_opened)));
  sv.Set("cursors_invalidated",
         Json::Number(static_cast<double>(ss.cursors_invalidated)));
  sv.Set("cursors_evicted",
         Json::Number(static_cast<double>(ss.cursors_evicted)));
  out.Set("server", std::move(sv));

  Json tenants = Json::Object();
  for (const auto& [name, ts] : admission_.stats()) {
    Json t = Json::Object();
    t.Set("admitted", Json::Number(static_cast<double>(ts.admitted)));
    t.Set("rate_limited",
          Json::Number(static_cast<double>(ts.rate_limited)));
    t.Set("busy_rejected",
          Json::Number(static_cast<double>(ts.busy_rejected)));
    t.Set("in_flight", Json::Number(static_cast<double>(ts.in_flight)));
    tenants.Set(name, std::move(t));
  }
  out.Set("tenants", std::move(tenants));
  return out;
}

std::string CqaServer::RegisterCursor(
    std::shared_ptr<const AnswerCursor> cursor, DbEntry* db_entry,
    size_t offset) {
  std::lock_guard<std::mutex> lock(cursor_mu_);
  const uint64_t id = next_cursor_id_++;
  cursor_lru_.push_front(id);
  CursorEntry entry;
  entry.cursor = std::move(cursor);
  entry.db_entry = db_entry;
  entry.lru_pos = cursor_lru_.begin();
  cursors_.emplace(id, std::move(entry));
  cursors_opened_.fetch_add(1, std::memory_order_relaxed);
  while (cursors_.size() > options_.max_cursors) {
    const uint64_t victim = cursor_lru_.back();
    cursor_lru_.pop_back();
    cursors_.erase(victim);
    cursors_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  return EncodeToken(id, offset);
}

std::string CqaServer::EncodeToken(uint64_t id, size_t offset) const {
  const uint64_t check = HashFinalize(
      HashCombine(HashCombine(token_secret_, id), offset));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cqa1-%016llx-%016llx-%016llx",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(offset),
                static_cast<unsigned long long>(check));
  return buf;
}

bool CqaServer::DecodeToken(const std::string& token, uint64_t* id,
                            size_t* offset) const {
  // Format: "cqa1-" + three 16-hex-digit fields separated by '-'.
  if (token.size() != 5 + 16 * 3 + 2 || token.rfind("cqa1-", 0) != 0 ||
      token[21] != '-' || token[38] != '-') {
    return false;
  }
  uint64_t fields[3] = {0, 0, 0};
  const size_t starts[3] = {5, 22, 39};
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 16; ++i) {
      const char c = token[starts[f] + static_cast<size_t>(i)];
      fields[f] <<= 4;
      if (c >= '0' && c <= '9') {
        fields[f] |= static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        fields[f] |= static_cast<uint64_t>(c - 'a' + 10);
      } else {
        return false;
      }
    }
  }
  const uint64_t check = HashFinalize(
      HashCombine(HashCombine(token_secret_, fields[0]), fields[1]));
  if (check != fields[2]) return false;  // foreign or tampered token
  *id = fields[0];
  *offset = static_cast<size_t>(fields[1]);
  return true;
}

ServerStats CqaServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.eval_requests = eval_requests_.load(std::memory_order_relaxed);
  out.fetch_requests = fetch_requests_.load(std::memory_order_relaxed);
  out.publish_requests = publish_requests_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.cursors_opened = cursors_opened_.load(std::memory_order_relaxed);
  out.cursors_invalidated =
      cursors_invalidated_.load(std::memory_order_relaxed);
  out.cursors_evicted = cursors_evicted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    out.open_cursors = static_cast<long long>(cursors_.size());
  }
  return out;
}

void CqaServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  stopping_.store(true, std::memory_order_relaxed);

  // Stop accepting: unblock the accept() call, then join the acceptor.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Reset();

  // Unblock idle connections (their next read returns EOF); a connection
  // mid-request finishes it and writes the response first — SHUT_RD leaves
  // the write side open.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn.fd.valid()) ::shutdown(conn.fd.get(), SHUT_RD);
    }
  }
  for (;;) {
    Conn victim;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (conns_.empty()) break;
      auto it = conns_.begin();
      victim = std::move(it->second);
      conns_.erase(it);
    }
    if (victim.thread.joinable()) victim.thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    finished_conns_.clear();
  }

  // Finally drain the QueryService itself (every bridged Submit has
  // already resolved — its connection thread is joined).
  service_->Drain();
  service_->Shutdown();
}

}  // namespace cqa
