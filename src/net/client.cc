#include "net/client.h"

#include <utility>

namespace cqa {

bool CqaClient::Connect(const std::string& host, int port) {
  reader_.reset();
  std::string error;
  fd_ = DialTcp(host, port, &error);
  if (!fd_.valid()) {
    last_error_ = {"transport", error};
    return false;
  }
  reader_ = std::make_unique<FrameReader>(fd_.get(),
                                          /*max_bytes=*/64 * 1024 * 1024);
  return true;
}

std::optional<Json> CqaClient::Call(Json request) {
  if (!fd_.valid()) {
    last_error_ = {"transport", "not connected"};
    return std::nullopt;
  }
  if (!api_key_.empty()) request.Set("api_key", Json::Str(api_key_));
  std::string error;
  if (!WriteFrame(fd_.get(), request.Dump(), &error)) {
    last_error_ = {"transport", error};
    return std::nullopt;
  }
  std::string payload;
  const FrameReader::Result r = reader_->Next(&payload, &error);
  if (r != FrameReader::Result::kFrame) {
    last_error_ = {"transport", r == FrameReader::Result::kEof
                                    ? "connection closed by server"
                                    : error};
    return std::nullopt;
  }
  std::optional<Json> response = Json::Parse(payload, &error);
  if (!response.has_value() || !response->is_object()) {
    last_error_ = {"transport", "bad response frame: " + error};
    return std::nullopt;
  }
  return response;
}

std::optional<Json> CqaClient::CallChecked(Json request) {
  std::optional<Json> response = Call(std::move(request));
  if (!response.has_value()) return std::nullopt;
  if (!response->GetBool("ok")) {
    const Json* err = response->Find("error");
    last_error_ = {err != nullptr ? err->GetString("code", "unknown")
                                  : "unknown",
                   err != nullptr ? err->GetString("message") : ""};
    return std::nullopt;
  }
  return response;
}

void CqaClient::ParseRows(Json rows,
                          std::vector<std::vector<std::string>>* out) {
  if (!rows.is_array()) return;
  std::vector<Json>&& items = std::move(rows).items();
  out->reserve(out->size() + items.size());
  for (Json& row : items) {
    std::vector<std::string> tuple;
    if (row.is_array()) {
      std::vector<Json>&& cells = std::move(row).items();
      tuple.reserve(cells.size());
      for (Json& cell : cells) {
        tuple.push_back(cell.is_string() ? std::move(cell).AsString()
                                         : cell.Dump());
      }
    }
    out->push_back(std::move(tuple));
  }
}

CqaClient::Page CqaClient::ParsePage(Json* response, const char* rows_key,
                                     const char* cursor_key,
                                     const char* more_key) {
  Page page;
  ParseRows(response->Take(rows_key), &page.rows);
  page.cursor = response->GetString(cursor_key);
  page.more = response->GetBool(more_key);
  return page;
}

std::optional<CqaClient::EvalResult> CqaClient::Eval(const EvalParams& p) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("EVAL"));
  req.Set("db", Json::Str(p.db));
  req.Set("query", Json::Str(p.query));
  req.Set("mode", Json::Str(p.mode));
  if (p.limit > 0) req.Set("limit", Json::Number(static_cast<double>(p.limit)));
  if (p.deadline_ms > 0.0) req.Set("deadline_ms", Json::Number(p.deadline_ms));
  if (p.max_nodes > 0) {
    req.Set("max_nodes", Json::Number(static_cast<double>(p.max_nodes)));
  }
  if (p.max_answers > 0) {
    req.Set("max_answers", Json::Number(static_cast<double>(p.max_answers)));
  }
  std::optional<Json> response = CallChecked(std::move(req));
  if (!response.has_value()) return std::nullopt;
  EvalResult out;
  out.answers = ParsePage(&response.value(), "answers", "cursor", "more");
  out.over = ParsePage(&response.value(), "over", "over_cursor", "over_more");
  out.mode = response->GetString("mode");
  out.status = response->GetString("status");
  out.exact = response->GetBool("exact");
  out.degraded = response->GetBool("degraded");
  out.over_valid = response->GetBool("over_valid", true);
  out.answer_count =
      static_cast<long long>(response->GetNumber("answer_count"));
  out.possible_count =
      static_cast<long long>(response->GetNumber("possible_count"));
  out.raw = std::move(*response);
  return out;
}

std::optional<CqaClient::Page> CqaClient::Fetch(const std::string& cursor,
                                                size_t limit) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("FETCH"));
  req.Set("cursor", Json::Str(cursor));
  if (limit > 0) req.Set("limit", Json::Number(static_cast<double>(limit)));
  std::optional<Json> response = CallChecked(std::move(req));
  if (!response.has_value()) return std::nullopt;
  return ParsePage(&response.value(), "answers", "cursor", "more");
}

bool CqaClient::CloseCursor(const std::string& cursor) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("CLOSE"));
  req.Set("cursor", Json::Str(cursor));
  return CallChecked(std::move(req)).has_value();
}

std::optional<bool> CqaClient::Publish(const std::string& db,
                                       const std::string& fact) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("PUBLISH"));
  req.Set("db", Json::Str(db));
  req.Set("fact", Json::Str(fact));
  std::optional<Json> response = CallChecked(std::move(req));
  if (!response.has_value()) return std::nullopt;
  return response->GetBool("inserted");
}

std::optional<Json> CqaClient::Stats() {
  Json req = Json::Object();
  req.Set("verb", Json::Str("STATS"));
  return CallChecked(std::move(req));
}

bool CqaClient::DrainCursor(const Page& first, size_t limit,
                            std::vector<std::vector<std::string>>* out) {
  out->insert(out->end(), first.rows.begin(), first.rows.end());
  std::string cursor = first.cursor;
  bool more = first.more;
  while (more) {
    const std::optional<Page> page = Fetch(cursor, limit);
    if (!page.has_value()) return false;
    out->insert(out->end(), page->rows.begin(), page->rows.end());
    cursor = page->cursor;
    more = page->more;
  }
  return true;
}

}  // namespace cqa
