// Tests for the network front end (src/net): the JSON codec, the
// AnswerCursor paging snapshot, and — through a real loopback socket — the
// serving contract of cqa_server: answers byte-identical to in-process
// evaluation in all four AnswerModes (including paged with limit=1), cursor
// edge cases (empty sets, oversized limits, idempotent/foreign/exhausted
// tokens), the snapshot rule (a PUBLISH invalidates open cursors with a
// typed error, never a torn page; a refused PUBLISH changes nothing),
// per-tenant admission (typed quota errors while other tenants proceed),
// STATS, and graceful drain. The concurrency test rides the TSan CI job.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cq/parse.h"
#include "data/text.h"
#include "eval/service.h"
#include "net/admission.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "net/wire.h"

namespace cqa {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, RoundTrip) {
  const std::string text =
      R"({"verb":"EVAL","n":42,"x":-1.5,"ok":true,"nil":null,)"
      R"("rows":[["a","b"],[]],"s":"q\"\\\né"})";
  std::optional<Json> v = Json::Parse(text);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->GetString("verb"), "EVAL");
  EXPECT_EQ(v->GetNumber("n"), 42.0);
  EXPECT_EQ(v->GetNumber("x"), -1.5);
  EXPECT_TRUE(v->GetBool("ok"));
  ASSERT_NE(v->Find("rows"), nullptr);
  EXPECT_EQ(v->Find("rows")->items().size(), 2u);
  // Dump -> Parse is the identity; integral numbers print without ".0".
  std::optional<Json> again = Json::Parse(v->Dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->Dump(), v->Dump());
  EXPECT_NE(v->Dump().find("\"n\":42,"), std::string::npos);
}

// A repeated key replaces the earlier value in the earlier key's place, in
// a small object and in one large enough to be parsed through a key index.
TEST(JsonTest, RepeatedKeyReplacesInPlace) {
  std::optional<Json> small = Json::Parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->Dump(), R"({"a":3,"b":2})");

  std::string text = "{";
  std::string want = "{";
  for (int i = 0; i < 200; ++i) {
    const std::string key = "\"k" + std::to_string(i) + "\":";
    text += key + std::to_string(i) + ",";
    want += key + (i == 7 ? std::string("\"x\"") : std::to_string(i)) +
            (i + 1 < 200 ? "," : "}");
  }
  text += R"("k7":"x"})";
  std::optional<Json> large = Json::Parse(text);
  ASSERT_TRUE(large.has_value());
  EXPECT_EQ(large->fields().size(), 200u);
  EXPECT_EQ(large->GetString("k7"), "x");
  EXPECT_EQ(large->Dump(), want);
}

TEST(JsonTest, StrictParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::Parse("[1,]").has_value());
  EXPECT_FALSE(Json::Parse("").has_value());
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(Json::Parse(deep).has_value());
}

// --------------------------------------------------------- FrameReader --

// A connected stream pair: bytes written to `writer` arrive at `reader`.
struct StreamPair {
  UniqueFd writer;
  UniqueFd reader;
};

StreamPair MakeStreamPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return StreamPair{UniqueFd(fds[0]), UniqueFd(fds[1])};
}

void SendRaw(const UniqueFd& fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd.get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

// Sends `bytes`, closes the writer when `close_after`, and returns what one
// FrameReader::Next (payload limit `max_bytes`) makes of them.
FrameReader::Result ReadOne(const std::string& bytes, bool close_after,
                            size_t max_bytes, std::string* error) {
  StreamPair pair = MakeStreamPair();
  SendRaw(pair.writer, bytes);
  if (close_after) pair.writer.Reset();
  FrameReader reader(pair.reader.get(), max_bytes);
  std::string payload;
  return reader.Next(&payload, error);
}

TEST(FrameReaderTest, MalformedFramesAreTypedErrors) {
  struct Case {
    std::string bytes;
    bool close_after;
    size_t max_bytes;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"5\nab", true, 64, "EOF inside a frame"},
      {"12", true, 64, "EOF inside a frame"},
      {std::string(40, '1'), false, 64, "frame length line too long"},
      {"1x\nab\n", false, 64, "malformed frame length"},
      {"\nab\n", false, 64, "malformed frame length"},
      {"12345678901234567890\n", false, 64, "malformed frame length"},
      {"11\nhello world\n", false, 10, "frame of 11 bytes exceeds limit"},
      {"2\nabX", false, 64, "missing frame terminator"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(ReadOne(c.bytes, c.close_after, c.max_bytes, &error),
              FrameReader::Result::kError)
        << c.message;
    EXPECT_EQ(error, c.message);
  }
}

TEST(FrameReaderTest, FramesAndCleanEof) {
  StreamPair pair = MakeStreamPair();
  // Two frames in one write both arrive, then EOF at a frame boundary.
  std::string error;
  ASSERT_TRUE(WriteFrame(pair.writer.get(), "first", &error)) << error;
  SendRaw(pair.writer, "2\nab\n3\ncde\n");
  pair.writer.Reset();
  FrameReader reader(pair.reader.get(), 64);
  std::string payload;
  for (const char* want : {"first", "ab", "cde"}) {
    ASSERT_EQ(reader.Next(&payload, &error), FrameReader::Result::kFrame)
        << error;
    EXPECT_EQ(payload, want);
  }
  EXPECT_EQ(reader.Next(&payload, &error), FrameReader::Result::kEof);
  // An empty payload is a frame too.
  StreamPair empty = MakeStreamPair();
  SendRaw(empty.writer, "0\n\n");
  empty.writer.Reset();
  FrameReader empty_reader(empty.reader.get(), 64);
  ASSERT_EQ(empty_reader.Next(&payload, &error), FrameReader::Result::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(empty_reader.Next(&payload, &error), FrameReader::Result::kEof);
}

// -------------------------------------------------------- AnswerCursor --

TEST(AnswerCursorTest, SortsAndPages) {
  AnswerSet set(2);
  set.Insert({3, 0});
  set.Insert({1, 2});
  set.Insert({1, 1});
  const AnswerCursor cursor(std::move(set), /*db_version=*/7);
  EXPECT_EQ(cursor.size(), 3u);
  EXPECT_EQ(cursor.db_version(), 7u);
  // Deterministic lexicographic order regardless of insertion order.
  EXPECT_EQ(cursor.rows()[0], (Tuple{1, 1}));
  EXPECT_EQ(cursor.rows()[1], (Tuple{1, 2}));
  EXPECT_EQ(cursor.rows()[2], (Tuple{3, 0}));
  // Pages concatenate to the rows; an oversized limit clamps.
  EXPECT_EQ(cursor.Page(0, 2).size(), 2u);
  EXPECT_EQ(cursor.Page(2, 100).size(), 1u);
  EXPECT_EQ(cursor.Page(2, 100)[0], (Tuple{3, 0}));
  // Past-the-end offsets are benign empty pages, not errors.
  EXPECT_TRUE(cursor.Page(3, 1).empty());
  EXPECT_TRUE(cursor.Page(999, 1).empty());
  EXPECT_TRUE(cursor.Exhausted(3));
  EXPECT_FALSE(cursor.Exhausted(2));
}

TEST(AnswerCursorTest, EmptySet) {
  const AnswerCursor cursor(AnswerSet(1), /*db_version=*/0);
  EXPECT_EQ(cursor.size(), 0u);
  EXPECT_TRUE(cursor.Page(0, 10).empty());
  EXPECT_TRUE(cursor.Exhausted(0));
}

// ---------------------------------------------------- loopback fixture --

using Rows = std::vector<std::vector<std::string>>;

constexpr const char* kDemoFacts =
    "E(a, b)\nE(b, c)\nE(c, a)\nE(c, d)\nE(d, e)\nE(e, c)\n";
constexpr const char* kPathQuery = "Q(x, z) :- E(x, y), E(y, z)";

class NetTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    db_ = std::make_unique<Database>(
        *ParseDatabase(Vocabulary::Graph(), kDemoFacts, nullptr));
    server_ = std::make_unique<CqaServer>(std::move(options));
    server_->AddDatabase("demo", db_.get());
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  CqaClient Connect() {
    CqaClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()))
        << client.last_error().message;
    return client;
  }

  // The in-process reference: Evaluate + MakeCursors, rows as names in
  // cursor order — what the wire pages must concatenate to exactly.
  Rows Reference(const std::string& query, AnswerMode mode) {
    const QueryService service;
    EvalRequest request{*ParseQueryOrDie(query), db_.get(), mode};
    CursorResponse cur =
        QueryService::MakeCursors(service.Evaluate(request), *db_);
    return NamedRows(*cur.answers);
  }

  Rows ReferenceOver(const std::string& query) {
    const QueryService service;
    EvalRequest request{*ParseQueryOrDie(query), db_.get(),
                        AnswerMode::kBounds};
    CursorResponse cur =
        QueryService::MakeCursors(service.Evaluate(request), *db_);
    return NamedRows(*cur.over);
  }

  Rows NamedRows(const AnswerCursor& cursor) {
    Rows out;
    for (const Tuple& t : cursor.rows()) {
      std::vector<std::string> row;
      for (const Element e : t) row.push_back(db_->ElementName(e));
      out.push_back(std::move(row));
    }
    return out;
  }

  std::optional<ConjunctiveQuery> ParseQueryOrDie(const std::string& text) {
    std::string error;
    std::optional<ConjunctiveQuery> q =
        ParseQuery(db_->vocab(), text, &error);
    EXPECT_TRUE(q.has_value()) << error;
    return q;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<CqaServer> server_;
};

// A socket client must get byte-identical answers to in-process
// evaluation, in every AnswerMode, both in one page and paged with
// limit=1 (the acceptance criterion of the network front end).
TEST_F(NetTest, ByteIdenticalAnswersAllModes) {
  StartServer();
  CqaClient client = Connect();
  for (const char* mode : {"exact", "over", "under", "bounds"}) {
    const AnswerMode m = mode == std::string("exact")
                             ? AnswerMode::kExact
                         : mode == std::string("over")
                             ? AnswerMode::kOverApproximate
                         : mode == std::string("under")
                             ? AnswerMode::kUnderApproximate
                             : AnswerMode::kBounds;
    const Rows expected = Reference(kPathQuery, m);
    for (const size_t limit : {size_t{0}, size_t{1}, size_t{3}}) {
      CqaClient::EvalParams params;
      params.db = "demo";
      params.query = kPathQuery;
      params.mode = mode;
      params.limit = limit;
      std::optional<CqaClient::EvalResult> result = client.Eval(params);
      ASSERT_TRUE(result.has_value())
          << mode << ": " << client.last_error().message;
      EXPECT_EQ(result->mode, mode);
      EXPECT_EQ(result->status, "ok");
      Rows got;
      ASSERT_TRUE(client.DrainCursor(result->answers, limit, &got))
          << client.last_error().code;
      EXPECT_EQ(got, expected) << mode << " limit=" << limit;
      EXPECT_EQ(result->answer_count,
                static_cast<long long>(expected.size()));
      if (m == AnswerMode::kBounds) {
        Rows over;
        ASSERT_TRUE(client.DrainCursor(result->over, limit, &over));
        EXPECT_EQ(over, ReferenceOver(kPathQuery));
        EXPECT_TRUE(result->over_valid);
      }
    }
  }
}

// The rows inside a response frame are the bytes Json::Dump writes for the
// same rows built as Json::Str names, and every frame re-dumps to itself:
// names with quotes, backslashes, control bytes and multi-byte UTF-8, an
// unnamed element (default name "e<i>"), and a Boolean query's one empty
// row, over raw frames rather than the client's decoded strings.
TEST_F(NetTest, RawFramesCarryDumpedRows) {
  db_ = std::make_unique<Database>(Vocabulary::Graph(), 7);
  const std::vector<std::string> names = {
      "quo\"te", "back\\slash", "new\nline", "tab\tbed",
      std::string("ctl\x01") + "x", "caf\xc3\xa9\xe2\x9c\x93\xf0\x9d\x84\x9e"};
  for (size_t e = 0; e < names.size(); ++e) {
    db_->SetElementName(static_cast<Element>(e), names[e]);
  }
  for (Element e = 0; e < 7; ++e) db_->AddFact(0, {e, (e + 1) % 7});
  db_->AddFact(0, {6, 6});
  server_ = std::make_unique<CqaServer>(ServerOptions{});
  server_->AddDatabase("names", db_.get());
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  UniqueFd fd = DialTcp("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  FrameReader reader(fd.get(), size_t{1} << 20);
  const auto round_trip = [&](const std::string& request) {
    std::string payload;
    EXPECT_TRUE(WriteFrame(fd.get(), request, &error)) << error;
    EXPECT_EQ(reader.Next(&payload, &error), FrameReader::Result::kFrame)
        << error;
    std::optional<Json> parsed = Json::Parse(payload);
    EXPECT_TRUE(parsed.has_value()) << payload;
    if (parsed.has_value()) EXPECT_EQ(parsed->Dump(), payload);
    return std::make_pair(payload, parsed.value_or(Json::Object()));
  };
  const auto dumped_rows = [&](std::span<const Tuple> rows) {
    Json out = Json::Array();
    for (const Tuple& t : rows) {
      Json row = Json::Array();
      for (const Element e : t) row.Append(Json::Str(db_->ElementName(e)));
      out.Append(std::move(row));
    }
    return "\"answers\":" + out.Dump() + ",";
  };

  const QueryService service;
  const std::string query = "Q(x, y) :- E(x, y)";
  const CursorResponse ref = QueryService::MakeCursors(
      service.Evaluate(EvalRequest{*ParseQueryOrDie(query), db_.get(),
                                   AnswerMode::kExact}),
      *db_);
  ASSERT_EQ(ref.answers->size(), 8u);
  auto [eval, eval_json] = round_trip(
      R"({"verb":"EVAL","db":"names","query":")" + query +
      R"(","limit":3})");
  EXPECT_NE(eval.find(dumped_rows(ref.answers->Page(0, 3))),
            std::string::npos)
      << eval;
  std::string cursor = eval_json.GetString("cursor");
  for (size_t offset = 3; offset < ref.answers->size(); offset += 3) {
    ASSERT_FALSE(cursor.empty());
    auto [fetch, fetch_json] = round_trip(
        R"({"verb":"FETCH","cursor":")" + cursor + R"(","limit":3})");
    EXPECT_NE(fetch.find(dumped_rows(ref.answers->Page(offset, 3))),
              std::string::npos)
        << fetch;
    cursor = fetch_json.GetString("cursor");
  }
  EXPECT_TRUE(cursor.empty());

  auto [boolean, boolean_json] = round_trip(
      R"j({"verb":"EVAL","db":"names","query":"Q() :- E(x, y)"})j");
  EXPECT_NE(boolean.find(R"("answers":[[]],)"), std::string::npos) << boolean;
  EXPECT_EQ(boolean_json.GetNumber("answer_count"), 1.0);
}

// A request object is parsed in time linear in its keys, so a client
// cannot hold a connection thread by sending many of them: an EVAL with
// 80k extra distinct keys (about 1 MB) is answered well within 2 s.
TEST_F(NetTest, ManyKeyRequestParsesInLinearTime) {
  StartServer();
  std::string request = R"({"verb":"EVAL","db":"demo","query":")" +
                        std::string(kPathQuery) + "\"";
  for (int i = 0; i < 80000; ++i) {
    request += ",\"pad" + std::to_string(i) + "\":" + std::to_string(i);
  }
  request += "}";
  std::string error;
  UniqueFd fd = DialTcp("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  FrameReader reader(fd.get(), size_t{1} << 20);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteFrame(fd.get(), request, &error)) << error;
  std::string payload;
  ASSERT_EQ(reader.Next(&payload, &error), FrameReader::Result::kFrame)
      << error;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0);
  const std::optional<Json> reply = Json::Parse(payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->GetBool("ok")) << payload;
  EXPECT_EQ(reply->GetNumber("answer_count"),
            static_cast<double>(Reference(kPathQuery, AnswerMode::kExact)
                                    .size()));
}

TEST_F(NetTest, EmptyAnswerSet) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = "Q(x) :- E(x, x)";  // no self-loops in the demo graph
  std::optional<CqaClient::EvalResult> result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->answers.rows.empty());
  EXPECT_FALSE(result->answers.more);
  EXPECT_TRUE(result->answers.cursor.empty());
  EXPECT_EQ(result->answer_count, 0);
}

TEST_F(NetTest, LimitLargerThanSetReturnsEverythingWithoutCursor) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  params.limit = 4096;
  std::optional<CqaClient::EvalResult> result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->answers.rows, Reference(kPathQuery, AnswerMode::kExact));
  EXPECT_FALSE(result->answers.more);
  EXPECT_TRUE(result->answers.cursor.empty());
}

// Tokens are idempotent: re-sending one re-reads the same page (a client
// that lost a response can resume without skipping rows).
TEST_F(NetTest, TokenRefetchIsIdempotent) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  params.limit = 1;
  std::optional<CqaClient::EvalResult> result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->answers.more);
  const std::string token = result->answers.cursor;
  std::optional<CqaClient::Page> first = client.Fetch(token, 1);
  std::optional<CqaClient::Page> again = client.Fetch(token, 1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(first->rows, again->rows);
  EXPECT_EQ(first->cursor, again->cursor);
}

TEST_F(NetTest, MalformedAndForeignTokensAreTyped) {
  StartServer();
  CqaClient client = Connect();
  // Malformed: not even token-shaped.
  EXPECT_FALSE(client.Fetch("garbage").has_value());
  EXPECT_EQ(client.last_error().code, "bad_cursor_token");
  // Well-formed shape but fabricated: the checksum (keyed by this server's
  // secret) cannot match, so a foreign server's token is refused too.
  const std::string forged = "cqa1-0000000000000001-0000000000000000-"
                             "deadbeefdeadbeef";
  EXPECT_FALSE(client.Fetch(forged).has_value());
  EXPECT_EQ(client.last_error().code, "bad_cursor_token");
}

TEST_F(NetTest, ExhaustedCursorTokenIsUnknown) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  params.limit = 1;
  std::optional<CqaClient::EvalResult> result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  Rows all;
  ASSERT_TRUE(client.DrainCursor(result->answers, 1, &all));
  EXPECT_EQ(all.size(), Reference(kPathQuery, AnswerMode::kExact).size());
  // The drain exhausted (and dropped) the cursor: its tokens are gone.
  EXPECT_FALSE(client.Fetch(result->answers.cursor, 1).has_value());
  EXPECT_EQ(client.last_error().code, "unknown_cursor");
}

// The snapshot rule on the wire: a cursor opened before a PUBLISH is
// refused with the typed error — never a torn page — and a fresh EVAL sees
// the new fact.
TEST_F(NetTest, PublishInvalidatesOpenCursors) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = "Q(x, y) :- E(x, y)";
  params.limit = 1;
  std::optional<CqaClient::EvalResult> before = client.Eval(params);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(before->answers.more);

  std::optional<bool> inserted = client.Publish("demo", "E(a, e)");
  ASSERT_TRUE(inserted.has_value());
  EXPECT_TRUE(*inserted);

  EXPECT_FALSE(client.Fetch(before->answers.cursor, 1).has_value());
  EXPECT_EQ(client.last_error().code, "cursor_invalidated");

  params.limit = 0;
  std::optional<CqaClient::EvalResult> after = client.Eval(params);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->answer_count, before->answer_count + 1);
  // Duplicate publish: acknowledged, nothing inserted, no new invalidation.
  inserted = client.Publish("demo", "E(a, e)");
  ASSERT_TRUE(inserted.has_value());
  EXPECT_FALSE(*inserted);
}

// A refused PUBLISH changes nothing: the fact's names and arity are
// validated before any element is added, so the version, the universe and
// open cursors all survive it.
TEST_F(NetTest, RefusedPublishLeavesDatabaseAndCursorsAlone) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = "Q(x, y) :- E(x, y)";
  params.limit = 1;
  std::optional<CqaClient::EvalResult> page = client.Eval(params);
  ASSERT_TRUE(page.has_value());
  ASSERT_TRUE(page->answers.more);
  const uint64_t version = db_->version();
  const int elements = db_->num_elements();

  // An unknown name in a fact of the wrong arity, then a known-good name
  // followed by a malformed one.
  EXPECT_FALSE(client.Publish("demo", "E(freshname)").has_value());
  EXPECT_EQ(client.last_error().code, "parse_error");
  EXPECT_FALSE(client.Publish("demo", "E(fresh, 9bad)").has_value());
  EXPECT_EQ(client.last_error().code, "parse_error");
  EXPECT_EQ(db_->version(), version);
  EXPECT_EQ(db_->num_elements(), elements);

  EXPECT_TRUE(client.Fetch(page->answers.cursor, 1).has_value())
      << client.last_error().code;
}

TEST_F(NetTest, TypedProtocolErrors) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "nope";
  params.query = kPathQuery;
  EXPECT_FALSE(client.Eval(params).has_value());
  EXPECT_EQ(client.last_error().code, "unknown_database");
  params.db = "demo";
  params.query = "Q(x) :- Nope(x)";
  EXPECT_FALSE(client.Eval(params).has_value());
  EXPECT_EQ(client.last_error().code, "parse_error");
  params.query = kPathQuery;
  params.mode = "sideways";
  EXPECT_FALSE(client.Eval(params).has_value());
  EXPECT_EQ(client.last_error().code, "bad_request");
  Json bad_verb = Json::Object();
  bad_verb.Set("verb", Json::Str("FROB"));
  std::optional<Json> response = client.Call(std::move(bad_verb));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->GetBool("ok"));
  EXPECT_EQ(response->Find("error")->GetString("code"), "bad_request");
  // Integer fields that are negative or past what a 64-bit integer holds
  // are typed refusals, never an overflowing cast.
  for (const char* key : {"limit", "max_nodes", "max_answers"}) {
    for (const double value : {1e19, 1e300, -1.0}) {
      Json eval = Json::Object();
      eval.Set("verb", Json::Str("EVAL"));
      eval.Set("db", Json::Str("demo"));
      eval.Set("query", Json::Str(kPathQuery));
      eval.Set(key, Json::Number(value));
      response = client.Call(std::move(eval));
      ASSERT_TRUE(response.has_value());
      EXPECT_FALSE(response->GetBool("ok")) << key << "=" << value;
      const Json* error = response->Find("error");
      ASSERT_NE(error, nullptr) << key << "=" << value;
      EXPECT_EQ(error->GetString("code"), "bad_request")
          << key << "=" << value;
    }
  }
}

// Request limits ride the wire onto the PR-6 cancellation path: an
// answer-budget trip surfaces as status "truncated" with a sound partial
// (subset) answer set.
TEST_F(NetTest, EvalLimitsRideTheWire) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  params.max_answers = 1;
  std::optional<CqaClient::EvalResult> result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, "truncated");
  EXPECT_FALSE(result->exact);
  const Rows expected = Reference(kPathQuery, AnswerMode::kExact);
  for (const std::vector<std::string>& row : result->answers.rows) {
    EXPECT_NE(std::find(expected.begin(), expected.end(), row),
              expected.end());
  }
  EXPECT_LT(result->answers.rows.size(), expected.size());

  // A deadline too far out for the clock (1e13 ms, about 317 years) acts
  // as no deadline: the request completes exactly.
  params.max_answers = 0;
  params.deadline_ms = 1e13;
  result = client.Eval(params);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, "ok");
  EXPECT_TRUE(result->exact);
  EXPECT_EQ(result->answers.rows, expected);
}

// One tenant exhausting its quota gets the typed rejection while another
// tenant's requests keep succeeding (the acceptance criterion for
// admission), and STATS still authenticates for the throttled tenant.
TEST_F(NetTest, TenantQuotaIsTypedAndIsolated) {
  ServerOptions options;
  options.admission.allow_anonymous = false;
  TenantConfig throttled;
  throttled.api_key = "key-throttled";
  throttled.name = "throttled";
  throttled.rate_per_sec = 0.001;  // refill is negligible within the test
  throttled.burst = 2;
  TenantConfig open;
  open.api_key = "key-open";
  open.name = "open";
  options.admission.tenants = {throttled, open};
  StartServer(std::move(options));

  CqaClient alice = Connect();
  alice.set_api_key("key-throttled");
  CqaClient bob = Connect();
  bob.set_api_key("key-open");

  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  EXPECT_TRUE(alice.Eval(params).has_value());
  EXPECT_TRUE(alice.Eval(params).has_value());
  // Burst spent: the typed quota error, with a retry hint.
  EXPECT_FALSE(alice.Eval(params).has_value());
  EXPECT_EQ(alice.last_error().code, "rate_limited");
  // The other tenant is unaffected.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bob.Eval(params).has_value()) << bob.last_error().code;
  }
  // Monitoring is never throttled: the tenant can observe its own limit.
  std::optional<Json> stats = alice.Stats();
  ASSERT_TRUE(stats.has_value());
  const Json* tenants = stats->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_EQ(tenants->Find("throttled")->GetNumber("rate_limited"), 1.0);
  EXPECT_EQ(tenants->Find("open")->GetNumber("admitted"), 4.0);
  // Unknown and missing keys are typed refusals.
  CqaClient nobody = Connect();
  nobody.set_api_key("key-wrong");
  EXPECT_FALSE(nobody.Eval(params).has_value());
  EXPECT_EQ(nobody.last_error().code, "unauthenticated");
  CqaClient anon = Connect();
  EXPECT_FALSE(anon.Eval(params).has_value());
  EXPECT_EQ(anon.last_error().code, "unauthenticated");
}

// Two tenants under one display name: the first registration keeps the
// name, so the second key is refused as unknown, and the admitted tenant's
// slot is released to that same tenant (Release finds tenants by name).
TEST_F(NetTest, DuplicateTenantNameFirstRegistrationWins) {
  ServerOptions options;
  options.admission.allow_anonymous = false;
  TenantConfig first;
  first.api_key = "k1";
  first.name = "alice";
  TenantConfig second = first;
  second.api_key = "k2";
  options.admission.tenants = {first, second};
  StartServer(std::move(options));

  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  CqaClient late = Connect();
  late.set_api_key("k2");
  EXPECT_FALSE(late.Eval(params).has_value());
  EXPECT_EQ(late.last_error().code, "unauthenticated");

  CqaClient early = Connect();
  early.set_api_key("k1");
  EXPECT_TRUE(early.Eval(params).has_value()) << early.last_error().code;
  const std::map<std::string, TenantStats> tenants =
      server_->admission().stats();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants.at("alice").admitted, 1);
  EXPECT_EQ(tenants.at("alice").in_flight, 0);
}

TEST_F(NetTest, StatsCounters) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  params.limit = 1;
  ASSERT_TRUE(client.Eval(params).has_value());
  std::optional<Json> stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  const Json* server = stats->Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->GetNumber("eval_requests"), 1.0);
  EXPECT_GE(server->GetNumber("connections_accepted"), 1.0);
  EXPECT_EQ(server->GetNumber("open_cursors"), 1.0);
  const Json* streaming = stats->Find("streaming");
  ASSERT_NE(streaming, nullptr);
  EXPECT_EQ(streaming->GetNumber("jobs"), 1.0);
  EXPECT_NE(stats->Find("tenants"), nullptr);
}

// Graceful drain: Shutdown finishes cleanly with connections open, later
// requests fail as transport errors (the listener is gone), and Shutdown
// is idempotent.
TEST_F(NetTest, GracefulShutdownDrains) {
  StartServer();
  CqaClient client = Connect();
  CqaClient::EvalParams params;
  params.db = "demo";
  params.query = kPathQuery;
  ASSERT_TRUE(client.Eval(params).has_value());
  server_->Shutdown();
  server_->Shutdown();  // idempotent
  EXPECT_FALSE(client.Eval(params).has_value());
  EXPECT_EQ(client.last_error().code, "transport");
  CqaClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()));
}

// Connection handling under concurrency (this test is in the TSan CI
// job): several client threads mixing EVAL, paging, PUBLISH, and STATS
// against one server; every response must be ok or a typed error, never a
// torn frame or a crash.
TEST_F(NetTest, ConcurrentClientsSmoke) {
  StartServer();
  constexpr int kThreads = 4;
  constexpr int kRequests = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      CqaClient client;
      if (!client.Connect("127.0.0.1", server_->port())) {
        failures.fetch_add(1);
        return;
      }
      CqaClient::EvalParams params;
      params.db = "demo";
      params.query = kPathQuery;
      params.limit = 2;
      for (int i = 0; i < kRequests; ++i) {
        if (t == 0 && i % 4 == 3) {
          // Writer thread: publishes race open cursors; the only
          // acceptable failure anywhere is the typed invalidation.
          if (!client.Publish("demo", "E(b, d)").has_value()) {
            failures.fetch_add(1);
          }
          continue;
        }
        std::optional<CqaClient::EvalResult> result = client.Eval(params);
        if (!result.has_value()) {
          failures.fetch_add(1);
          continue;
        }
        Rows rows;
        if (!client.DrainCursor(result->answers, 2, &rows) &&
            client.last_error().code != "cursor_invalidated") {
          failures.fetch_add(1);
        }
        if (i % 5 == 4 && !client.Stats().has_value()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace cqa
