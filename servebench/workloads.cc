#include "workloads.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "cq/parse.h"
#include "eval/cache.h"
#include "eval/service.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "replay.h"
#include "trace.h"

namespace servebench {
namespace {

constexpr const char* kDb = "g";
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// The end-to-end window runs as kSlices equal slices and each end-to-end
// metric is the median of its per-slice values, so a burst of outside load
// during one slice does not move it.
constexpr int kSlices = 5;
// Traced windows replay every kReplayEvery-th completed query per client.
constexpr long long kReplayEvery = 4;
// Tail percentiles, fixed per workload so that in 20-second runs at least
// ten samples lie beyond them (the report prints the counts): a 4-second
// slice holds thousands of row queries but a few hundred approx_bounds
// repeats, and publish_mix's writer sends 400 publishes a run.
constexpr double kRowQueryTail = 0.99;
constexpr double kApproxQueryTail = 0.95;
constexpr double kWriterTail = 0.975;
// publish_mix: the open-loop writer's rate.
constexpr double kPublishPerSecond = 20.0;
constexpr const char* kStandingQuery = "Q(x, z) :- E(x, y), E(y, z)";

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  cqa::Database db{cqa::Vocabulary::Graph()};
  std::vector<WireQuery> pool;  ///< what the measured clients send
  std::vector<WireQuery> warm;  ///< what set-up sends once each
  std::vector<Edge> publishes;  ///< publish_mix: the writer's edges
};

Inputs MakeInputs(const RunConfig& config) {
  cqa::Rng rng(config.seed);
  Inputs in;
  if (config.workload == "approx_bounds") {
    // 36 elements of in- and out-degree 4 plus six self-loops: 150 facts.
    // The loops give every clique shape a few answers (the whole clique
    // maps onto a looped vertex), so the checks compare non-empty sets.
    in.db = RegularGraph(36, 4, 6, &rng);
    const std::vector<std::string> shapes = CliqueShapes(&rng);
    for (int s = 0; s < static_cast<int>(shapes.size()); ++s) {
      for (const char* mode : {"bounds", "under", "over"}) {
        in.pool.push_back(WireQuery{shapes[s], mode, s});
      }
      // Exact mode plans under its own cache key, so warming it builds the
      // view without planning any approximate shape.
      in.warm.push_back(WireQuery{shapes[s], "exact", s});
    }
    return in;
  }
  in.db = RandomGraph(160, 1600, 0, &rng);
  in.pool = RowQueryPool();
  in.warm = in.pool;
  if (config.workload == "publish_mix") {
    in.publishes = FreshEdges(
        in.db, static_cast<int>(config.seconds * kPublishPerSecond) + 16, &rng);
  }
  return in;
}

// ---------------------------------------------------- answers and checks

/// Order-sensitive 128-bit digest of answer rows, page by page: two
/// independent 64-bit hashes over every cell's bytes with separators.
struct Digest {
  uint64_t a = 14695981039346656037ULL;
  uint64_t b = 0x9E3779B97F4A7C15ULL;
  long long rows = 0;

  void Mix(unsigned char byte) {
    a = (a ^ byte) * 1099511628211ULL;
    b = (b ^ byte) * 0xff51afd7ed558ccdULL;
    b ^= b >> 29;
  }
  void AddRow(const std::vector<std::string>& row) {
    for (const std::string& cell : row) {
      for (const char c : cell) Mix(static_cast<unsigned char>(c));
      Mix(0x1f);
    }
    Mix(0x1e);
    ++rows;
  }
  void Add(const std::vector<std::vector<std::string>>& rows_in) {
    for (const auto& row : rows_in) AddRow(row);
  }
  bool operator==(const Digest& o) const {
    return a == o.a && b == o.b && rows == o.rows;
  }
};

/// One completed wire query: its pool entry, digests of every page of each
/// side, and the span of database versions (publishes applied) its EVAL
/// may have seen.
struct ReadRecord {
  int query = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  Digest answers;
  Digest over;

  bool operator<(const ReadRecord& o) const {
    const auto key = [](const ReadRecord& r) {
      return std::tie(r.query, r.lo, r.hi, r.answers.a, r.answers.b,
                      r.answers.rows, r.over.a, r.over.b, r.over.rows);
    };
    return key(*this) < key(o);
  }
};

struct Digests {
  Digest answers;
  Digest over;
};

Digests DigestOf(cqa::EvalResponse response, const cqa::Database& db) {
  const cqa::CursorResponse cursors =
      cqa::QueryService::MakeCursors(std::move(response), db);
  const auto digest = [&](const cqa::AnswerCursor& cursor, Digest* out) {
    std::vector<std::string> row;
    for (const cqa::Tuple& t : cursor.rows()) {
      row.clear();
      for (const cqa::Element e : t) row.push_back(db.ElementName(e));
      out->AddRow(row);
    }
  };
  Digests out;
  digest(*cursors.answers, &out.answers);
  if (cursors.over != nullptr) digest(*cursors.over, &out.over);
  return out;
}

cqa::EvalRequest RequestFor(const WireQuery& q, const cqa::Database& db) {
  return cqa::EvalRequest{cqa::MustParseQuery(db.vocab(), q.text), &db,
                          ModeOf(q.mode)};
}

cqa::EvalOptions ReferenceOptions() {
  cqa::EvalOptions options;
  options.num_threads = 2;
  options.cache = std::make_shared<cqa::EvalCache>();
  return options;
}

/// Replays the publishes onto `db` (the initial database) version by
/// version and compares every read with the in-process answers of its
/// query at some version its EVAL may have seen. Returns the reads that
/// match none.
long long CheckReads(const std::set<ReadRecord>& read_set,
                     const std::vector<WireQuery>& pool, cqa::Database* db,
                     const std::vector<Edge>& publishes,
                     const cqa::QueryService& reference) {
  const std::vector<ReadRecord> reads(read_set.begin(), read_set.end());
  std::map<int64_t, std::vector<size_t>> due;  // version -> reads to test
  for (size_t i = 0; i < reads.size(); ++i) {
    for (int64_t k = reads[i].lo; k <= reads[i].hi; ++k) due[k].push_back(i);
  }
  std::vector<char> matched(reads.size(), 0);
  int64_t applied = 0;
  for (const auto& [version, ids] : due) {
    while (applied < version) {
      const Edge& e = publishes[static_cast<size_t>(applied++)];
      db->AddFact(0, {e.first, e.second});
    }
    std::set<int> wanted;
    for (const size_t id : ids) {
      if (!matched[id]) wanted.insert(reads[id].query);
    }
    if (wanted.empty()) continue;
    std::vector<cqa::EvalRequest> requests;
    for (const int q : wanted) requests.push_back(RequestFor(pool[q], *db));
    std::vector<cqa::EvalResponse> responses =
        reference.EvaluateBatch(requests);
    std::map<int, Digests> expected;
    size_t j = 0;
    for (const int q : wanted) {
      expected[q] = DigestOf(std::move(responses[j++]), *db);
    }
    for (const size_t id : ids) {
      if (matched[id]) continue;
      const Digests& want = expected[reads[id].query];
      matched[id] = want.answers == reads[id].answers &&
                    want.over == reads[id].over;
    }
  }
  long long diverged = 0;
  for (const char m : matched) diverged += m ? 0 : 1;
  return diverged;
}

/// approx_bounds: under ⊆ exact ⊆ over for every shape, in each
/// approximate mode, against exact evaluation.
bool CheckSandwich(const Inputs& in, const cqa::QueryService& reference) {
  std::vector<cqa::EvalRequest> requests;
  for (const WireQuery& q : in.warm) requests.push_back(RequestFor(q, in.db));
  for (const WireQuery& q : in.pool) requests.push_back(RequestFor(q, in.db));
  const std::vector<cqa::EvalResponse> r = reference.EvaluateBatch(requests);
  bool ok = true;
  for (size_t i = 0; i < r.size(); ++i) {
    ok = ok && r[i].status == cqa::ResponseStatus::kOk;
  }
  for (size_t i = 0; i < in.pool.size(); ++i) {
    const cqa::AnswerSet& exact =
        r[static_cast<size_t>(in.pool[i].shape)].answers;
    const cqa::EvalResponse& approx = r[in.warm.size() + i];
    switch (approx.mode) {
      case cqa::AnswerMode::kUnderApproximate:
        ok = ok && approx.answers.IsSubsetOf(exact);
        break;
      case cqa::AnswerMode::kOverApproximate:
        ok = ok && exact.IsSubsetOf(approx.answers);
        break;
      default:
        ok = ok && approx.bounds.has_value() && approx.bounds->over_valid &&
             approx.bounds->under.IsSubsetOf(exact) &&
             exact.IsSubsetOf(approx.bounds->over);
        break;
    }
  }
  return ok;
}

// ------------------------------------------------------------ the clients

/// publish_mix: publishes sent and publishes answered, for reads to bound
/// the database version their EVAL saw.
struct PublishClock {
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> completed{0};
};

struct ClientStats {
  std::vector<double> query_ms;
  std::vector<double> first_page_ms;
  std::vector<double> fetch_ms;
  std::vector<double> overhead_ms;  ///< EVAL round trip - plan_ms - eval_ms
  long long attempted = 0;
  long long failed = 0;
  long long retries = 0;  ///< FETCHes refused with cursor_invalidated
  long long evals = 0;
  long long approx_evals = 0;  ///< EVALs answered by an approximate plan
  long long pages = 0;
  long long rows = 0;
  std::map<std::string, long long> errors;
  /// Distinct reads: repeated queries at one version digest alike, so a
  /// set keeps the bookkeeping (and peak RSS) independent of throughput.
  std::set<ReadRecord> reads;
  // Replays (traced windows).
  long long replayed = 0;
  long long replay_responses = 0;
  long long replay_bytes = 0;
  long long replay_approx = 0;
  long long replay_rewrites = 0;
  cqa::EvalStats replay_stats;

  void AddReplay(const Replayer::Outcome& o) {
    ++replayed;
    replay_responses += o.responses;
    replay_bytes += o.response_bytes;
    replay_approx += o.approximate ? 1 : 0;
    replay_rewrites += o.rewrites;
    replay_stats.Add(o.stats);
  }

  /// Adds `o`'s counters and reads; with `samples`, also its latencies.
  void Merge(const ClientStats& o, bool samples) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    if (samples) {
      append(&query_ms, o.query_ms);
      append(&first_page_ms, o.first_page_ms);
      append(&fetch_ms, o.fetch_ms);
      append(&overhead_ms, o.overhead_ms);
    }
    attempted += o.attempted;
    failed += o.failed;
    retries += o.retries;
    evals += o.evals;
    approx_evals += o.approx_evals;
    pages += o.pages;
    rows += o.rows;
    for (const auto& [code, n] : o.errors) errors[code] += n;
    reads.insert(o.reads.begin(), o.reads.end());
    replayed += o.replayed;
    replay_responses += o.replay_responses;
    replay_bytes += o.replay_bytes;
    replay_approx += o.replay_approx;
    replay_rewrites += o.replay_rewrites;
    replay_stats.Add(o.replay_stats);
  }
};

void CountFailure(const cqa::CqaClient& client, ClientStats* st) {
  ++st->failed;
  ++st->errors[client.last_error().code];
}

// FETCHes `first`'s cursor until drained, digesting every page. False on a
// refusal; `invalidated` says whether it was cursor_invalidated (a retry).
bool DrainPages(cqa::CqaClient& client, const cqa::CqaClient::Page& first,
                Digest* digest, ClientStats* st, SpanLog* log,
                bool* invalidated) {
  std::string cursor = first.cursor;
  bool more = first.more;
  while (more) {
    std::optional<cqa::CqaClient::Page> page;
    const Clock::time_point sent = Clock::now();
    {
      SpanLog::Scope span(log, "client.fetch");
      page = client.Fetch(cursor);
    }
    const double ms = MsSince(sent);
    ++st->attempted;
    if (!page.has_value()) {
      if (client.last_error().code == cqa::ErrorCode::kCursorInvalidated) {
        *invalidated = true;
      } else {
        CountFailure(client, st);
      }
      return false;
    }
    st->fetch_ms.push_back(ms);
    ++st->pages;
    digest->Add(page->rows);
    cursor = page->cursor;
    more = page->more;
  }
  return true;
}

// One query: EVAL, then FETCH every page of every side until drained. A
// cursor_invalidated FETCH re-issues the query; its latency runs from the
// first EVAL to the last page.
bool RunQuery(cqa::CqaClient& client, const WireQuery& q, int index,
              const PublishClock* clock, ClientStats* st, SpanLog* log) {
  SpanLog::Scope span(log, "client.query");
  const Clock::time_point start = Clock::now();
  for (;;) {
    ReadRecord read;
    read.query = index;
    if (clock != nullptr) read.lo = clock->completed.load();
    cqa::CqaClient::EvalParams params;
    params.db = kDb;
    params.query = q.text;
    params.mode = q.mode;
    std::optional<cqa::CqaClient::EvalResult> result;
    const Clock::time_point sent = Clock::now();
    {
      SpanLog::Scope eval(log, "client.eval");
      result = client.Eval(params);
    }
    const double round_trip = MsSince(sent);
    if (clock != nullptr) read.hi = clock->started.load();
    ++st->attempted;
    if (!result.has_value()) {
      CountFailure(client, st);
      return false;
    }
    ++st->evals;
    ++st->pages;
    st->approx_evals += result->exact ? 0 : 1;
    st->first_page_ms.push_back(round_trip);
    st->overhead_ms.push_back(round_trip - result->raw.GetNumber("plan_ms") -
                              result->raw.GetNumber("eval_ms"));
    read.answers.Add(result->answers.rows);
    bool invalidated = false;
    bool drained = DrainPages(client, result->answers, &read.answers, st, log,
                              &invalidated);
    if (drained && q.mode == "bounds") {
      read.over.Add(result->over.rows);
      drained = DrainPages(client, result->over, &read.over, st, log,
                           &invalidated);
    }
    if (!drained) {
      if (!invalidated) return false;
      ++st->retries;
      continue;
    }
    st->query_ms.push_back(MsSince(start));
    st->rows += read.answers.rows + read.over.rows;
    st->reads.insert(read);
    return true;
  }
}

// ---------------------------------------------------------- a deployment

cqa::ServerOptions BenchServerOptions() {
  // As cqa_server deploys it, except for an ephemeral port and two
  // evaluation workers (clients + workers + connection threads stay within
  // four cores).
  cqa::ServerOptions options;
  options.port = 0;
  options.eval.num_threads = 2;
  return options;
}

struct Deployment {
  Inputs in;
  std::unique_ptr<cqa::CqaServer> server;
  cqa::CqaClient clients[2];
  std::unique_ptr<cqa::Subscription> standing;  ///< publish_mix only
};

// Data generation, server start and warm-up: the work setup_s times.
std::unique_ptr<Deployment> Deploy(const RunConfig& config) {
  auto d = std::make_unique<Deployment>();
  d->in = MakeInputs(config);
  d->server = std::make_unique<cqa::CqaServer>(BenchServerOptions());
  d->server->AddDatabase(kDb, &d->in.db);
  std::string error;
  if (!d->server->Start(&error)) Die("cannot start the server: " + error);
  for (cqa::CqaClient& client : d->clients) {
    if (!client.Connect("127.0.0.1", d->server->port())) {
      Die("cannot connect: " + client.last_error().message);
    }
  }
  // First touch of every query: builds the index view and the exact plans.
  for (const WireQuery& q : d->in.warm) {
    ClientStats scratch;
    if (!RunQuery(d->clients[0], q, 0, nullptr, &scratch, nullptr)) {
      Die("warm-up query failed: " + q.text);
    }
  }
  if (config.workload == "publish_mix") {
    d->standing = d->server->service().Subscribe(cqa::EvalRequest{
        cqa::MustParseQuery(d->in.db.vocab(), kStandingQuery), &d->in.db,
        cqa::AnswerMode::kExact});
    d->standing->Poll();  // the from-scratch baseline
  }
  return d;
}

// ------------------------------------------------------------- run phases

struct Window {
  ClientStats stats;
  double elapsed_s = 0.0;
};

struct Tracing {
  bool on = false;              ///< this window records spans and replays
  ReplayState* replay = nullptr;
  std::vector<SpanLog>* logs = nullptr;  ///< one per client thread
  std::atomic<int64_t>* next_request = nullptr;
};

// Closed loop: each of `count` clients (starting at d.clients[first]) sends
// its next query, drawn uniformly from the pool, as soon as the previous
// one completes, until `seconds` have passed.
Window ReadLoop(Deployment& d, int first, int count, double seconds,
                const PublishClock* clock, const Tracing& tracing,
                uint64_t salt) {
  std::vector<ClientStats> per(static_cast<size_t>(count));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      cqa::Rng rng(salt * 1000003ULL + 7919ULL * static_cast<uint64_t>(t + 1));
      SpanLog* log = tracing.on ? &(*tracing.logs)[static_cast<size_t>(t)]
                                : nullptr;
      std::optional<Replayer> replayer;
      if (tracing.on) replayer.emplace(tracing.replay);
      const std::vector<WireQuery>& pool = d.in.pool;
      long long completed = 0;
      while (Clock::now() < end) {
        const int q = static_cast<int>(rng.UniformInt(pool.size()));
        if (log != nullptr) log->set_request(tracing.next_request->fetch_add(1));
        const bool ok = RunQuery(d.clients[first + t], pool[q], q, clock,
                                 &per[static_cast<size_t>(t)], log);
        if (ok && replayer.has_value() && completed++ % kReplayEvery == 0) {
          per[static_cast<size_t>(t)].AddReplay(replayer->Replay(pool[q], log));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.elapsed_s = MsSince(start) / 1e3;
  for (const ClientStats& s : per) w.stats.Merge(s, true);
  return w;
}

// approx_bounds' first-sight phase: every pool entry (shape x mode) once,
// in `order`, split over both clients. Traced, every request is replayed.
Window FirstSight(Deployment& d, const std::vector<int>& order,
                  const Tracing& tracing) {
  std::vector<ClientStats> per(2);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      SpanLog* log = tracing.on ? &(*tracing.logs)[static_cast<size_t>(t)]
                                : nullptr;
      std::optional<Replayer> replayer;
      if (tracing.on) replayer.emplace(tracing.replay);
      for (size_t i = next++; i < order.size(); i = next++) {
        const int q = order[i];
        if (log != nullptr) log->set_request(tracing.next_request->fetch_add(1));
        const bool ok = RunQuery(d.clients[t], d.in.pool[q], q, nullptr,
                                 &per[static_cast<size_t>(t)], log);
        if (ok && replayer.has_value()) {
          per[static_cast<size_t>(t)].AddReplay(
              replayer->Replay(d.in.pool[q], log));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.elapsed_s = MsSince(start) / 1e3;
  for (const ClientStats& s : per) w.stats.Merge(s, true);
  return w;
}

struct WriterStats {
  std::vector<double> publish_ms;  ///< from the scheduled send time
  std::vector<double> lag_ms;      ///< actual - scheduled send time
  std::vector<double> poll_ms;
  long long attempted = 0;
  long long failed = 0;
  long long published = 0;
  long long polls = 0;
  long long facts_applied = 0;
  bool diverged = false;  ///< a publish was refused or not new
  std::map<std::string, long long> errors;
};

// publish_mix's writer: an open loop of PUBLISHes at kPublishPerSecond from
// `start` until `end`, each followed by one Poll of the standing query.
// While `traced` is set, spans are recorded; every publish is mirrored
// into the replay database so replays follow the server's growth.
void Writer(Deployment& d, PublishClock* clock, Clock::time_point start,
            Clock::time_point end, const std::atomic<bool>* traced,
            ReplayState* replay, SpanLog* log,
            std::atomic<int64_t>* next_request, WriterStats* ws) {
  for (size_t i = 0; i < d.in.publishes.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / kPublishPerSecond));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    log->set_enabled(traced->load());
    log->set_request(next_request->fetch_add(1));
    const Edge& edge = d.in.publishes[i];
    const Clock::time_point sent = Clock::now();
    ws->lag_ms.push_back(MsBetween(due, sent));
    clock->started.store(static_cast<int64_t>(i) + 1);
    std::optional<bool> inserted;
    {
      SpanLog::Scope span(log, "client.publish");
      inserted = d.clients[0].Publish(kDb, EdgeFact(edge));
    }
    ws->publish_ms.push_back(MsSince(due));
    ++ws->attempted;
    if (!inserted.has_value() || !*inserted) {
      // The reference replays every edge, so a lost or duplicate publish
      // leaves nothing to compare against: stop writing.
      ++ws->failed;
      ++ws->errors[inserted.has_value() ? "not_inserted"
                                        : d.clients[0].last_error().code];
      ws->diverged = true;
      return;
    }
    clock->completed.store(static_cast<int64_t>(i) + 1);
    ++ws->published;
    if (replay != nullptr) replay->Publish(edge, log);
    const Clock::time_point polled = Clock::now();
    cqa::SubscriptionDelta delta;
    {
      SpanLog::Scope span(log, "eval.poll");
      delta = d.standing->Poll();
    }
    ws->poll_ms.push_back(MsSince(polled));
    ++ws->attempted;
    ++ws->polls;
    ws->facts_applied += static_cast<long long>(delta.facts_applied);
    if (delta.status != cqa::ResponseStatus::kOk) {
      ++ws->failed;
      ++ws->errors["poll_" + std::string(cqa::ResponseStatusName(delta.status))];
    }
  }
}

// --------------------------------------------------------------- reports

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void Print(const char* name, double value, const char* unit,
           const std::string& note = "") {
  std::printf("  %-26s %14.6f %-6s %s\n", name, Finite(value), unit,
              note.c_str());
}

std::string TailNote(const std::vector<double>& samples, double q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples, %zu beyond",
                q * 100.0, samples.size(), SamplesBeyond(samples.size(), q));
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double Counter(const cqa::Json& stats, const char* section, const char* key) {
  const cqa::Json* s = stats.Find(section);
  return s != nullptr ? s->GetNumber(key) : 0.0;
}

// Counters over the measured windows: STATS (wire) and EvalCache (in
// process), before and after.
struct Counters {
  cqa::Json stats;
  cqa::EvalCacheStats cache;
};

Counters ReadCounters(Deployment& d) {
  Counters c;
  const std::optional<cqa::Json> stats = d.clients[0].Stats();
  if (!stats.has_value()) Die("STATS failed");
  c.stats = *stats;
  c.cache = d.server->service().serving_cache()->stats();
  return c;
}

double Delta(const Counters& before, const Counters& after,
             const char* section, const char* key) {
  return Counter(after.stats, section, key) -
         Counter(before.stats, section, key);
}

void PrintJson(bool correct, long long attempted, long long failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(),
                Finite(metrics[i].value), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "wire_rows" || name == "approx_bounds" ||
         name == "publish_mix";
}

int RunWorkload(const RunConfig& config) {
  const bool approx = config.workload == "approx_bounds";
  const bool mix = config.workload == "publish_mix";
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  // Set up kSetups times; keep the last deployment.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const Clock::time_point start = Clock::now();
    d = Deploy(config);
    setup_s.push_back(MsSince(start) / 1e3);
  }
  const long long facts_at_start = d->in.db.NumFacts();

  // Traced runs: a replay state warmed like the server, span logs for two
  // readers and the writer.
  const Clock::time_point epoch = Clock::now();
  std::unique_ptr<ReplayState> replay;
  std::vector<SpanLog> logs;
  std::atomic<int64_t> next_request{0};
  if (config.trace) {
    replay = std::make_unique<ReplayState>(d->in.db, BenchServerOptions());
    Replayer warm(replay.get());
    for (const WireQuery& q : d->in.warm) warm.Replay(q, nullptr);
    for (int t = 0; t < 3; ++t) logs.emplace_back(t, true, epoch);
  }
  Tracing untraced;
  Tracing traced{true, replay.get(), &logs, &next_request};

  const Counters before = ReadCounters(*d);

  // ---- measured windows. The end-to-end window runs as kSlices equal
  // slices; traced runs measure the same load untraced, then traced, half
  // the time each, for trace.overhead_frac.
  std::vector<Window> slices;
  Window first_sight;  // approx_bounds only
  Window traced_window;
  WriterStats writer;
  PublishClock clock;
  const double total = config.seconds;
  const auto measure = [&](double seconds, int first, int count,
                           const PublishClock* publishes) {
    const int n = config.trace ? 1 : kSlices;
    for (int i = 0; i < n; ++i) {
      slices.push_back(ReadLoop(*d, first, count, seconds / n, publishes,
                                untraced, config.seed * kSlices + i));
    }
  };
  if (approx) {
    std::vector<int> order(d->in.pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    cqa::Rng rng(config.seed ^ 0x5eedULL);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    first_sight = FirstSight(*d, order, config.trace ? traced : untraced);
    const double rest = std::max(total - first_sight.elapsed_s, total / 2);
    if (config.trace) {
      measure(rest / 2, 0, 2, nullptr);
      traced_window = ReadLoop(*d, 0, 2, rest / 2, nullptr, traced, 0);
    } else {
      measure(rest, 0, 2, nullptr);
    }
  } else if (mix) {
    std::atomic<bool> writer_traced{false};
    SpanLog untraced_log(3, false, epoch);
    SpanLog* writer_log = config.trace ? &logs[2] : &untraced_log;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(total));
    std::thread writer_thread(Writer, std::ref(*d), &clock, start, end,
                              &writer_traced, replay.get(), writer_log,
                              &next_request, &writer);
    if (config.trace) {
      measure(total / 2, 1, 1, &clock);
      writer_traced.store(true);
      traced_window = ReadLoop(*d, 1, 1, total / 2, &clock, traced, 0);
    } else {
      measure(total, 1, 1, &clock);
    }
    writer_thread.join();
  } else if (config.trace) {
    measure(total / 2, 0, 2, nullptr);
    traced_window = ReadLoop(*d, 0, 2, total / 2, nullptr, traced, 0);
  } else {
    measure(total, 0, 2, nullptr);
  }

  const Counters after = ReadCounters(*d);
  Window main;  // the slices together
  for (const Window& w : slices) {
    main.stats.Merge(w.stats, true);
    main.elapsed_s += w.elapsed_s;
  }

  // ---- correctness: every read against the in-process reference.
  ClientStats all;
  all.Merge(first_sight.stats, false);
  all.Merge(main.stats, false);
  all.Merge(traced_window.stats, false);
  const Clock::time_point check_start = Clock::now();
  const cqa::QueryService reference(ReferenceOptions());
  Inputs initial = MakeInputs(config);
  const long long diverged = CheckReads(all.reads, d->in.pool, &initial.db,
                                        d->in.publishes, reference);
  bool correct = diverged == 0 && !writer.diverged;
  if (approx) {
    const bool sandwich = CheckSandwich(d->in, reference);
    if (!sandwich) std::printf("DIVERGENCE: under ⊆ exact ⊆ over violated\n");
    correct = correct && sandwich;
  }
  if (mix) {
    // The standing query, caught up, against a fresh evaluation.
    d->standing->Poll();
    const cqa::EvalResponse fresh = reference.Evaluate(cqa::EvalRequest{
        cqa::MustParseQuery(d->in.db.vocab(), kStandingQuery), &d->in.db,
        cqa::AnswerMode::kExact});
    const bool standing_ok = d->standing->caught_up() &&
                             d->standing->answers() == fresh.answers;
    if (!standing_ok) std::printf("DIVERGENCE: standing query answers\n");
    correct = correct && standing_ok;
  }
  if (diverged > 0) {
    std::printf("DIVERGENCE: %lld of %zu wire reads match no in-process "
                "answer\n",
                diverged, all.reads.size());
  }
  std::printf("  checked %zu reads against in-process evaluation in %.2f s: "
              "%s\n",
              all.reads.size(), MsSince(check_start) / 1e3,
              correct ? "all equal" : "DIVERGED");

  const long long attempted = all.attempted + writer.attempted;
  const long long failed = all.failed + writer.failed;
  for (const auto& [code, n] : all.errors) {
    std::printf("  error %s: %lld\n", code.c_str(), n);
  }
  for (const auto& [code, n] : writer.errors) {
    std::printf("  writer error %s: %lld\n", code.c_str(), n);
  }

  // ---- workload properties.
  const ClientStats& m = main.stats;
  const double completed = static_cast<double>(m.query_ms.size());
  std::set<std::string> distinct;
  for (const WireQuery& q : d->in.pool) distinct.insert(q.mode + " " + q.text);
  const double first_sight_queries =
      static_cast<double>(first_sight.stats.query_ms.size());
  std::printf("workload properties\n");
  Print("rows_per_query", Ratio(static_cast<double>(m.rows), completed),
        "count");
  Print("pages_per_query", Ratio(static_cast<double>(m.pages), completed),
        "count");
  Print("distinct_shapes", static_cast<double>(distinct.size()), "count",
        "shape x mode entries in the pool");
  Print("first_sight_share",
        Ratio(first_sight_queries, first_sight_queries + completed), "ratio",
        "queries on a shape x mode the server had not planned");
  Print("eval.approx_share",
        Ratio(static_cast<double>(all.approx_evals),
              static_cast<double>(all.evals)),
        "ratio");
  Print("facts_published", static_cast<double>(writer.published), "count");
  Print("cursor_retries", static_cast<double>(all.retries), "count");
  Print("db_facts_start", static_cast<double>(facts_at_start), "count");
  Print("db_facts_end", static_cast<double>(d->in.db.NumFacts()), "count");

  std::vector<Metric> metrics;
  if (!config.trace) {
    std::printf("end-to-end\n");
    const double tail = approx ? kApproxQueryTail : kRowQueryTail;
    const auto over_slices = [&](const auto& of) {
      std::vector<double> values;
      for (const Window& w : slices) values.push_back(of(w.stats, w.elapsed_s));
      return Median(values);
    };
    const double failed_frac =
        Ratio(static_cast<double>(failed), static_cast<double>(attempted));
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"req_per_s", over_slices([](const ClientStats& s, double elapsed) {
           return Ratio(static_cast<double>(s.query_ms.size()), elapsed);
         }),
         "1/s"},
        {"query_p50_ms", over_slices([](const ClientStats& s, double) {
           return Median(s.query_ms);
         }),
         "ms"},
        {"query_tail_ms", over_slices([&](const ClientStats& s, double) {
           return Quantile(s.query_ms, tail);
         }),
         "ms"},
        {"first_page_p50_ms", over_slices([](const ClientStats& s, double) {
           return Median(s.first_page_ms);
         }),
         "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    const std::string slice_note =
        "median of " + std::to_string(slices.size()) + " slices";
    for (const Metric& metric : metrics) {
      std::string note = slice_note;
      if (metric.name == "setup_s") {
        note = "median of " + std::to_string(kSetups) + " set-ups";
      } else if (metric.name == "req_per_s") {
        note += ":";
        for (const Window& w : slices) {
          note += " " + std::to_string(static_cast<int>(
                            Ratio(static_cast<double>(w.stats.query_ms.size()),
                                  w.elapsed_s)));
        }
      } else if (metric.name == "query_tail_ms") {
        note += "; " + TailNote(slices.front().stats.query_ms, tail) +
                " in the first";
      } else if (metric.name == "peak_rss_mb") {
        note = "";
      }
      Print(metric.name.c_str(), metric.value, metric.unit.c_str(), note);
    }
    if (!approx) Print("fetch_p50_ms", Median(m.fetch_ms), "ms");
    if (approx) {
      Print("new_shape_p50_ms", Median(first_sight.stats.query_ms), "ms",
            std::to_string(first_sight.stats.query_ms.size()) + " samples");
    }
    if (mix) {
      Print("publish_p50_ms", Median(writer.publish_ms), "ms");
      Print("publish_tail_ms", Quantile(writer.publish_ms, kWriterTail), "ms",
            TailNote(writer.publish_ms, kWriterTail));
      Print("poll_p50_ms", Median(writer.poll_ms), "ms");
      Print("poll_tail_ms", Quantile(writer.poll_ms, kWriterTail), "ms",
            TailNote(writer.poll_ms, kWriterTail));
      Print("writer_lag_ms", Quantile(writer.lag_ms, 0.99), "ms", "p99");
    }
    Print("failed_frac", failed_frac, "ratio",
          std::to_string(failed) + " of " + std::to_string(attempted) +
              " operations");
  } else {
    // ---- per-layer metrics from the traced window's spans and replays.
    std::vector<Span> spans;
    for (const SpanLog& log : logs) {
      spans.insert(spans.end(), log.spans().begin(), log.spans().end());
    }
    if (!WriteSpans(config.spans_path, spans)) {
      Die("cannot write the span file " + config.spans_path);
    }
    const std::map<std::string, LayerTime> layers = SelfTimes(spans);
    std::printf("per-layer self time (%zu spans, written to %s)\n",
                spans.size(), config.spans_path.c_str());
    for (const auto& [name, layer] : layers) {
      std::printf("  %-26s %10lld calls %8lld requests %14.6f ms/request\n",
                  name.c_str(), layer.calls, layer.requests,
                  layer.per_request_ms());
    }
    const auto layer_ms = [&](const char* span) {
      const auto it = layers.find(span);
      return it == layers.end() ? 0.0 : it->second.per_request_ms();
    };
    ClientStats tr;
    tr.Merge(first_sight.stats, true);
    tr.Merge(traced_window.stats, true);
    const Coverage coverage = ReplayCoverage(spans, "client.query", "replay");
    const double untraced_p50 = Median(main.stats.query_ms);
    const double traced_p50 = Median(traced_window.stats.query_ms);
    const double plan_lookups = Delta(before, after, "cache", "plan_hits") +
                                Delta(before, after, "cache", "plan_misses");
    const double view_lookups = Delta(before, after, "cache", "index_hits") +
                                Delta(before, after, "cache", "index_misses");
    const double replayed = static_cast<double>(tr.replayed);
    metrics = {
        {"net.json_parse_ms", layer_ms("net.json_parse"), "ms"},
        {"net.json_dump_ms", layer_ms("net.json_dump"), "ms"},
        {"net.rows_json_ms", layer_ms("net.rows_json"), "ms"},
        {"net.client_rows_ms", layer_ms("net.client_rows"), "ms"},
        {"net.frame_ms", layer_ms("net.frame"), "ms"},
        {"net.resp_bytes",
         Ratio(static_cast<double>(tr.replay_bytes),
               static_cast<double>(tr.replay_responses)),
         "bytes"},
        {"net.admission_ms", layer_ms("net.admission"), "ms"},
        {"net.server_overhead_ms", Median(tr.overhead_ms), "ms"},
        {"net.cursor_retries", static_cast<double>(all.retries), "count"},
        {"cq.parse_ms", layer_ms("cq.parse"), "ms"},
        {"eval.plan_ms", layer_ms("eval.plan"), "ms"},
        {"core.under_synth_ms", layer_ms("core.under_synth"), "ms"},
        {"core.over_synth_ms", layer_ms("core.over_synth"), "ms"},
        {"core.rewrites",
         Ratio(static_cast<double>(tr.replay_rewrites),
               static_cast<double>(tr.replay_approx)),
         "count"},
        {"eval.plan_hit_ratio",
         Ratio(Delta(before, after, "cache", "plan_hits"), plan_lookups),
         "ratio"},
        {"eval.approx_share",
         Ratio(static_cast<double>(all.approx_evals),
               static_cast<double>(all.evals)),
         "ratio"},
        {"data.view_acquire_ms", layer_ms("data.view_acquire"), "ms"},
        {"data.view_hit_ratio",
         Ratio(Delta(before, after, "cache", "index_hits"), view_lookups),
         "ratio"},
        {"data.delta_appends",
         static_cast<double>(after.cache.index_delta_appends -
                             before.cache.index_delta_appends),
         "count"},
        {"data.index_rebuilds",
         static_cast<double>(after.cache.index_rebuilds -
                             before.cache.index_rebuilds),
         "count"},
        {"data.index_bytes", static_cast<double>(after.cache.index_bytes),
         "bytes"},
        {"eval.engine_ms.naive", layer_ms("eval.engine.naive"), "ms"},
        {"eval.engine_ms.yannakakis", layer_ms("eval.engine.yannakakis"),
         "ms"},
        {"eval.engine_ms.treewidth", layer_ms("eval.engine.treewidth"), "ms"},
        {"eval.combine_ms", layer_ms("eval.combine"), "ms"},
        {"eval.nodes",
         Ratio(static_cast<double>(tr.replay_stats.nodes), replayed), "count"},
        {"eval.index_probes",
         Ratio(static_cast<double>(tr.replay_stats.index_probes), replayed),
         "count"},
        {"eval.probe_hit_ratio",
         Ratio(static_cast<double>(tr.replay_stats.index_hits),
               static_cast<double>(tr.replay_stats.index_probes)),
         "ratio"},
        {"eval.service_ms", layer_ms("eval.service"), "ms"},
        {"eval.make_cursors_ms", layer_ms("eval.make_cursors"), "ms"},
        {"eval.page_ms", layer_ms("eval.page"), "ms"},
        {"eval.publish_ms", layer_ms("eval.publish"), "ms"},
        {"eval.poll_ms", layer_ms("eval.poll"), "ms"},
        {"eval.delta_facts_per_tick",
         Ratio(static_cast<double>(writer.facts_applied),
               static_cast<double>(writer.polls)),
         "count"},
        {"eval.stopped_jobs", Delta(before, after, "streaming", "stopped_jobs"),
         "count"},
        {"eval.shed_degraded",
         Delta(before, after, "streaming", "shed_degraded"), "count"},
        {"trace.residual_frac",
         1.0 - Ratio(coverage.covered_ms, coverage.wire_ms), "ratio"},
        {"trace.overhead_frac", Ratio(traced_p50, untraced_p50) - 1.0,
         "ratio"},
    };
    std::printf("per-layer metrics (%lld replayed requests)\n", tr.replayed);
    for (const Metric& metric : metrics) {
      Print(metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    std::printf("  query_p50_ms untraced %.4f, traced %.4f; replay covers "
                "%.4f of %.4f wire ms over %lld requests\n",
                untraced_p50, traced_p50, coverage.covered_ms,
                coverage.wire_ms, coverage.requests);
  }

  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace servebench
