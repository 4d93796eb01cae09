// Unit tests for the relational substrate: vocabularies, databases, text
// serialization, and the synthetic generators.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "base/rng.h"
#include "data/database.h"
#include "data/generators.h"
#include "data/text.h"
#include "data/vocabulary.h"

namespace cqa {
namespace {

TEST(VocabularyTest, AddAndLookup) {
  Vocabulary v;
  const RelationId e = v.AddRelation("E", 2);
  const RelationId r = v.AddRelation("R", 3);
  EXPECT_EQ(v.num_relations(), 2);
  EXPECT_EQ(v.arity(e), 2);
  EXPECT_EQ(v.arity(r), 3);
  EXPECT_EQ(v.name(r), "R");
  EXPECT_EQ(v.FindRelation("E"), e);
  EXPECT_FALSE(v.FindRelation("S").has_value());
  EXPECT_EQ(v.max_arity(), 3);
}

TEST(VocabularyTest, GraphConvenience) {
  const auto g = Vocabulary::Graph();
  EXPECT_EQ(g->num_relations(), 1);
  EXPECT_EQ(g->arity(0), 2);
  EXPECT_EQ(g->name(0), "E");
}

TEST(VocabularyTest, Equality) {
  EXPECT_TRUE(*Vocabulary::Graph() == *Vocabulary::Graph());
  EXPECT_FALSE(*Vocabulary::Graph() == *Vocabulary::Single("R", 3));
}

TEST(DatabaseTest, FactsDeduplicated) {
  Database db(Vocabulary::Graph(), 2);
  EXPECT_TRUE(db.AddFact(0, {0, 1}));
  EXPECT_FALSE(db.AddFact(0, {0, 1}));
  EXPECT_TRUE(db.AddFact(0, {1, 0}));
  EXPECT_EQ(db.NumFacts(), 2);
  EXPECT_TRUE(db.HasFact(0, {0, 1}));
  EXPECT_FALSE(db.HasFact(0, {1, 1}));
}

TEST(DatabaseTest, Containment) {
  Database small(Vocabulary::Graph(), 3);
  small.AddFact(0, {0, 1});
  Database big(Vocabulary::Graph(), 3);
  big.AddFact(0, {0, 1});
  big.AddFact(0, {1, 2});
  EXPECT_TRUE(small.IsContainedIn(big));
  EXPECT_FALSE(big.IsContainedIn(small));
  EXPECT_FALSE(small.SameFactsAs(big));
}

TEST(DatabaseTest, MapThroughQuotient) {
  // Identify the endpoints of a path of length 2: a loop appears.
  Database path(Vocabulary::Graph(), 3);
  path.AddFact(0, {0, 1});
  path.AddFact(0, {1, 2});
  const Database folded = path.MapThrough({0, 1, 0}, 2);
  EXPECT_EQ(folded.num_elements(), 2);
  EXPECT_TRUE(folded.HasFact(0, {0, 1}));
  EXPECT_TRUE(folded.HasFact(0, {1, 0}));
  EXPECT_EQ(folded.NumFacts(), 2);
}

TEST(DatabaseTest, InducedSubstructure) {
  Database db(Vocabulary::Graph(), 3);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {1, 2});
  std::vector<Element> map;
  const Database induced =
      db.InducedSubstructure({true, true, false}, &map);
  EXPECT_EQ(induced.num_elements(), 2);
  EXPECT_EQ(induced.NumFacts(), 1);
  EXPECT_TRUE(induced.HasFact(0, {0, 1}));
  EXPECT_EQ(map[2], -1);
}

TEST(DatabaseTest, ActiveDomainAndRestrict) {
  Database db(Vocabulary::Graph(), 4);
  db.AddFact(0, {0, 2});
  const auto active = db.ActiveDomain();
  EXPECT_TRUE(active[0]);
  EXPECT_FALSE(active[1]);
  EXPECT_TRUE(active[2]);
  const Database restricted = db.RestrictToActiveDomain(nullptr);
  EXPECT_EQ(restricted.num_elements(), 2);
  EXPECT_EQ(restricted.NumFacts(), 1);
}

TEST(DatabaseTest, AbsorbDisjoint) {
  Database a(Vocabulary::Graph(), 2);
  a.AddFact(0, {0, 1});
  Database b(Vocabulary::Graph(), 2);
  b.AddFact(0, {1, 0});
  const int shift = a.AbsorbDisjoint(b);
  EXPECT_EQ(shift, 2);
  EXPECT_EQ(a.num_elements(), 4);
  EXPECT_TRUE(a.HasFact(0, {3, 2}));
  EXPECT_EQ(a.NumFacts(), 2);
}

TEST(DatabaseTest, ElementNames) {
  Database db(Vocabulary::Graph(), 2);
  db.SetElementName(0, "alpha");
  EXPECT_EQ(db.ElementName(0), "alpha");
  EXPECT_EQ(db.ElementName(1), "e1");
}

// The reference semantics of a Database: per relation, a set of tuples
// plus the insertion order of first occurrences.
struct SetOracle {
  explicit SetOracle(int num_relations)
      : sets(num_relations), order(num_relations) {}

  bool Add(RelationId r, const Tuple& t) {
    if (!sets[r].insert(t).second) return false;
    order[r].push_back(t);
    return true;
  }
  long long NumFacts() const {
    long long n = 0;
    for (const auto& s : sets) n += static_cast<long long>(s.size());
    return n;
  }

  std::vector<std::set<Tuple>> sets;
  std::vector<std::vector<Tuple>> order;
};

// Oracle-side IsContainedIn: every relation of `a` is a subset of `b`'s.
bool Contained(const SetOracle& a, const SetOracle& b) {
  for (size_t r = 0; r < a.sets.size(); ++r) {
    if (!std::includes(b.sets[r].begin(), b.sets[r].end(), a.sets[r].begin(),
                       a.sets[r].end())) {
      return false;
    }
  }
  return true;
}

std::vector<Tuple> RowsOf(const Database& db, RelationId r) {
  std::vector<Tuple> rows;
  for (const Tuple& t : db.facts(r)) rows.push_back(t);
  return rows;
}

// Every relation of `db` holds exactly the oracle's tuples, in its order.
void ExpectMatches(const Database& db, const SetOracle& oracle) {
  for (RelationId r = 0; r < db.vocab()->num_relations(); ++r) {
    EXPECT_EQ(RowsOf(db, r), oracle.order[r]) << "relation " << r;
  }
  EXPECT_EQ(db.NumFacts(), oracle.NumFacts());
}

Tuple RandomTuple(int arity, int num_elements, Rng* rng) {
  Tuple t(arity);
  for (Element& e : t) e = static_cast<Element>(rng->UniformInt(num_elements));
  return t;
}

// Differential check of the fact store against SetOracle over a nullary, a
// binary and a ternary relation: thousands of random insertions, most of
// them duplicates, and enough distinct ternary facts to regrow any hashed
// store several times. Checked after every step, then through every
// derived-database operation.
TEST(DatabaseTest, MatchesSetOracle) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId p = vocab->AddRelation("P", 0);
  const RelationId e = vocab->AddRelation("E", 2);
  const RelationId t = vocab->AddRelation("T", 3);
  const VocabularyPtr v = vocab;
  Rng rng(2929);
  Database db(v, 6);
  SetOracle oracle(v->num_relations());
  uint64_t version = db.version();
  for (int step = 0; step < 3000; ++step) {
    if (step % 500 == 499) {  // the universe grows now and then
      db.AddElement();
      ++version;
    }
    const uint64_t pick = rng.UniformInt(100);
    const RelationId r = pick < 4 ? p : pick < 40 ? e : t;
    const Tuple fact = RandomTuple(v->arity(r), db.num_elements(), &rng);
    const bool added = oracle.Add(r, fact);
    ASSERT_EQ(db.AddFact(r, fact), added) << "step " << step;
    if (added) ++version;
    EXPECT_EQ(db.version(), version);
    EXPECT_TRUE(db.HasFact(r, fact));
    const Tuple probe = RandomTuple(v->arity(r), db.num_elements(), &rng);
    EXPECT_EQ(db.HasFact(r, probe), oracle.sets[r].count(probe) > 0);
    EXPECT_EQ(RowsOf(db, r), oracle.order[r]) << "step " << step;
    ASSERT_EQ(db.NumFacts(), oracle.NumFacts());
  }
  ASSERT_EQ(oracle.sets[p].size(), 1u);
  ASSERT_GT(oracle.sets[t].size(), 600u);  // several regrowths
  ExpectMatches(db, oracle);

  const Database copy = db;
  EXPECT_NE(copy.id(), db.id());
  ExpectMatches(copy, oracle);
  EXPECT_TRUE(copy.SameFactsAs(db));

  // MapThrough: pointwise image, deduplicated in first-occurrence order.
  const int n = db.num_elements();
  const int folded_size = 5;
  std::vector<Element> image_of(n);
  for (Element& x : image_of) {
    x = static_cast<Element>(rng.UniformInt(folded_size));
  }
  SetOracle folded(v->num_relations());
  for (RelationId r = 0; r < v->num_relations(); ++r) {
    for (const Tuple& fact : oracle.order[r]) {
      Tuple mapped;
      for (const Element x : fact) mapped.push_back(image_of[x]);
      folded.Add(r, mapped);
    }
  }
  const Database image = db.MapThrough(image_of, folded_size);
  EXPECT_EQ(image.num_elements(), folded_size);
  ExpectMatches(image, folded);

  // InducedSubstructure: facts entirely inside the kept elements, relabeled.
  std::vector<bool> keep(n);
  std::vector<Element> relabel(n, -1);
  int kept = 0;
  for (Element x = 0; x < n; ++x) {
    keep[x] = rng.Bernoulli(0.7);
    if (keep[x]) relabel[x] = kept++;
  }
  SetOracle induced_oracle(v->num_relations());
  for (RelationId r = 0; r < v->num_relations(); ++r) {
    for (const Tuple& fact : oracle.order[r]) {
      Tuple mapped;
      for (const Element x : fact) {
        if (relabel[x] >= 0) mapped.push_back(relabel[x]);
      }
      if (mapped.size() == fact.size()) induced_oracle.Add(r, mapped);
    }
  }
  std::vector<Element> old_to_new;
  const Database induced = db.InducedSubstructure(keep, &old_to_new);
  EXPECT_EQ(induced.num_elements(), kept);
  EXPECT_EQ(old_to_new, relabel);
  ExpectMatches(induced, induced_oracle);

  // AbsorbDisjoint: the other side's facts shifted and appended; the
  // nullary fact both sides hold stays one fact.
  Database absorbed = induced;
  SetOracle absorbed_oracle = induced_oracle;
  const int shift = absorbed.AbsorbDisjoint(image);
  EXPECT_EQ(shift, kept);
  EXPECT_EQ(absorbed.num_elements(), kept + folded_size);
  for (RelationId r = 0; r < v->num_relations(); ++r) {
    for (const Tuple& fact : folded.order[r]) {
      Tuple shifted;
      for (const Element x : fact) shifted.push_back(x + shift);
      absorbed_oracle.Add(r, shifted);
    }
  }
  ExpectMatches(absorbed, absorbed_oracle);

  // IsContainedIn / SameFactsAs: a random sub-database, and the same facts
  // inserted in reverse order.
  Database sub(v, n);
  Database reversed(v, n);
  SetOracle sub_oracle(v->num_relations());
  for (RelationId r = 0; r < v->num_relations(); ++r) {
    for (const Tuple& fact : oracle.order[r]) {
      if (rng.Bernoulli(0.5)) {
        sub.AddFact(r, fact);
        sub_oracle.Add(r, fact);
      }
    }
    for (auto it = oracle.order[r].rbegin(); it != oracle.order[r].rend();
         ++it) {
      reversed.AddFact(r, *it);
    }
  }
  ExpectMatches(sub, sub_oracle);
  EXPECT_TRUE(sub.IsContainedIn(db));
  EXPECT_FALSE(db.IsContainedIn(sub));
  EXPECT_FALSE(sub.SameFactsAs(db));
  EXPECT_TRUE(reversed.SameFactsAs(db));
  EXPECT_TRUE(db.SameFactsAs(reversed));
  EXPECT_TRUE(db.IsContainedIn(reversed));
  EXPECT_EQ(image.IsContainedIn(induced), Contained(folded, induced_oracle));
  EXPECT_EQ(induced.IsContainedIn(image), Contained(induced_oracle, folded));
  EXPECT_TRUE(induced.IsContainedIn(absorbed));
  Database smaller_universe(v, n - 1);
  EXPECT_FALSE(smaller_universe.SameFactsAs(Database(v, n)));
}

// Heap bytes the allocator has handed out, mmapped blocks included (0 when
// an instrumented allocator, such as ASan's, leaves glibc's counters idle).
size_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// A binary fact costs its two values plus a few bytes of dedup table: each
// relation is one column-major RowSet, with no heap tuple per fact (a
// vector of Tuples plus an unordered_set of Tuples took about 173 B).
TEST(DatabaseTest, BytesPerBinaryFact) {
  constexpr int kFacts = 100000;
  const size_t before = HeapBytesInUse();
  std::optional<Database> db(std::in_place, Vocabulary::Graph(), 1000);
  for (int i = 0; i < kFacts; ++i) db->AddFact(0, {i % 1000, i / 1000});
  ASSERT_EQ(db->NumFacts(), kFacts);
  const size_t after = HeapBytesInUse();
  if (after <= before) {
    std::printf("Database: the allocator reports no in-use bytes\n");
    return;
  }
  const double per_fact = static_cast<double>(after - before) / kFacts;
  std::printf("Database: %.1f B per binary fact by the allocator (%d facts)\n",
              per_fact, kFacts);
  EXPECT_LE(per_fact, 24.0);
}

TEST(TextTest, PrintParseRoundTrip) {
  Database db(Vocabulary::Graph(), 3);
  db.SetElementName(0, "a");
  db.SetElementName(1, "b");
  db.SetElementName(2, "c");
  db.AddFact(0, {0, 1});
  db.AddFact(0, {1, 2});
  const std::string text = PrintDatabase(db);
  std::string error;
  const auto parsed = ParseDatabase(Vocabulary::Graph(), text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->SameFactsAs(db));
}

TEST(TextTest, ParseErrors) {
  std::string error;
  EXPECT_FALSE(
      ParseDatabase(Vocabulary::Graph(), "F(a, b)", &error).has_value());
  EXPECT_FALSE(
      ParseDatabase(Vocabulary::Graph(), "E(a)", &error).has_value());
  EXPECT_FALSE(
      ParseDatabase(Vocabulary::Graph(), "E a, b)", &error).has_value());
}

TEST(TextTest, ParseSkipsCommentsAndBlanks) {
  const auto parsed = ParseDatabase(Vocabulary::Graph(),
                                    "# comment\n\nE(a, b)\n", nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->NumFacts(), 1);
}

TEST(GeneratorsTest, RandomDigraphDeterministic) {
  Rng r1(99), r2(99);
  const Database a = RandomDigraphDatabase(20, 0.3, &r1);
  const Database b = RandomDigraphDatabase(20, 0.3, &r2);
  EXPECT_TRUE(a.SameFactsAs(b));
}

TEST(GeneratorsTest, RandomDigraphDensity) {
  Rng rng(123);
  const Database db = RandomDigraphDatabase(50, 0.2, &rng);
  const int max_edges = 50 * 49;
  EXPECT_GT(db.NumFacts(), max_edges / 10);
  EXPECT_LT(db.NumFacts(), max_edges * 3 / 10);
}

TEST(GeneratorsTest, NoLoopsUnlessAllowed) {
  Rng rng(5);
  const Database db = RandomDigraphDatabase(10, 1.0, &rng, false);
  for (const Tuple& t : db.facts(0)) EXPECT_NE(t[0], t[1]);
  Rng rng2(5);
  const Database with_loops = RandomDigraphDatabase(10, 1.0, &rng2, true);
  EXPECT_EQ(with_loops.NumFacts(), 100);
}

TEST(GeneratorsTest, RandomDatabaseArity) {
  Rng rng(7);
  const Database db =
      RandomDatabase(Vocabulary::Single("R", 3), 10, 30, &rng);
  EXPECT_LE(db.NumFacts(), 30);
  EXPECT_GT(db.NumFacts(), 15);
  for (const Tuple& t : db.facts(0)) EXPECT_EQ(t.size(), 3u);
}

TEST(GeneratorsTest, CycleChordContainsCycle) {
  Rng rng(3);
  const Database db = RandomCycleChordDatabase(8, 4, &rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(db.HasFact(0, {i, (i + 1) % 8}));
  }
}

TEST(GeneratorsTest, LayeredIsForwardOnly) {
  Rng rng(17);
  const Database db = LayeredDigraphDatabase(4, 5, 0.5, &rng);
  for (const Tuple& t : db.facts(0)) {
    EXPECT_EQ(t[1] / 5, t[0] / 5 + 1);  // strictly next layer
  }
}

}  // namespace
}  // namespace cqa
