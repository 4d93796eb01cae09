// Relational structures ("databases" in the paper, Section 2): a finite
// universe {0,...,n-1} together with one finite relation per vocabulary
// symbol. Tableaux of conjunctive queries, digraphs, and evaluation inputs
// are all Databases.

#ifndef CQA_DATA_DATABASE_H_
#define CQA_DATA_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "data/vocabulary.h"

namespace cqa {

/// An element of a database universe (dense, non-negative).
using Element = int;

/// A tuple of elements (length = arity of the relation it inhabits).
using Tuple = std::vector<Element>;

/// A finite relational structure over a vocabulary.
///
/// Elements are dense integers `0..num_elements()-1`. Facts are deduplicated;
/// per-relation fact lists preserve insertion order of first occurrence.
class Database {
 public:
  /// An empty database (no elements, no facts) over `vocab`.
  explicit Database(VocabularyPtr vocab);

  /// A database with `num_elements` isolated elements over `vocab`.
  Database(VocabularyPtr vocab, int num_elements);

  const VocabularyPtr& vocab() const { return vocab_; }
  int num_elements() const { return num_elements_; }

  /// Adds a fresh element and returns it.
  Element AddElement();

  /// Adds `k` fresh elements; returns the first of them.
  Element AddElements(int k);

  /// Adds fact `rel(tuple)`. Elements must exist; arity must match.
  /// Duplicate facts are ignored. Returns true if the fact was new.
  bool AddFact(RelationId rel, Tuple tuple);

  /// True if the fact is present.
  bool HasFact(RelationId rel, const Tuple& tuple) const;

  /// All facts of `rel`, in insertion order.
  const std::vector<Tuple>& facts(RelationId rel) const;

  /// Total number of facts across all relations. Wide on purpose: generated
  /// workloads can exceed the int range, and the counters/stats fed from
  /// this value must not overflow.
  long long NumFacts() const;

  /// Process-unique identity, drawn when the database is constructed and
  /// again by every copy or assignment (moves included), but left alone by
  /// AddFact/AddElement. Two live databases never share an id and an id is
  /// never reused, so a cache keyed by id() cannot serve one database's
  /// derived structures for another: neither for a content-equal copy, nor
  /// after `a = b`, nor for a new database at a freed address.
  uint64_t id() const { return id_.value; }

  /// Mutation counter: bumped every time the database gains an element or a
  /// (new) fact; duplicate facts do not bump it. Under one id() the content
  /// only grows, so a structure derived at an older version (an
  /// IndexedDatabase view in an EvalCache) can be caught up by appending
  /// what was added since, instead of being rebuilt.
  uint64_t version() const { return version_; }

  /// True if every relation of this database is a subset of `other`'s
  /// (requires equal vocabularies; element identity is literal).
  bool IsContainedIn(const Database& other) const;

  /// True if same vocabulary, same universe size and identical fact sets.
  bool SameFactsAs(const Database& other) const;

  /// Marks of elements that appear in at least one fact.
  std::vector<bool> ActiveDomain() const;

  /// The homomorphic image of this database under the map `image_of`
  /// (size num_elements(), values in `[0, new_size)`): every fact is mapped
  /// pointwise and deduplicated. Quotients by partitions and images of
  /// homomorphisms are both computed this way.
  Database MapThrough(const std::vector<Element>& image_of,
                      int new_size) const;

  /// The substructure induced by the elements with `keep[e]` true: facts all
  /// of whose elements are kept survive. `old_to_new` (optional out) receives
  /// the relabeling (-1 for dropped elements).
  Database InducedSubstructure(const std::vector<bool>& keep,
                               std::vector<Element>* old_to_new) const;

  /// Restricts to the active domain (paper convention: the universe is the
  /// set of elements occurring in facts). Isolated elements are dropped.
  Database RestrictToActiveDomain(std::vector<Element>* old_to_new) const;

  /// Disjoint union: `other`'s elements are shifted by `num_elements()`.
  /// Returns the shift that was applied to `other`'s element ids.
  int AbsorbDisjoint(const Database& other);

  /// Optional human-readable element names (used by printers). Defaults to
  /// "e<i>" when unset.
  void SetElementName(Element e, std::string name);
  std::string ElementName(Element e) const;

 private:
  struct FactKey {
    RelationId rel;
    Tuple tuple;
    bool operator==(const FactKey& o) const {
      return rel == o.rel && tuple == o.tuple;
    }
  };
  struct FactKeyHash {
    size_t operator()(const FactKey& k) const {
      return HashCombine(static_cast<size_t>(k.rel), HashVector(k.tuple));
    }
  };

  VocabularyPtr vocab_;
  int num_elements_ = 0;
  uint64_t version_ = 0;
  std::vector<std::vector<Tuple>> facts_;
  std::unordered_set<FactKey, FactKeyHash> fact_set_;
  std::vector<std::string> names_;  // may be shorter than num_elements_
  /// The id() slot: draws a fresh value on construction, copy and
  /// assignment, so Database keeps its implicit copy and move operations.
  struct Id {
    uint64_t value = Next();
    Id() = default;
    Id(const Id&) {}
    Id& operator=(const Id&) {
      value = Next();
      return *this;
    }
    static uint64_t Next();
  };
  Id id_;
};

/// A database with a distinguished tuple of elements: the semantic object
/// `(D, ā)` of the paper. Tableaux of non-Boolean CQs are PointedDatabases.
struct PointedDatabase {
  Database db;
  Tuple distinguished;
};

}  // namespace cqa

#endif  // CQA_DATA_DATABASE_H_
