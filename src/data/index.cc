#include "data/index.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace cqa {
namespace {

// Vector-header bookkeeping estimate for the budget accounting.
constexpr size_t kVectorOverhead = 24;

}  // namespace

BoundMask MaskOfPositions(const std::vector<int>& positions) {
  BoundMask mask = 0;
  for (const int p : positions) {
    CQA_CHECK(p >= 0 && p < 32);
    mask |= BoundMask{1} << p;
  }
  return mask;
}

std::vector<int> PositionsOfMask(BoundMask mask, int arity) {
  CQA_CHECK(arity >= 0 && arity <= 32);
  CQA_CHECK(arity == 32 || (mask >> arity) == 0);
  std::vector<int> positions;
  for (int p = 0; p < arity; ++p) {
    if ((mask >> p) & 1) positions.push_back(p);
  }
  return positions;
}

RelationIndex::RelationIndex(const Database& db, RelationId rel,
                             BoundMask mask)
    : rel_(rel),
      mask_(mask),
      positions_(PositionsOfMask(mask, db.vocab()->arity(rel))),
      groups_(db.facts(rel).FlatKeys(positions_),
              static_cast<int>(positions_.size()), db.facts(rel).size()) {}

size_t RelationIndex::ApproxBytes() const {
  return kVectorOverhead + positions_.capacity() * sizeof(int) +
         groups_.ApproxBytes();
}

size_t RelationIndex::Append(const Database& db) {
  const ColumnStore& facts = db.facts(rel_);
  const size_t from = groups_.num_rows();
  CQA_CHECK(from <= facts.size());
  std::vector<Element> key(positions_.size());
  for (size_t id = from; id < facts.size(); ++id) {
    for (size_t j = 0; j < positions_.size(); ++j) {
      key[j] = facts.at(id, positions_[j]);
    }
    groups_.AppendRow(key, static_cast<int>(id));
  }
  return facts.size() - from;
}

// One cached structure of any kind, as the view's table holds it. A kind
// is built from every fact of its relation, and Append catches it up with
// the facts added since, ~O(delta).
class CachedStructure {
 public:
  CachedStructure() = default;
  CachedStructure(const CachedStructure&) = delete;
  CachedStructure& operator=(const CachedStructure&) = delete;
  virtual ~CachedStructure() = default;
  /// Appends the facts added since the last build or append; returns how
  /// many. Must not run concurrently with readers of the structure.
  virtual size_t Append(const Database& db) = 0;
  virtual size_t ApproxBytes() const = 0;
};

namespace {

// The table key's first field: which kind of structure sits under the key.
enum StructureKind : int { kIndexKind, kProjectionKind, kColumnValuesKind };

struct IndexStructure final : CachedStructure {
  IndexStructure(const Database& db, RelationId rel, BoundMask mask)
      : index(db, rel, mask) {}
  size_t Append(const Database& db) override { return index.Append(db); }
  size_t ApproxBytes() const override { return index.ApproxBytes(); }
  RelationIndex index;
};

// The projection keeps its deduplicating builder alive so that appends
// push new facts through the same repeated-column filter.
struct ProjectionStructure final : CachedStructure {
  ProjectionStructure(const Database& db, RelationId rel,
                      const std::vector<int>& cols, int num_out)
      : rel(rel), out_cols(cols), set(num_out) {
    for (const int col : out_cols) CQA_CHECK(col >= 0 && col < num_out);
    set.Reserve(db.facts(rel).size());
    Append(db);
  }
  size_t Append(const Database& db) override {
    const ColumnStore& facts = db.facts(rel);
    set.InsertProjected(facts, facts_seen, out_cols);
    const size_t appended = facts.size() - facts_seen;
    facts_seen = facts.size();
    return appended;
  }
  size_t ApproxBytes() const override { return set.ApproxBytes(); }
  RelationId rel;
  std::vector<int> out_cols;
  RowSet set;
  size_t facts_seen = 0;
};

struct ColumnValuesStructure final : CachedStructure {
  ColumnValuesStructure(const Database& db, RelationId rel, int pos)
      : rel(rel), pos(pos) {
    Append(db);
    values.shrink_to_fit();  // duplicate-heavy columns: no dead capacity
  }
  // Merges the new facts' values into the sorted-distinct list. Cheap when
  // the delta introduces no new values (pure binary searches); sorts only
  // when it must.
  size_t Append(const Database& db) override {
    const std::span<const Element> column = db.facts(rel).Column(pos);
    std::vector<Element> fresh;
    for (size_t id = facts_seen; id < column.size(); ++id) {
      const Element v = column[id];
      if (!std::binary_search(values.begin(), values.end(), v)) {
        fresh.push_back(v);
      }
    }
    const size_t appended = column.size() - facts_seen;
    facts_seen = column.size();
    if (fresh.empty()) return appended;
    values.insert(values.end(), fresh.begin(), fresh.end());
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return appended;
  }
  size_t ApproxBytes() const override {
    return kVectorOverhead + values.size() * sizeof(Element);
  }
  RelationId rel;
  int pos;
  std::vector<Element> values;
  size_t facts_seen = 0;
};

}  // namespace

IndexedDatabase::IndexedDatabase(const Database& db, IndexOptions options)
    : db_(&db), options_(options) {}

IndexedDatabase::~IndexedDatabase() = default;

template <typename Kind, typename Build>
const Kind* IndexedDatabase::GetOrBuild(std::vector<int> key,
                                        size_t min_bytes, const Build& build,
                                        bool* built) const {
  if (built != nullptr) *built = false;
  // A cached entry: a structure to reuse, or a rejection to repeat.
  const auto cached = [this](const CachedStructure* s) -> const Kind* {
    if (s == nullptr) {
      ++stats_.budget_rejections;
      return nullptr;
    }
    ++stats_.reuses;
    return static_cast<const Kind*>(s);
  };
  const auto over_budget = [this](size_t cost) {
    return static_cast<size_t>(stats_.bytes) + cost > options_.max_bytes;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = structures_.find(key);
    if (it != structures_.end()) return cached(it->second.get());
    if (over_budget(min_bytes)) {
      ++stats_.budget_rejections;
      structures_.emplace(std::move(key), nullptr);
      return nullptr;
    }
  }
  // Build outside the lock: concurrent threads may race to build the same
  // structure (duplicate work, at most once per key), but lookups of other
  // keys never stall behind an O(|facts|) scan.
  std::unique_ptr<Kind> structure = build();
  const size_t cost = structure->ApproxBytes();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = structures_.find(key);
  if (it != structures_.end()) return cached(it->second.get());  // lost race
  if (over_budget(cost)) {
    ++stats_.budget_rejections;
    structures_.emplace(std::move(key), nullptr);
    return nullptr;
  }
  stats_.bytes += static_cast<long long>(cost);
  ++stats_.builds;
  if (built != nullptr) *built = true;
  const Kind* result = structure.get();
  structures_.emplace(std::move(key), std::move(structure));
  return result;
}

const RelationIndex* IndexedDatabase::Index(RelationId rel, BoundMask mask,
                                            bool* built) const {
  CQA_CHECK(rel >= 0 && rel < db_->vocab()->num_relations());
  if (db_->vocab()->arity(rel) > kMaxIndexableArity) {
    if (built != nullptr) *built = false;
    return nullptr;
  }
  // The id slab holds every fact id exactly once.
  const IndexStructure* s = GetOrBuild<IndexStructure>(
      {kIndexKind, rel, static_cast<int>(mask)},
      kVectorOverhead + db_->facts(rel).size() * sizeof(int),
      [&] { return std::make_unique<IndexStructure>(*db_, rel, mask); },
      built);
  return s == nullptr ? nullptr : &s->index;
}

const ColumnStore* IndexedDatabase::ProjectedRows(
    RelationId rel, const std::vector<int>& out_cols, int num_out,
    bool* built) const {
  CQA_CHECK(rel >= 0 && rel < db_->vocab()->num_relations());
  CQA_CHECK(static_cast<int>(out_cols.size()) == db_->vocab()->arity(rel));
  std::vector<int> key = {kProjectionKind, rel, num_out};
  key.insert(key.end(), out_cols.begin(), out_cols.end());
  const ProjectionStructure* s = GetOrBuild<ProjectionStructure>(
      std::move(key), kVectorOverhead,
      [&] {
        return std::make_unique<ProjectionStructure>(*db_, rel, out_cols,
                                                     num_out);
      },
      built);
  return s == nullptr ? nullptr : &s->set.rows();
}

const std::vector<Element>* IndexedDatabase::ColumnValues(RelationId rel,
                                                          int pos,
                                                          bool* built) const {
  CQA_CHECK(rel >= 0 && rel < db_->vocab()->num_relations());
  CQA_CHECK(pos >= 0 && pos < db_->vocab()->arity(rel));
  const ColumnValuesStructure* s = GetOrBuild<ColumnValuesStructure>(
      {kColumnValuesKind, rel, pos}, kVectorOverhead,
      [&] { return std::make_unique<ColumnValuesStructure>(*db_, rel, pos); },
      built);
  return s == nullptr ? nullptr : &s->values;
}

size_t IndexedDatabase::CatchUp() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t appended = 0;
  long long bytes_delta = 0;
  for (auto& [key, structure] : structures_) {
    if (structure == nullptr) continue;  // rejected: stays rejected
    const size_t before = structure->ApproxBytes();
    appended += structure->Append(*db_);
    bytes_delta += static_cast<long long>(structure->ApproxBytes()) -
                   static_cast<long long>(before);
  }
  // Appends may overshoot max_bytes (catching up an existing structure beats
  // throwing the whole view away); the EvalCache layer's budget enforcement
  // re-polls bytes and evicts whole views when the total drifts too high.
  stats_.bytes += bytes_delta;
  stats_.catchup_facts += static_cast<long long>(appended);
  return appended;
}

IndexCacheStats IndexedDatabase::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cqa
