// Columnar tuple storage: the allocation-free backbone of the fact store
// and of the evaluation hot paths.
//
// A `Tuple` (`std::vector<Element>`, one heap block per row) costs an
// allocation, a pointer chase, and ~24 bytes of vector bookkeeping per
// tuple. Stored rows never pay that: every relation of a Database, every
// answer set, index payload and intermediate table lives in the columnar
// layout below, in the MonetDB/X100 tradition:
//
//  - ColumnStore: a fixed-width table stored as one contiguous value slab
//    per column. Rows are identified by dense ids; appending a row writes
//    `width` integers into the slabs and allocates nothing per row.
//    Iterating candidates by row id walks contiguous memory per column
//    (batch/SIMD-friendly), and a width-0 table still counts its rows, so
//    nullary relations and the join-forest DP's nullary seed table work
//    unchanged. Hot loops read `Column`, `at` or `ReadRow` into a reused
//    buffer; range-for over a ColumnStore yields each row as a fresh
//    Tuple, for cold loops (printing, conversions, tests).
//  - RowSet: an incremental deduplicating row builder — an open-addressing
//    hash table over the rows of an internal ColumnStore. Insert(row) is
//    the columnar replacement for `unordered_set<Tuple>`-based dedup, and
//    one RowSet per relation is a Database's whole fact store.
//  - KeyedRowGroups: groups the rows of a table by a fixed-width key into
//    contiguous row-id ranges. Probe(key) is one hash lookup returning a
//    span — no per-key heap nodes, no materialized key tuples. This is the
//    payload layout of RelationIndex buckets and of every transient
//    join/semijoin key table.
//
// All three are value types with no synchronization: build single-threaded,
// then share freely for concurrent reads (probing mutates nothing). Slabs
// are std::vectors, so an append may move them: a span from `Column` is
// valid only until the next append to its table.

#ifndef CQA_DATA_COLUMN_STORE_H_
#define CQA_DATA_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/check.h"

namespace cqa {

/// An element of a database universe (dense, non-negative).
using Element = int;

/// A row as a standalone value: one heap vector of elements (length = the
/// arity of the relation or answer set it came from).
using Tuple = std::vector<Element>;

/// A fixed-width table of Element values stored column-major: column j of
/// row r is `Column(j)[r]`. Append-only; no per-row allocation.
class ColumnStore {
 public:
  ColumnStore() = default;
  explicit ColumnStore(int width) : width_(width), cols_(width) {
    CQA_CHECK(width >= 0);
  }

  /// Row-major convenience constructor (tests, conversions).
  static ColumnStore FromRows(int width, const std::vector<Tuple>& rows) {
    ColumnStore out(width);
    out.Reserve(rows.size());
    for (const Tuple& row : rows) out.AppendRow(row);
    return out;
  }

  int width() const { return width_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  void Reserve(size_t rows) {
    for (auto& col : cols_) col.reserve(rows);
  }

  void AppendRow(std::span<const Element> row) {
    CQA_CHECK(row.size() == static_cast<size_t>(width_));
    for (int j = 0; j < width_; ++j) cols_[j].push_back(row[j]);
    ++num_rows_;
  }

  Element at(size_t row, int col) const { return cols_[col][row]; }

  std::span<const Element> Column(int col) const { return cols_[col]; }

  /// Copies row `row` into `out` (out.size() must be >= width()).
  void ReadRow(size_t row, std::span<Element> out) const {
    for (int j = 0; j < width_; ++j) out[j] = cols_[j][row];
  }

  bool RowEquals(size_t row, std::span<const Element> vals) const {
    for (int j = 0; j < width_; ++j) {
      if (cols_[j][row] != vals[j]) return false;
    }
    return true;
  }

  Tuple RowTuple(size_t row) const {
    Tuple out(width_);
    ReadRow(row, out);
    return out;
  }

  /// Every row's values at columns `cols`, row-major and concatenated: the
  /// flat-key input of a KeyedRowGroups keyed by those columns.
  std::vector<Element> FlatKeys(const std::vector<int>& cols) const;

  /// The sub-table holding exactly `row_ids`, in order. Column-major copy.
  ColumnStore Gather(const std::vector<uint32_t>& row_ids) const {
    ColumnStore out(width_);
    for (int j = 0; j < width_; ++j) {
      out.cols_[j].reserve(row_ids.size());
      const std::vector<Element>& src = cols_[j];
      for (const uint32_t r : row_ids) out.cols_[j].push_back(src[r]);
    }
    out.num_rows_ = row_ids.size();
    return out;
  }

  /// Row-major copy (tests, conversions; not a hot path).
  std::vector<Tuple> ToRows() const {
    return std::vector<Tuple>(begin(), end());
  }

  /// Walks the rows in id order, building each as a Tuple (one heap vector
  /// per step).
  class RowIterator {
   public:
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;

    RowIterator() = default;
    Tuple operator*() const { return store_->RowTuple(row_); }
    RowIterator& operator++() {
      ++row_;
      return *this;
    }
    RowIterator operator++(int) {
      RowIterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const RowIterator& other) const {
      return row_ == other.row_;
    }

   private:
    friend class ColumnStore;
    RowIterator(const ColumnStore* store, size_t row)
        : store_(store), row_(row) {}

    const ColumnStore* store_ = nullptr;
    size_t row_ = 0;
  };

  RowIterator begin() const { return RowIterator(this, 0); }
  RowIterator end() const { return RowIterator(this, num_rows_); }

  /// Rough heap footprint, for cache budgeting.
  size_t ApproxBytes() const;

 private:
  int width_ = 0;
  size_t num_rows_ = 0;  // tracked separately so width-0 tables have rows
  std::vector<std::vector<Element>> cols_;
};

/// Incremental deduplicating row builder: Insert(row) appends the row to an
/// internal ColumnStore iff it was not inserted before. Open addressing over
/// row ids — no per-row hash nodes, no materialized key tuples.
class RowSet {
 public:
  explicit RowSet(int width) : store_(width) {}

  void Reserve(size_t rows);

  /// True iff the row was new (and is now stored).
  bool Insert(std::span<const Element> row);

  /// Inserts rows [from, src.size()) of `src` projected through `out_cols`
  /// (src column i feeds column out_cols[i] of this set), skipping rows
  /// that give one column two different values: the match table of an atom
  /// whose i-th argument is the variable of rank out_cols[i], so E(x, x)
  /// keeps loops only. Every column of this set must be fed by some i.
  void InsertProjected(const ColumnStore& src, size_t from,
                       const std::vector<int>& out_cols);

  /// True iff the row was inserted before.
  bool Contains(std::span<const Element> row) const {
    return !table_.empty() && table_[Slot(row)] != 0;
  }

  const ColumnStore& rows() const { return store_; }
  size_t size() const { return store_.size(); }

  /// Moves the deduplicated table out (the RowSet must not be reused).
  ColumnStore Take() { return std::move(store_); }

  /// Rough heap footprint (store + hash table), for cache budgeting.
  size_t ApproxBytes() const;

 private:
  void Rehash(size_t new_capacity);
  /// The table slot holding `row`, or the empty slot where it would go.
  size_t Slot(std::span<const Element> row) const;

  ColumnStore store_;
  std::vector<uint32_t> table_;  // row id + 1; 0 = empty slot
  size_t mask_ = 0;
};

/// Groups `num_rows` rows by a `key_width`-wide flat key (row r's key is
/// flat_keys[r*key_width .. (r+1)*key_width)) into contiguous row-id ranges.
/// Probe(key) returns the ids of the rows carrying `key`, in insertion
/// order, as a span into one shared id slab — the columnar replacement for
/// `unordered_map<Tuple, std::vector<int>>`.
///
/// Groups are append-friendly: AppendRow(key, id) places one new row in O(1)
/// amortized by giving each group a capacity-doubling range inside the id
/// slab (a full group relocates to the slab's end, leaving its old range
/// dead — bounded by the total number of appends). Probe spans therefore
/// stay contiguous and stable between appends, and the within-group
/// insertion-order contract is preserved. Appending and probing must not
/// overlap across threads (same single-writer contract as the rest of the
/// columnar layer).
class KeyedRowGroups {
 public:
  KeyedRowGroups() = default;
  KeyedRowGroups(std::vector<Element> flat_keys, int key_width,
                 size_t num_rows);

  /// Row ids whose key equals `key` (layout: the flat key); empty span when
  /// no row matches. key_width 0 is legal: every row is in the one group.
  std::span<const int> Probe(std::span<const Element> key) const;

  /// Appends one row with the given key and id (the delta path: one hash
  /// probe, amortized O(1), no rebuild). The key becomes row
  /// `num_rows()`'s key; `row_id` is what Probe/GroupRows will return.
  void AppendRow(std::span<const Element> key, int row_id);

  size_t num_groups() const { return offsets_.size(); }
  size_t num_rows() const { return num_rows_; }

  std::span<const int> GroupRows(size_t g) const {
    return std::span<const int>(row_ids_.data() + offsets_[g], counts_[g]);
  }

  size_t ApproxBytes() const;

 private:
  std::span<const Element> KeyOfRow(uint32_t row) const {
    return std::span<const Element>(
        keys_.data() + static_cast<size_t>(row) * key_width_, key_width_);
  }

  /// Group id for row `rep_row`'s key, creating an empty group (with
  /// `rep_row` as representative, growing the hash table) if the key is new.
  size_t GroupForKey(uint32_t rep_row);
  void GrowTable(size_t min_groups);
  /// Moves group `g` to the end of the id slab with doubled capacity.
  void Relocate(size_t g);

  int key_width_ = 0;
  size_t num_rows_ = 0;
  std::vector<Element> keys_;      // row-major flat keys, one per row
  std::vector<int> row_ids_;       // id slab; each group owns one range
  std::vector<uint32_t> offsets_;  // per group: start of its range
  std::vector<uint32_t> counts_;   // per group: live rows in its range
  std::vector<uint32_t> caps_;     // per group: range capacity
  std::vector<uint32_t> reps_;     // per group: a row carrying the group key
  std::vector<uint32_t> table_;    // open addressing: group id + 1; 0 = empty
  size_t mask_ = 0;
};

}  // namespace cqa

#endif  // CQA_DATA_COLUMN_STORE_H_
