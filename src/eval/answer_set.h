// Answer sets of conjunctive queries: finite sets of tuples over database
// elements. Boolean queries use arity-0 tuples (nonempty set = true).
//
// An AnswerSet is flat: its rows live in a RowSet (data/column_store.h), one
// contiguous value slab per column plus an open-addressing table of row
// ids, so an answer costs its `arity` integers and a few table bytes (21 B
// for a binary row in eval_test's BytesPerBinaryRow, where a hash set of
// heap Tuples costs about 94 B) and inserting one allocates nothing.
// Engines append row spans; Tuple-taking calls remain, and range-for over
// tuples() yields each row as a Tuple, as over a Database's facts(rel).
//
// AnswerCursor is the streaming reading of an AnswerSet: an immutable,
// deterministically ordered snapshot that hands out `limit`-sized pages by
// offset, so a large result can be delivered incrementally (the network
// front end's answer paging, src/net/server.h) instead of as one
// materialized payload. It sorts the flat rows' ids once and materializes
// the sorted rows as Tuples in one pass.

#ifndef CQA_EVAL_ANSWER_SET_H_
#define CQA_EVAL_ANSWER_SET_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "data/column_store.h"
#include "data/database.h"

namespace cqa {

/// A deduplicated set of answer rows of a fixed arity, in insertion order.
class AnswerSet {
 public:
  explicit AnswerSet(int arity);

  int arity() const { return rows_.rows().width(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.size() == 0; }

  /// Sizes the set for `rows` rows, so inserting them does not regrow it.
  void Reserve(size_t rows) { rows_.Reserve(rows); }

  /// Inserts a row; returns true if new. CHECKs the arity.
  bool Insert(std::span<const Element> row);
  bool Insert(std::initializer_list<Element> row) {
    return Insert(std::span<const Element>(row.begin(), row.size()));
  }

  /// Whether the row is in the set (false for a row of another arity).
  bool Contains(std::span<const Element> row) const;
  bool Contains(std::initializer_list<Element> row) const {
    return Contains(std::span<const Element>(row.begin(), row.size()));
  }

  /// Calls `fn(row)` for every row, in insertion order. The span is valid
  /// only during the call.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    std::vector<Element> row(static_cast<size_t>(arity()));
    for (size_t r = 0; r < size(); ++r) {
      rows_.rows().ReadRow(r, row);
      fn(std::span<const Element>(row));
    }
  }

  /// Inserts every row of `other` (same arity): the set union.
  void InsertAll(const AnswerSet& other);

  /// Boolean reading: a Boolean query is true iff the (arity-0) answer set
  /// contains the empty tuple, i.e., is nonempty.
  bool AsBoolean() const { return !empty(); }

  /// Set containment/equality — used to verify soundness of approximations
  /// (Q' ⊆ Q must give Q'(D) ⊆ Q(D) on every D).
  bool IsSubsetOf(const AnswerSet& other) const;
  bool operator==(const AnswerSet& other) const;

  /// The rows, column-major, in insertion order.
  const ColumnStore& rows() const { return rows_.rows(); }

  /// The same rows, for range-for loops that want each one as a Tuple
  /// (ColumnStore's row iteration builds one per step).
  const ColumnStore& tuples() const { return rows(); }

  /// Heap bytes held (row slabs plus the hash table), by capacity.
  size_t ApproxBytes() const { return rows_.ApproxBytes(); }

 private:
  RowSet rows_;
};

/// An immutable paging snapshot of an AnswerSet.
///
/// Construction sorts the rows lexicographically once, so page order is
/// deterministic (independent of insertion history and platform) and an
/// offset is a *resumable* position: the tuple at offset k is the same on
/// every read until the cursor is destroyed. The cursor owns its rows — the
/// source AnswerSet (and the EvalResponse it came from) may be destroyed
/// immediately after construction. The rows are Tuples (about 56 B each for
/// a binary row), because pages are handed out as spans of Tuples.
///
/// Snapshot rule (shared with Subscription::Poll, eval/service.h): a reader
/// observes the database at one version, never a mix. The cursor records
/// the version of the database it was evaluated against (`db_version`); it
/// either finishes on that snapshot — in-process callers just keep paging,
/// the rows are owned — or a serving layer that bounds staleness compares
/// db_version against the live database and refuses further pages with a
/// typed kCursorInvalidated error (src/net/server.h does exactly that after
/// a Publish). What can never happen is a torn page that straddles two
/// database versions.
class AnswerCursor {
 public:
  /// Snapshots `answers` (consuming it) as evaluated at `db_version`.
  AnswerCursor(AnswerSet answers, uint64_t db_version);

  int arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  uint64_t db_version() const { return db_version_; }

  /// The page [offset, offset+limit): up to `limit` rows, in the cursor's
  /// fixed order. An offset at or past the end returns an empty page.
  std::span<const Tuple> Page(size_t offset, size_t limit) const;

  /// True when `offset` is past the last row (the page would be empty).
  bool Exhausted(size_t offset) const { return offset >= rows_.size(); }

  /// All rows in cursor order (the concatenation of all pages).
  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  int arity_;
  uint64_t db_version_;
  std::vector<Tuple> rows_;
};

}  // namespace cqa

#endif  // CQA_EVAL_ANSWER_SET_H_
