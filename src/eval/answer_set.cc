#include "eval/answer_set.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace cqa {

AnswerSet::AnswerSet(int arity) : rows_(arity) { CQA_CHECK(arity >= 0); }

bool AnswerSet::Insert(std::span<const Element> row) {
  CQA_CHECK(static_cast<int>(row.size()) == arity());
  return rows_.Insert(row);
}

bool AnswerSet::Contains(std::span<const Element> row) const {
  return static_cast<int>(row.size()) == arity() && rows_.Contains(row);
}

void AnswerSet::InsertAll(const AnswerSet& other) {
  other.ForEachRow([this](std::span<const Element> row) { Insert(row); });
}

bool AnswerSet::IsSubsetOf(const AnswerSet& other) const {
  if (arity() != other.arity()) return false;
  bool subset = true;
  ForEachRow([&](std::span<const Element> row) {
    subset = subset && other.Contains(row);
  });
  return subset;
}

bool AnswerSet::operator==(const AnswerSet& other) const {
  return arity() == other.arity() && size() == other.size() &&
         IsSubsetOf(other);
}

AnswerCursor::AnswerCursor(AnswerSet answers, uint64_t db_version)
    : arity_(answers.arity()), db_version_(db_version) {
  // One sort of row ids over the flat columns, then one pass that builds
  // the sorted Tuples. Column-by-column comparison is Tuple's
  // lexicographic order.
  const ColumnStore& flat = answers.rows();
  std::vector<std::span<const Element>> cols;
  for (int j = 0; j < arity_; ++j) cols.push_back(flat.Column(j));
  std::vector<uint32_t> order(flat.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&cols](uint32_t a, uint32_t b) {
    for (const std::span<const Element>& col : cols) {
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });
  rows_.reserve(order.size());
  for (const uint32_t r : order) rows_.push_back(flat.RowTuple(r));
}

std::span<const Tuple> AnswerCursor::Page(size_t offset, size_t limit) const {
  if (offset >= rows_.size()) return {};
  const size_t n = std::min(limit, rows_.size() - offset);
  return std::span<const Tuple>(rows_.data() + offset, n);
}

}  // namespace cqa
