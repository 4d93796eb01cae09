#include "data/column_store.h"

#include <algorithm>

#include "base/hash.h"

namespace cqa {
namespace {

// Vector-header bookkeeping estimate matching data/index.cc's budgeting.
constexpr size_t kVectorOverhead = 24;

size_t NextPow2AtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

bool SpansEqual(std::span<const Element> a, std::span<const Element> b) {
  return std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

size_t ColumnStore::ApproxBytes() const {
  size_t bytes = kVectorOverhead;
  for (const auto& col : cols_) {
    bytes += kVectorOverhead + col.capacity() * sizeof(Element);
  }
  return bytes;
}

void RowSet::Reserve(size_t rows) {
  store_.Reserve(rows);
  const size_t want = NextPow2AtLeast(rows * 2);
  if (want > table_.size()) Rehash(want);
}

void RowSet::Rehash(size_t new_capacity) {
  table_.assign(new_capacity, 0);
  mask_ = new_capacity - 1;
  const int width = store_.width();
  for (size_t id = 0; id < store_.size(); ++id) {
    size_t h = static_cast<size_t>(width);
    for (int j = 0; j < width; ++j) {
      h = HashCombine(h, static_cast<size_t>(store_.at(id, j)));
    }
    size_t i = HashFinalize(h) & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = static_cast<uint32_t>(id) + 1;
  }
}

size_t RowSet::ApproxBytes() const {
  return store_.ApproxBytes() + kVectorOverhead +
         table_.capacity() * sizeof(uint32_t);
}

size_t RowSet::Slot(std::span<const Element> row) const {
  size_t i = HashFinalize(HashSpan(row)) & mask_;
  while (table_[i] != 0 && !store_.RowEquals(table_[i] - 1, row)) {
    i = (i + 1) & mask_;
  }
  return i;
}

bool RowSet::Insert(std::span<const Element> row) {
  if ((store_.size() + 1) * 2 > table_.size()) {
    Rehash(NextPow2AtLeast((store_.size() + 1) * 2));
  }
  const size_t i = Slot(row);
  if (table_[i] != 0) return false;
  table_[i] = static_cast<uint32_t>(store_.size()) + 1;
  store_.AppendRow(row);
  return true;
}

KeyedRowGroups::KeyedRowGroups(std::vector<Element> flat_keys, int key_width,
                               size_t num_rows)
    : key_width_(key_width), num_rows_(num_rows), keys_(std::move(flat_keys)) {
  CQA_CHECK(key_width_ >= 0);
  CQA_CHECK(keys_.size() == num_rows_ * static_cast<size_t>(key_width_));
  std::vector<uint32_t> group_of(num_rows_, 0);
  size_t num_groups = 0;
  if (key_width_ == 0) {
    num_groups = num_rows_ > 0 ? 1 : 0;  // every row carries the empty key
  } else if (num_rows_ > 0) {
    const size_t cap = NextPow2AtLeast(num_rows_ * 2);
    table_.assign(cap, 0);
    mask_ = cap - 1;
    for (uint32_t r = 0; r < num_rows_; ++r) {
      const std::span<const Element> key = KeyOfRow(r);
      size_t i = HashFinalize(HashSpan(key)) & mask_;
      for (;;) {
        if (table_[i] == 0) {
          table_[i] = static_cast<uint32_t>(++num_groups);
          reps_.push_back(r);
          group_of[r] = static_cast<uint32_t>(num_groups - 1);
          break;
        }
        const uint32_t g = table_[i] - 1;
        if (SpansEqual(KeyOfRow(reps_[g]), key)) {
          group_of[r] = g;
          break;
        }
        i = (i + 1) & mask_;
      }
    }
  }
  // Counting sort by group: one pass to size the ranges, one to scatter the
  // ids. Scatter order is row order, so ids stay sorted within each group
  // (the "insertion order" contract of the old hash buckets). Bulk-built
  // groups start exactly full (caps == counts); the first append to a group
  // relocates it.
  counts_.assign(num_groups, 0);
  for (size_t r = 0; r < num_rows_; ++r) ++counts_[group_of[r]];
  offsets_.assign(num_groups, 0);
  for (size_t g = 1; g < num_groups; ++g) {
    offsets_[g] = offsets_[g - 1] + counts_[g - 1];
  }
  caps_ = counts_;
  row_ids_.resize(num_rows_);
  std::vector<uint32_t> cursor(offsets_);
  for (size_t r = 0; r < num_rows_; ++r) {
    row_ids_[cursor[group_of[r]]++] = static_cast<int>(r);
  }
}

void KeyedRowGroups::GrowTable(size_t min_groups) {
  const size_t cap = NextPow2AtLeast(min_groups * 2);
  if (cap <= table_.size()) return;
  table_.assign(cap, 0);
  mask_ = cap - 1;
  for (uint32_t g = 0; g < reps_.size(); ++g) {
    size_t i = HashFinalize(HashSpan(KeyOfRow(reps_[g]))) & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = g + 1;
  }
}

size_t KeyedRowGroups::GroupForKey(uint32_t rep_row) {
  if ((reps_.size() + 1) * 2 > table_.size()) {
    GrowTable(reps_.size() + 1);
  }
  const std::span<const Element> key = KeyOfRow(rep_row);
  size_t i = HashFinalize(HashSpan(key)) & mask_;
  for (;;) {
    if (table_[i] == 0) break;
    const uint32_t g = table_[i] - 1;
    if (SpansEqual(KeyOfRow(reps_[g]), key)) return g;
    i = (i + 1) & mask_;
  }
  const size_t g = reps_.size();
  table_[i] = static_cast<uint32_t>(g) + 1;
  reps_.push_back(rep_row);
  offsets_.push_back(static_cast<uint32_t>(row_ids_.size()));
  counts_.push_back(0);
  caps_.push_back(1);
  row_ids_.resize(row_ids_.size() + 1);
  return g;
}

void KeyedRowGroups::Relocate(size_t g) {
  const size_t new_cap = caps_[g] == 0 ? 1 : caps_[g] * 2;
  const size_t new_off = row_ids_.size();
  row_ids_.resize(new_off + new_cap);
  std::copy_n(row_ids_.begin() + offsets_[g], counts_[g],
              row_ids_.begin() + new_off);
  offsets_[g] = static_cast<uint32_t>(new_off);
  caps_[g] = static_cast<uint32_t>(new_cap);
}

void KeyedRowGroups::AppendRow(std::span<const Element> key, int row_id) {
  CQA_CHECK(key.size() == static_cast<size_t>(key_width_));
  keys_.insert(keys_.end(), key.begin(), key.end());
  const uint32_t row = static_cast<uint32_t>(num_rows_++);
  size_t g;
  if (key_width_ == 0) {
    if (offsets_.empty()) {
      offsets_.push_back(0);
      counts_.push_back(0);
      caps_.push_back(1);
      row_ids_.resize(1);
      reps_.push_back(row);
    }
    g = 0;
  } else {
    g = GroupForKey(row);
  }
  if (counts_[g] == caps_[g]) Relocate(g);
  row_ids_[offsets_[g] + counts_[g]] = row_id;
  ++counts_[g];
}

std::span<const int> KeyedRowGroups::Probe(
    std::span<const Element> key) const {
  CQA_CHECK(key.size() == static_cast<size_t>(key_width_));
  if (num_groups() == 0) return {};
  if (key_width_ == 0) return GroupRows(0);
  size_t i = HashFinalize(HashSpan(key)) & mask_;
  for (;;) {
    if (table_[i] == 0) return {};
    const uint32_t g = table_[i] - 1;
    if (SpansEqual(KeyOfRow(reps_[g]), key)) return GroupRows(g);
    i = (i + 1) & mask_;
  }
}

size_t KeyedRowGroups::ApproxBytes() const {
  return kVectorOverhead + keys_.capacity() * sizeof(Element) +
         row_ids_.capacity() * sizeof(int) +
         (offsets_.capacity() + counts_.capacity() + caps_.capacity() +
          reps_.capacity() + table_.capacity()) *
             sizeof(uint32_t);
}

}  // namespace cqa
