#include "data/database.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "base/check.h"

namespace cqa {

Database::Database(VocabularyPtr vocab) : Database(std::move(vocab), 0) {}

Database::Database(VocabularyPtr vocab, int num_elements)
    : vocab_(std::move(vocab)), num_elements_(num_elements) {
  CQA_CHECK(vocab_ != nullptr);
  CQA_CHECK(num_elements >= 0);
  relations_.reserve(vocab_->num_relations());
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    relations_.emplace_back(vocab_->arity(r));
  }
}

uint64_t Database::Id::Next() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Element Database::AddElement() { return AddElements(1); }

Element Database::AddElements(int k) {
  CQA_CHECK(k >= 0);
  const Element first = num_elements_;
  num_elements_ += k;
  if (k > 0) ++version_;
  return first;
}

bool Database::AddFact(RelationId rel, std::span<const Element> tuple) {
  CQA_CHECK(rel >= 0 && rel < vocab_->num_relations());
  CQA_CHECK(static_cast<int>(tuple.size()) == vocab_->arity(rel));
  for (const Element e : tuple) CQA_CHECK(e >= 0 && e < num_elements_);
  if (!relations_[rel].Insert(tuple)) return false;
  ++version_;
  return true;
}

bool Database::HasFact(RelationId rel, std::span<const Element> tuple) const {
  return rel >= 0 && rel < vocab_->num_relations() &&
         static_cast<int>(tuple.size()) == vocab_->arity(rel) &&
         relations_[rel].Contains(tuple);
}

const ColumnStore& Database::facts(RelationId rel) const {
  CQA_CHECK(rel >= 0 && rel < vocab_->num_relations());
  return relations_[rel].rows();
}

long long Database::NumFacts() const {
  long long total = 0;
  for (const RowSet& rel : relations_) {
    total += static_cast<long long>(rel.size());
  }
  return total;
}

bool Database::IsContainedIn(const Database& other) const {
  CQA_CHECK(*vocab_ == *other.vocab_);
  std::vector<Element> row;
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    const ColumnStore& rows = facts(r);
    row.resize(rows.width());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows.ReadRow(i, row);
      if (!other.relations_[r].Contains(row)) return false;
    }
  }
  return true;
}

bool Database::SameFactsAs(const Database& other) const {
  return num_elements_ == other.num_elements_ &&
         NumFacts() == other.NumFacts() && IsContainedIn(other);
}

std::vector<bool> Database::ActiveDomain() const {
  std::vector<bool> active(num_elements_, false);
  for (const RowSet& rel : relations_) {
    for (int j = 0; j < rel.rows().width(); ++j) {
      for (const Element e : rel.rows().Column(j)) active[e] = true;
    }
  }
  return active;
}

Database Database::MapThrough(const std::vector<Element>& image_of,
                              int new_size) const {
  CQA_CHECK(static_cast<int>(image_of.size()) == num_elements_);
  Database out(vocab_, new_size);
  std::vector<Element> mapped;
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    const ColumnStore& rows = facts(r);
    mapped.resize(rows.width());
    if (!rows.empty()) out.relations_[r].Reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int j = 0; j < rows.width(); ++j) {
        mapped[j] = image_of[rows.at(i, j)];
      }
      out.AddFact(r, mapped);
    }
  }
  return out;
}

Database Database::InducedSubstructure(const std::vector<bool>& keep,
                                       std::vector<Element>* old_to_new) const {
  CQA_CHECK(static_cast<int>(keep.size()) == num_elements_);
  std::vector<Element> map(num_elements_, -1);
  int next = 0;
  for (Element e = 0; e < num_elements_; ++e) {
    if (keep[e]) map[e] = next++;
  }
  Database out(vocab_, next);
  std::vector<Element> mapped;
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    const ColumnStore& rows = facts(r);
    mapped.resize(rows.width());
    for (size_t i = 0; i < rows.size(); ++i) {
      bool ok = true;
      for (int j = 0; j < rows.width() && ok; ++j) {
        mapped[j] = map[rows.at(i, j)];
        ok = mapped[j] >= 0;
      }
      if (ok) out.AddFact(r, mapped);
    }
  }
  for (Element e = 0; e < num_elements_; ++e) {
    if (map[e] >= 0 && e < static_cast<int>(names_.size()) &&
        !names_[e].empty()) {
      out.SetElementName(map[e], names_[e]);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

Database Database::RestrictToActiveDomain(
    std::vector<Element>* old_to_new) const {
  return InducedSubstructure(ActiveDomain(), old_to_new);
}

int Database::AbsorbDisjoint(const Database& other) {
  CQA_CHECK(*vocab_ == *other.vocab_);
  const int shift = num_elements_;
  AddElements(other.num_elements_);
  std::vector<Element> shifted;
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    const ColumnStore& rows = other.facts(r);
    shifted.resize(rows.width());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int j = 0; j < rows.width(); ++j) {
        shifted[j] = rows.at(i, j) + shift;
      }
      AddFact(r, shifted);
    }
  }
  for (Element e = 0; e < other.num_elements_; ++e) {
    if (e < static_cast<int>(other.names_.size()) && !other.names_[e].empty()) {
      SetElementName(e + shift, other.names_[e]);
    }
  }
  return shift;
}

void Database::SetElementName(Element e, std::string name) {
  CQA_CHECK(e >= 0 && e < num_elements_);
  if (static_cast<int>(names_.size()) <= e) names_.resize(e + 1);
  names_[e] = std::move(name);
}

std::string Database::ElementName(Element e) const {
  CQA_CHECK(e >= 0 && e < num_elements_);
  if (e < static_cast<int>(names_.size()) && !names_[e].empty()) {
    return names_[e];
  }
  return "e" + std::to_string(e);
}

}  // namespace cqa
