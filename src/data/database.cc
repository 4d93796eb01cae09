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
  facts_.resize(vocab_->num_relations());
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

bool Database::AddFact(RelationId rel, Tuple tuple) {
  CQA_CHECK(rel >= 0 && rel < vocab_->num_relations());
  CQA_CHECK(static_cast<int>(tuple.size()) == vocab_->arity(rel));
  for (const Element e : tuple) CQA_CHECK(e >= 0 && e < num_elements_);
  FactKey key{rel, tuple};
  if (!fact_set_.insert(key).second) return false;
  facts_[rel].push_back(std::move(tuple));
  ++version_;
  return true;
}

bool Database::HasFact(RelationId rel, const Tuple& tuple) const {
  return fact_set_.count(FactKey{rel, tuple}) > 0;
}

const std::vector<Tuple>& Database::facts(RelationId rel) const {
  CQA_CHECK(rel >= 0 && rel < vocab_->num_relations());
  return facts_[rel];
}

long long Database::NumFacts() const {
  return static_cast<long long>(fact_set_.size());
}

bool Database::IsContainedIn(const Database& other) const {
  CQA_CHECK(*vocab_ == *other.vocab_);
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    for (const Tuple& t : facts_[r]) {
      if (!other.HasFact(r, t)) return false;
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
  for (const auto& rel_facts : facts_) {
    for (const Tuple& t : rel_facts) {
      for (const Element e : t) active[e] = true;
    }
  }
  return active;
}

Database Database::MapThrough(const std::vector<Element>& image_of,
                              int new_size) const {
  CQA_CHECK(static_cast<int>(image_of.size()) == num_elements_);
  Database out(vocab_, new_size);
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    for (const Tuple& t : facts_[r]) {
      Tuple mapped(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        CQA_CHECK(image_of[t[i]] >= 0 && image_of[t[i]] < new_size);
        mapped[i] = image_of[t[i]];
      }
      out.AddFact(r, std::move(mapped));
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
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    for (const Tuple& t : facts_[r]) {
      bool ok = true;
      Tuple mapped(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        if (map[t[i]] < 0) {
          ok = false;
          break;
        }
        mapped[i] = map[t[i]];
      }
      if (ok) out.AddFact(r, std::move(mapped));
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
  for (RelationId r = 0; r < vocab_->num_relations(); ++r) {
    for (const Tuple& t : other.facts(r)) {
      Tuple shifted(t.size());
      for (size_t i = 0; i < t.size(); ++i) shifted[i] = t[i] + shift;
      AddFact(r, std::move(shifted));
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
