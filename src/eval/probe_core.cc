#include "eval/probe_core.h"

#include <algorithm>

#include "base/check.h"

namespace cqa {

std::vector<ProbeAtom> GreedyProbeOrder(std::vector<ProbeAtom> atoms,
                                        std::vector<bool> bound) {
  std::vector<ProbeAtom> order;
  order.reserve(atoms.size());
  std::vector<bool> used(atoms.size(), false);
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      int score = 0;
      for (const int s : atoms[i].slots) {
        if (bound[s]) ++score;
      }
      if (score > best_score) {
        best = i;
        best_score = score;
      }
    }
    used[best] = true;
    for (const int s : atoms[best].slots) bound[s] = true;
    order.push_back(std::move(atoms[best]));
  }
  return order;
}

ProbeBacktracker::ProbeBacktracker(std::vector<ProbeAtom> atoms,
                                   int num_slots,
                                   const std::vector<bool>& bound_at_entry,
                                   const Database& db,
                                   const IndexedDatabase* idb,
                                   EvalStats* stats, const EvalContext* ctx)
    : db_(&db), idb_(idb), stats_(stats), ctx_(ctx) {
  CQA_CHECK(static_cast<int>(bound_at_entry.size()) == num_slots);
  std::vector<bool> bound = bound_at_entry;
  steps_.reserve(atoms.size());
  size_t max_key = 0;
  for (ProbeAtom& atom : atoms) {
    Step s;
    s.rel = atom.rel;
    s.slots = std::move(atom.slots);
    s.facts = &db_->facts(s.rel);
    // The (relation, bound-set) pair of every depth is fixed by the trial
    // order; only the mask is computed here — the index itself is fetched
    // lazily when the search first reaches the depth.
    if (idb_ != nullptr &&
        static_cast<int>(s.slots.size()) <= kMaxIndexableArity) {
      std::vector<int> positions;
      for (size_t p = 0; p < s.slots.size(); ++p) {
        if (bound[s.slots[p]]) {
          positions.push_back(static_cast<int>(p));
          s.key_slots.push_back(s.slots[p]);
        }
      }
      if (!positions.empty()) s.mask = MaskOfPositions(positions);
    }
    max_key = std::max(max_key, s.key_slots.size());
    for (const int slot : s.slots) bound[slot] = true;
    steps_.push_back(std::move(s));
  }
  key_buf_.resize(max_key);
}

void ProbeBacktracker::FetchIndex(Step* s) {
  s->index_fetched = true;
  if (s->mask == 0) return;
  bool built = false;
  s->index = idb_->Index(s->rel, s->mask, &built);
  if (stats_ != nullptr && built) ++stats_->index_builds;
}

void ProbeBacktracker::FetchColumns(Step* s) {
  s->cols_fetched = true;
  if (idb_ == nullptr) return;  // scan path: keep row-major facts
  const ColumnStore* cols = idb_->FactColumns(s->rel);
  if (cols == nullptr) return;  // over budget: keep row-major facts
  s->cols.reserve(s->slots.size());
  for (size_t p = 0; p < s->slots.size(); ++p) {
    s->cols.push_back(cols->Column(static_cast<int>(p)));
  }
}

const RelationIndex* ProbeBacktracker::EnsureIndex(size_t depth) {
  Step& s = steps_[depth];
  if (!s.index_fetched) FetchIndex(&s);
  return s.index;
}

bool ProbeBacktracker::ProbeExists(std::span<const Element> assignment) {
  Step& s = steps_[0];
  for (size_t i = 0; i < s.key_slots.size(); ++i) {
    key_buf_[i] = assignment[s.key_slots[i]];
  }
  if (stats_ != nullptr) ++stats_->index_probes;
  const std::span<const int> ids = s.index->Probe(
      std::span<const Element>(key_buf_.data(), s.key_slots.size()));
  if (ids.empty()) return false;
  if (stats_ != nullptr) ++stats_->index_hits;
  return true;
}

void ProbeBacktracker::Search(std::vector<Element>* assignment,
                              const LeafFn& leaf) {
  undo_.clear();
  SearchDepth(0, *assignment, leaf);
}

bool ProbeBacktracker::SearchDepth(size_t depth, std::vector<Element>& a,
                                   const LeafFn& leaf) {
  if (stats_ != nullptr) ++stats_->nodes;
  if (ctx_ != nullptr && ctx_->Interrupted()) return false;
  if (depth == steps_.size()) return !leaf(a);
  Step& s = steps_[depth];
  if (!s.index_fetched) FetchIndex(&s);
  if (!s.cols_fetched) FetchColumns(&s);

  // Candidate facts: a bucket probe when an index covers this depth's bound
  // positions, the full fact list otherwise.
  std::span<const int> ids;
  if (s.index != nullptr) {
    for (size_t i = 0; i < s.key_slots.size(); ++i) {
      key_buf_[i] = a[s.key_slots[i]];
    }
    if (stats_ != nullptr) ++stats_->index_probes;
    ids = s.index->Probe(
        std::span<const Element>(key_buf_.data(), s.key_slots.size()));
    if (ids.empty()) return true;  // no fact matches: keep searching siblings
    if (stats_ != nullptr) ++stats_->index_hits;
  }

  const size_t arity = s.slots.size();
  const size_t num_candidates =
      s.index != nullptr ? ids.size() : s.facts->size();
  const size_t undo_mark = undo_.size();
  for (size_t c = 0; c < num_candidates; ++c) {
    const size_t id =
        s.index != nullptr ? static_cast<size_t>(ids[c]) : c;
    // Unify the atom with this fact, recording bindings on the undo stack.
    bool ok = true;
    if (!s.cols.empty()) {
      for (size_t p = 0; p < arity; ++p) {
        const Element value = s.cols[p][id];
        const int slot = s.slots[p];
        if (a[slot] < 0) {
          a[slot] = value;
          undo_.push_back(slot);
        } else if (a[slot] != value) {
          ok = false;
          break;
        }
      }
    } else {
      const Tuple& fact = (*s.facts)[id];
      for (size_t p = 0; p < arity; ++p) {
        const Element value = fact[p];
        const int slot = s.slots[p];
        if (a[slot] < 0) {
          a[slot] = value;
          undo_.push_back(slot);
        } else if (a[slot] != value) {
          ok = false;
          break;
        }
      }
    }
    bool keep_going = true;
    if (ok) keep_going = SearchDepth(depth + 1, a, leaf);
    while (undo_.size() > undo_mark) {
      a[undo_.back()] = -1;
      undo_.pop_back();
    }
    if (!keep_going) return false;
  }
  return true;
}

}  // namespace cqa
