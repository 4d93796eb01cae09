#include "hom/homomorphism.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "base/check.h"

namespace cqa {
namespace {

// Dynamic bitset over destination elements, stored flat per variable.
class Solver {
 public:
  Solver(const Database& src, const Database& dst, const HomOptions& options,
         HomStats* stats)
      : src_(src), dst_(dst), options_(options), stats_(stats) {
    n_vars_ = src.num_elements();
    n_vals_ = dst.num_elements();
    words_ = (n_vals_ + 63) / 64;
    if (words_ == 0) words_ = 1;
    dom_.assign(static_cast<size_t>(n_vars_) * words_, 0);
    var_constraints_.assign(n_vars_, {});
    BuildConstraints();
  }

  std::optional<std::vector<Element>> Solve() {
    if (n_vars_ == 0) return std::vector<Element>{};
    if (n_vals_ == 0) return std::nullopt;
    if (!Prepare()) return std::nullopt;
    if (Dfs()) {
      std::vector<Element> image(n_vars_);
      for (int v = 0; v < n_vars_; ++v) image[v] = SingleValue(v);
      return image;
    }
    return std::nullopt;
  }

  /// Enumerates all solutions; returns true iff the enumeration completed
  /// (visit never returned false, budget never tripped).
  bool Enumerate(
      const std::function<bool(const std::vector<Element>&)>& visit) {
    if (n_vars_ == 0) return visit({});  // the unique empty homomorphism
    if (n_vals_ == 0) return true;       // no homomorphisms at all
    if (!Prepare()) return true;         // empty solution set
    enum_visit_ = &visit;
    enum_stopped_ = false;
    DfsEnum();
    enum_visit_ = nullptr;
    return !enum_stopped_;
  }

 private:
  bool Prepare() {
    InitDomains();
    for (const auto& [s, d] : options_.fixed) {
      CQA_CHECK(s >= 0 && s < n_vars_);
      CQA_CHECK(d >= 0 && d < n_vals_);
      if (!NarrowToSingle(s, d)) return false;
    }
    for (int c = 0; c < static_cast<int>(constraints_.size()); ++c) {
      Enqueue(c);
    }
    return Propagate();
  }

  // Exhaustive DFS: visits every solution; sets enum_stopped_ when the
  // callback asks to stop or the node budget trips.
  void DfsEnum() {
    if (enum_stopped_) return;
    if (stats_ != nullptr) {
      ++stats_->nodes;
      if (options_.max_nodes >= 0 && stats_->nodes > options_.max_nodes) {
        stats_->aborted = true;
        enum_stopped_ = true;
        return;
      }
    } else if (options_.max_nodes >= 0 &&
               ++local_nodes_ > options_.max_nodes) {
      enum_stopped_ = true;
      return;
    }
    int best = -1;
    int best_count = 0;
    for (int v = 0; v < n_vars_; ++v) {
      const int count = Popcount(v);
      if (count == 0) return;
      if (count > 1 && (best < 0 || count < best_count)) {
        best = v;
        best_count = count;
      }
    }
    if (best < 0) {
      std::vector<Element> image(n_vars_);
      for (int v = 0; v < n_vars_; ++v) image[v] = SingleValue(v);
      if (!(*enum_visit_)(image)) enum_stopped_ = true;
      return;
    }
    std::vector<Element> values;
    values.reserve(best_count);
    const uint64_t* d = Dom(best);
    for (int w = 0; w < words_; ++w) {
      uint64_t bits = d[w];
      while (bits != 0) {
        values.push_back(w * 64 + __builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
    for (const Element e : values) {
      if (enum_stopped_) return;
      const size_t mark = trail_.size();
      CQA_CHECK(NarrowToSingle(best, e));
      if (Propagate()) DfsEnum();
      Undo(mark);
    }
  }

 public:

 private:
  struct Constraint {
    RelationId rel;
    std::vector<int> vars;  // source elements, per position
  };

  void BuildConstraints() {
    for (RelationId r = 0; r < src_.vocab()->num_relations(); ++r) {
      const ColumnStore& facts = src_.facts(r);
      for (size_t row = 0; row < facts.size(); ++row) {
        Constraint c;
        c.rel = r;
        c.vars.resize(facts.width());
        facts.ReadRow(row, c.vars);
        const int idx = static_cast<int>(constraints_.size());
        for (const int v : c.vars) {
          auto& list = var_constraints_[v];
          if (list.empty() || list.back() != idx) list.push_back(idx);
        }
        constraints_.push_back(std::move(c));
      }
    }
    in_queue_.assign(constraints_.size(), false);
  }

  uint64_t* Dom(int v) { return dom_.data() + static_cast<size_t>(v) * words_; }
  const uint64_t* Dom(int v) const {
    return dom_.data() + static_cast<size_t>(v) * words_;
  }

  void InitDomains() {
    // All values allowed, minus the image restriction.
    for (int v = 0; v < n_vars_; ++v) {
      uint64_t* d = Dom(v);
      for (int w = 0; w < words_; ++w) d[w] = ~uint64_t{0};
      // Mask off the tail beyond n_vals_.
      const int tail = n_vals_ % 64;
      if (tail != 0) d[words_ - 1] = (uint64_t{1} << tail) - 1;
      if (n_vals_ <= 64 * (words_ - 1)) d[words_ - 1] = 0;
    }
    if (!options_.allowed_image.empty()) {
      CQA_CHECK(static_cast<int>(options_.allowed_image.size()) == n_vals_);
      for (int v = 0; v < n_vars_; ++v) {
        uint64_t* d = Dom(v);
        for (int e = 0; e < n_vals_; ++e) {
          if (!options_.allowed_image[e]) {
            d[e / 64] &= ~(uint64_t{1} << (e % 64));
          }
        }
      }
    }
  }

  int Popcount(int v) const {
    const uint64_t* d = Dom(v);
    int total = 0;
    for (int w = 0; w < words_; ++w) total += __builtin_popcountll(d[w]);
    return total;
  }

  bool Empty(int v) const {
    const uint64_t* d = Dom(v);
    for (int w = 0; w < words_; ++w) {
      if (d[w] != 0) return false;
    }
    return true;
  }

  Element SingleValue(int v) const {
    const uint64_t* d = Dom(v);
    for (int w = 0; w < words_; ++w) {
      if (d[w] != 0) return w * 64 + __builtin_ctzll(d[w]);
    }
    CQA_CHECK(false);
    return -1;
  }

  bool Has(int v, Element e) const {
    return (Dom(v)[e / 64] >> (e % 64)) & 1;
  }

  void SetWord(int v, int w, uint64_t value) {
    uint64_t* d = Dom(v);
    if (d[w] == value) return;
    trail_.push_back({v, w, d[w]});
    d[w] = value;
  }

  bool NarrowToSingle(int v, Element e) {
    if (!Has(v, e)) return false;
    for (int w = 0; w < words_; ++w) {
      const uint64_t keep = (w == e / 64) ? (uint64_t{1} << (e % 64)) : 0;
      SetWord(v, w, Dom(v)[w] & keep);
    }
    EnqueueVar(v);
    return true;
  }

  void Enqueue(int c) {
    if (!in_queue_[c]) {
      in_queue_[c] = true;
      queue_.push_back(c);
    }
  }

  void EnqueueVar(int v) {
    for (const int c : var_constraints_[v]) Enqueue(c);
  }

  // Generalized arc consistency for a single table constraint: recompute,
  // for every position, the set of supported values, and intersect.
  bool Revise(const Constraint& c) {
    const ColumnStore& facts = dst_.facts(c.rel);
    const int arity = static_cast<int>(c.vars.size());
    scratch_.assign(static_cast<size_t>(arity) * words_, 0);
    for (size_t row = 0; row < facts.size(); ++row) {
      bool supported = true;
      for (int i = 0; i < arity; ++i) {
        if (!Has(c.vars[i], facts.at(row, i))) {
          supported = false;
          break;
        }
      }
      if (!supported) continue;
      for (int i = 0; i < arity; ++i) {
        const Element e = facts.at(row, i);
        scratch_[static_cast<size_t>(i) * words_ + e / 64] |=
            uint64_t{1} << (e % 64);
      }
    }
    for (int i = 0; i < arity; ++i) {
      const int v = c.vars[i];
      bool changed = false;
      for (int w = 0; w < words_; ++w) {
        const uint64_t next =
            Dom(v)[w] & scratch_[static_cast<size_t>(i) * words_ + w];
        if (next != Dom(v)[w]) {
          SetWord(v, w, next);
          changed = true;
        }
      }
      if (changed) {
        if (Empty(v)) return false;
        EnqueueVar(v);
      }
    }
    return true;
  }

  bool Propagate() {
    while (!queue_.empty()) {
      const int c = queue_.front();
      queue_.pop_front();
      in_queue_[c] = false;
      if (!Revise(constraints_[c])) {
        // Flush the queue so the next propagation starts clean.
        while (!queue_.empty()) {
          in_queue_[queue_.front()] = false;
          queue_.pop_front();
        }
        return false;
      }
    }
    return true;
  }

  bool Dfs() {
    if (stats_ != nullptr) {
      ++stats_->nodes;
      if (options_.max_nodes >= 0 && stats_->nodes > options_.max_nodes) {
        stats_->aborted = true;
        return false;
      }
    } else if (options_.max_nodes >= 0) {
      ++local_nodes_;
      if (local_nodes_ > options_.max_nodes) return false;
    }
    // MRV: smallest domain among vars with > 1 value. A variable with an
    // empty domain (possible from image restrictions that never trigger a
    // revision) is an immediate failure.
    int best = -1;
    int best_count = 0;
    for (int v = 0; v < n_vars_; ++v) {
      const int count = Popcount(v);
      if (count == 0) return false;
      if (count > 1 && (best < 0 || count < best_count)) {
        best = v;
        best_count = count;
      }
    }
    if (best < 0) return true;  // all singletons; GAC ensures consistency
    // Iterate values of `best`.
    std::vector<Element> values;
    values.reserve(best_count);
    const uint64_t* d = Dom(best);
    for (int w = 0; w < words_; ++w) {
      uint64_t bits = d[w];
      while (bits != 0) {
        values.push_back(w * 64 + __builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
    for (const Element e : values) {
      const size_t mark = trail_.size();
      CQA_CHECK(NarrowToSingle(best, e));
      if (Propagate() && Dfs()) return true;
      Undo(mark);
      if (stats_ != nullptr && stats_->aborted) return false;
      if (stats_ == nullptr && options_.max_nodes >= 0 &&
          local_nodes_ > options_.max_nodes) {
        return false;
      }
    }
    return false;
  }

  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      const auto& [v, w, value] = trail_.back();
      Dom(v)[w] = value;
      trail_.pop_back();
    }
  }

  const Database& src_;
  const Database& dst_;
  const HomOptions& options_;
  HomStats* stats_;
  int n_vars_ = 0;
  int n_vals_ = 0;
  int words_ = 0;
  std::vector<uint64_t> dom_;
  std::vector<Constraint> constraints_;
  std::vector<std::vector<int>> var_constraints_;
  std::deque<int> queue_;
  std::vector<bool> in_queue_;
  std::vector<std::tuple<int, int, uint64_t>> trail_;
  std::vector<uint64_t> scratch_;
  long long local_nodes_ = 0;
  const std::function<bool(const std::vector<Element>&)>* enum_visit_ =
      nullptr;
  bool enum_stopped_ = false;
};

}  // namespace

std::optional<std::vector<Element>> FindHomomorphism(const Database& src,
                                                     const Database& dst,
                                                     const HomOptions& options,
                                                     HomStats* stats) {
  CQA_CHECK(*src.vocab() == *dst.vocab());
  Solver solver(src, dst, options, stats);
  return solver.Solve();
}

bool ExistsHomomorphism(const Database& src, const Database& dst,
                        const HomOptions& options, HomStats* stats) {
  return FindHomomorphism(src, dst, options, stats).has_value();
}

std::optional<std::vector<Element>> FindHomomorphism(
    const PointedDatabase& src, const PointedDatabase& dst,
    const HomOptions& options, HomStats* stats) {
  CQA_CHECK(src.distinguished.size() == dst.distinguished.size());
  HomOptions with_fixed = options;
  for (size_t i = 0; i < src.distinguished.size(); ++i) {
    with_fixed.fixed.emplace_back(src.distinguished[i], dst.distinguished[i]);
  }
  return FindHomomorphism(src.db, dst.db, with_fixed, stats);
}

bool ExistsHomomorphism(const PointedDatabase& src, const PointedDatabase& dst,
                        const HomOptions& options, HomStats* stats) {
  return FindHomomorphism(src, dst, options, stats).has_value();
}

bool ExistsDigraphHom(const Digraph& g, const Digraph& h,
                      const HomOptions& options, HomStats* stats) {
  return ExistsHomomorphism(g.ToDatabase(), h.ToDatabase(), options, stats);
}

bool ForEachHomomorphism(
    const Database& src, const Database& dst, const HomOptions& options,
    const std::function<bool(const std::vector<Element>&)>& visit) {
  CQA_CHECK(*src.vocab() == *dst.vocab());
  Solver solver(src, dst, options, nullptr);
  return solver.Enumerate(visit);
}

long long CountHomomorphisms(const Database& src, const Database& dst,
                             const HomOptions& options) {
  long long count = 0;
  ForEachHomomorphism(src, dst, options,
                      [&](const std::vector<Element>&) {
                        ++count;
                        return true;
                      });
  return count;
}

bool ExistsHomToProperSubstructure(const Database& src, const Database& dst,
                                   const HomOptions& options) {
  for (Element banned = 0; banned < dst.num_elements(); ++banned) {
    HomOptions restricted = options;
    if (restricted.allowed_image.empty()) {
      restricted.allowed_image.assign(dst.num_elements(), true);
    }
    restricted.allowed_image[banned] = false;
    if (ExistsHomomorphism(src, dst, restricted)) return true;
  }
  return false;
}

}  // namespace cqa
