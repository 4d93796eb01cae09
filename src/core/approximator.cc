#include "core/approximator.h"

#include <algorithm>
#include <unordered_map>

#include "base/check.h"
#include "base/hash.h"
#include "cq/tableau.h"
#include "hom/core.h"
#include "hom/homomorphism.h"

namespace cqa {
namespace {

// Cheap isomorphism-invariant fingerprint of a pointed database, used to
// bucket candidates before the (exact) hom-equivalence dedup. Equivalent
// cores are isomorphic, so they always share a fingerprint.
size_t Fingerprint(const PointedDatabase& pdb) {
  const Database& db = pdb.db;
  size_t h = static_cast<size_t>(db.num_elements());
  h = HashCombine(h, pdb.distinguished.size());
  // Per-relation fact counts.
  for (RelationId r = 0; r < db.vocab()->num_relations(); ++r) {
    h = HashCombine(h, db.facts(r).size());
  }
  // Sorted per-element occurrence profiles. Accumulation is additive so the
  // profile is independent of fact enumeration order (isomorphism-invariant).
  std::vector<size_t> profile(db.num_elements(), 0);
  for (RelationId r = 0; r < db.vocab()->num_relations(); ++r) {
    const ColumnStore& facts = db.facts(r);
    for (int i = 0; i < facts.width(); ++i) {
      const size_t weight = HashCombine(static_cast<size_t>(r) + 1,
                                        static_cast<size_t>(i) + 1);
      for (const Element e : facts.Column(i)) profile[e] += weight;
    }
  }
  // Distinguished positions fold in their element profile.
  size_t dist = 0;
  for (const Element e : pdb.distinguished) {
    dist = HashCombine(dist, profile[e]);
  }
  std::sort(profile.begin(), profile.end());
  for (const size_t p : profile) h = HashCombine(h, p);
  return HashCombine(h, dist);
}

struct Pool {
  std::vector<PointedDatabase> members;
  std::unordered_map<size_t, std::vector<int>> buckets;

  // Inserts a (minimized) candidate unless an equivalent member exists.
  void Insert(PointedDatabase core) {
    const size_t fp = Fingerprint(core);
    auto& bucket = buckets[fp];
    for (const int idx : bucket) {
      if (ExistsHomomorphism(members[idx], core) &&
          ExistsHomomorphism(core, members[idx])) {
        return;
      }
    }
    bucket.push_back(static_cast<int>(members.size()));
    members.push_back(std::move(core));
  }
};

}  // namespace

ApproximationResult ComputeApproximations(const ConjunctiveQuery& q,
                                          const QueryClass& cls,
                                          const ApproximationOptions& options) {
  q.Validate();
  const PointedDatabase tableau = ToTableau(q);
  ApproximationResult result;
  result.provably_complete = cls.IsGraphBased();

  Pool pool;
  long long budget = options.candidates.max_candidates;
  auto consume = [&]() {
    ++result.candidates_considered;
    if (budget < 0) return true;
    return result.candidates_considered < budget;
  };

  ForEachQuotientCandidate(tableau, [&](const PointedDatabase& cand) {
    const ConjunctiveQuery cand_query = FromTableau(cand);
    if (cls.Contains(cand_query)) {
      ++result.candidates_in_class;
      pool.Insert(ComputeCore(cand));
    } else if (!cls.IsGraphBased() &&
               options.candidates.augmentation_budget > 0) {
      ForEachAugmentation(
          cand, options.candidates.augmentation_budget,
          [&](const PointedDatabase& aug) {
            if (cls.Contains(FromTableau(aug))) {
              ++result.candidates_in_class;
              pool.Insert(ComputeCore(aug));
            }
            return consume();
          });
    }
    return consume();
  });
  CQA_CHECK(!pool.members.empty());

  // Keep →-minimal tableaux: c survives iff no other member maps strictly
  // into it (T_d -> T_c without T_c -> T_d), i.e., Q_c ⊂ Q_d.
  const int m = static_cast<int>(pool.members.size());
  std::vector<bool> dominated(m, false);
  for (int c = 0; c < m; ++c) {
    for (int d = 0; d < m && !dominated[c]; ++d) {
      if (d == c || dominated[d]) continue;
      if (ExistsHomomorphism(pool.members[d], pool.members[c]) &&
          !ExistsHomomorphism(pool.members[c], pool.members[d])) {
        dominated[c] = true;
      }
    }
  }
  for (int c = 0; c < m; ++c) {
    if (!dominated[c]) {
      result.approximations.push_back(FromTableau(pool.members[c]));
    }
  }
  return result;
}

ConjunctiveQuery ComputeOneApproximation(const ConjunctiveQuery& q,
                                         const QueryClass& cls,
                                         const ApproximationOptions& options) {
  ApproximationResult result = ComputeApproximations(q, cls, options);
  CQA_CHECK(!result.approximations.empty());
  return std::move(result.approximations.front());
}

}  // namespace cqa
