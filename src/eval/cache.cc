#include "eval/cache.h"

#include <utility>

#include "base/check.h"

namespace cqa {

EvalCache::EvalCache(EvalCacheOptions options) : options_(options) {}

uint64_t EvalCache::FingerprintOfLocked(const Database& db) {
  FingerprintMemo& memo = fp_memo_[&db];
  if (memo.fingerprint == 0 || memo.version != db.version() ||
      memo.num_facts != db.NumFacts() ||
      memo.num_elements != db.num_elements()) {
    memo.version = db.version();
    memo.num_facts = db.NumFacts();
    memo.num_elements = db.num_elements();
    memo.fingerprint = db.Fingerprint();
  }
  return memo.fingerprint;
}

std::shared_ptr<const IndexedDatabase> EvalCache::AcquireIndexed(
    const Database& db, bool* hit) {
  if (hit != nullptr) *hit = false;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t fp = FingerprintOfLocked(db);
  const auto it = index_map_.find(fp);
  if (it != index_map_.end()) {
    IndexEntry& entry = *it->second;
    if (entry.source->version() != entry.source_version) {
      // A content-equal twin landed on an entry whose own source database
      // has since diverged — the twin must not be served the stale view,
      // and catch-up would chase the wrong database. Rebuild from zero
      // (the only remaining full-rebuild path).
      ++stats_.index_invalidations;
      ++stats_.index_rebuilds;
      index_lru_.erase(it->second);
      index_map_.erase(it);
    } else if (entry.num_facts != db.NumFacts() ||
               entry.num_elements != db.num_elements()) {
      // 64-bit fingerprint collision between different contents: serve a
      // correct one-off view, leave the cached entry alone.
      ++stats_.index_misses;
      return std::make_shared<IndexedDatabase>(db, options_.index);
    } else {
      ++stats_.index_hits;
      index_lru_.splice(index_lru_.begin(), index_lru_, it->second);
      if (hit != nullptr) *hit = true;
      EnforceIndexBudgetLocked();
      return index_lru_.front().view;
    }
  } else {
    // Fingerprint miss: if this same database already has a cached view
    // built at an older version, it has merely gained facts — catch the
    // view up by appending the delta (~O(delta)) instead of rebuilding
    // (~O(db)). Safe because the mutation contract (file comment) says no
    // evaluation is in flight on the stale view once the source mutated.
    for (auto lit = index_lru_.begin(); lit != index_lru_.end(); ++lit) {
      IndexEntry& entry = *lit;
      if (entry.source != &db || entry.source_version == db.version()) {
        continue;
      }
      if (entry.num_facts > db.NumFacts() ||
          entry.num_elements > db.num_elements()) {
        break;  // shrank (not possible via AddFact): fall through to rebuild
      }
      entry.view->CatchUp();
      index_map_.erase(entry.fingerprint);
      entry.fingerprint = fp;
      entry.source_version = db.version();
      entry.num_facts = db.NumFacts();
      entry.num_elements = db.num_elements();
      const auto clash = index_map_.find(fp);
      if (clash != index_map_.end()) {
        // A content-equal entry already sits under the new fingerprint;
        // the caught-up view supersedes it (in-flight holders keep the
        // other view alive).
        ++stats_.index_evictions;
        index_lru_.erase(clash->second);
      }
      index_map_[fp] = lit;
      ++stats_.index_hits;
      ++stats_.index_delta_appends;
      index_lru_.splice(index_lru_.begin(), index_lru_, lit);
      if (hit != nullptr) *hit = true;
      EnforceIndexBudgetLocked();
      return index_lru_.front().view;
    }
  }
  ++stats_.index_misses;
  auto view = std::make_shared<IndexedDatabase>(db, options_.index);
  index_lru_.push_front(IndexEntry{fp, &db, db.version(), db.NumFacts(),
                                   db.num_elements(), view});
  index_map_[fp] = index_lru_.begin();
  EnforceIndexBudgetLocked();
  return view;
}

void EvalCache::EnforceIndexBudgetLocked() {
  long long bytes = 0;
  for (const IndexEntry& entry : index_lru_) {
    bytes += entry.view->stats().bytes;
  }
  while (static_cast<size_t>(bytes) > options_.max_index_bytes &&
         index_lru_.size() > 1) {
    const IndexEntry& victim = index_lru_.back();
    bytes -= victim.view->stats().bytes;
    ++stats_.index_evictions;
    index_map_.erase(victim.fingerprint);
    index_lru_.pop_back();
  }
  stats_.index_bytes = bytes;
  stats_.index_entries = static_cast<long long>(index_lru_.size());
}

std::shared_ptr<const PlanDecision> EvalCache::LookupPlan(
    const std::vector<int>& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plan_map_.find(key);
  if (it == plan_map_.end()) {
    ++stats_.plan_misses;
    return nullptr;
  }
  ++stats_.plan_hits;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
  return plan_lru_.front().plan;
}

std::shared_ptr<const PlanDecision> EvalCache::GetOrPlan(
    const std::vector<int>& key, const std::function<PlanDecision()>& plan_fn,
    bool* hit) {
  if (hit != nullptr) *hit = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const auto it = plan_map_.find(key);
      if (it != plan_map_.end()) {
        ++stats_.plan_hits;
        plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
        if (hit != nullptr) *hit = true;
        return plan_lru_.front().plan;
      }
      if (plans_in_flight_.insert(key).second) break;
      plan_cv_.wait(lock);
    }
    ++stats_.plan_misses;
  }
  // This caller holds the claim on `key`: release it after storing the
  // decision, or on a throw so that waiters retry instead of blocking
  // forever.
  const auto release = [&](std::shared_ptr<const PlanDecision> decision) {
    std::lock_guard<std::mutex> lock(mu_);
    if (decision != nullptr) StorePlanLocked(key, std::move(decision));
    plans_in_flight_.erase(key);
    plan_cv_.notify_all();
  };
  std::shared_ptr<const PlanDecision> plan;
  try {
    plan = std::make_shared<const PlanDecision>(plan_fn());
  } catch (...) {
    release(nullptr);
    throw;
  }
  release(plan);
  return plan;
}

void EvalCache::StorePlan(const std::vector<int>& key,
                          std::shared_ptr<const PlanDecision> plan) {
  CQA_CHECK(plan != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  StorePlanLocked(key, std::move(plan));
}

void EvalCache::StorePlanLocked(const std::vector<int>& key,
                                std::shared_ptr<const PlanDecision> plan) {
  const auto it = plan_map_.find(key);
  if (it != plan_map_.end()) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    plan_lru_.front().plan = std::move(plan);
  } else {
    plan_lru_.push_front(PlanEntry{key, std::move(plan)});
    plan_map_[key] = plan_lru_.begin();
  }
  while (plan_lru_.size() > options_.max_plan_entries) {
    ++stats_.plan_evictions;
    plan_map_.erase(plan_lru_.back().key);
    plan_lru_.pop_back();
  }
  stats_.plan_entries = static_cast<long long>(plan_lru_.size());
}

void EvalCache::Invalidate(const Database& db) {
  std::lock_guard<std::mutex> lock(mu_);
  fp_memo_.erase(&db);
  for (auto it = index_lru_.begin(); it != index_lru_.end();) {
    if (it->source == &db) {
      ++stats_.index_invalidations;
      index_map_.erase(it->fingerprint);
      it = index_lru_.erase(it);
    } else {
      ++it;
    }
  }
  EnforceIndexBudgetLocked();
}

void EvalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  fp_memo_.clear();
  index_map_.clear();
  index_lru_.clear();
  plan_map_.clear();
  plan_lru_.clear();
  stats_.index_entries = 0;
  stats_.index_bytes = 0;
  stats_.plan_entries = 0;
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  long long bytes = 0;
  for (const IndexEntry& entry : index_lru_) {
    bytes += entry.view->stats().bytes;
  }
  stats_.index_bytes = bytes;
  stats_.index_entries = static_cast<long long>(index_lru_.size());
  return stats_;
}

}  // namespace cqa
