#include "eval/cache.h"

#include <utility>

#include "base/check.h"

namespace cqa {

EvalCache::EvalCache(EvalCacheOptions options) : options_(options) {}

std::shared_ptr<const IndexedDatabase> EvalCache::AcquireIndexed(
    const Database& db, bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_map_.find(db.id());
  if (hit != nullptr) *hit = it != index_map_.end();
  if (it != index_map_.end()) {
    IndexEntry& entry = *it->second;
    if (entry.version != db.version()) {
      // Same database, newer version: it has only gained facts or elements
      // since the view was built, so append the delta (~O(delta)) instead
      // of rebuilding (~O(db)). Safe because no evaluation is in flight on
      // the view once its source mutated (the borrow rule of data/index.h).
      entry.view->CatchUp();
      entry.version = db.version();
      ++stats_.index_delta_appends;
    }
    ++stats_.index_hits;
    index_lru_.splice(index_lru_.begin(), index_lru_, it->second);
  } else {
    ++stats_.index_misses;
    index_lru_.push_front(IndexEntry{db.id(), db.version(),
                                     std::make_shared<IndexedDatabase>(db)});
    index_map_[db.id()] = index_lru_.begin();
  }
  std::shared_ptr<const IndexedDatabase> view = index_lru_.front().view;
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
    index_map_.erase(victim.db_id);
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
  const auto it = index_map_.find(db.id());
  if (it == index_map_.end()) return;
  ++stats_.index_invalidations;
  index_lru_.erase(it->second);
  index_map_.erase(it);
  EnforceIndexBudgetLocked();
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
