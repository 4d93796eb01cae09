#include "net/admission.h"

#include <algorithm>

#include "base/check.h"

namespace cqa {

TenantAdmission::TenantAdmission(AdmissionOptions options)
    : options_(std::move(options)) {
  const auto now = std::chrono::steady_clock::now();
  auto add = [&](TenantConfig config) {
    // First registration wins, for keys and for names alike: Release and
    // stats() find a tenant by name, so two tenants must never share one.
    if (by_key_.count(config.api_key) > 0 ||
        by_name_.count(config.name) > 0) {
      return;
    }
    if (config.burst <= 0.0 && config.rate_per_sec > 0.0) {
      config.burst = std::max(1.0, config.rate_per_sec);
    }
    Tenant t;
    t.config = std::move(config);
    t.tokens = t.config.burst;  // start full: a fresh tenant may burst
    t.last_refill = now;
    const size_t index = tenants_.size();
    by_name_.emplace(t.config.name, index);
    by_key_.emplace(t.config.api_key, index);
    tenants_.push_back(std::move(t));
  };
  if (options_.allow_anonymous) {
    TenantConfig anon = options_.anonymous_limits;
    anon.api_key.clear();
    anon.name = "anonymous";
    add(std::move(anon));
  }
  for (const TenantConfig& config : options_.tenants) {
    CQA_CHECK(!config.name.empty());
    CQA_CHECK(!config.api_key.empty());
    add(config);
  }
}

TenantAdmission::Tenant* TenantAdmission::FindByKey(std::string_view api_key) {
  const auto it = by_key_.find(api_key);
  return it == by_key_.end() ? nullptr : &tenants_[it->second];
}

TenantAdmission::Result TenantAdmission::Admit(std::string_view api_key) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant* t = FindByKey(api_key);
  if (t == nullptr) {
    return {AdmitCode::kUnknownKey, "", 0.0};
  }
  // Refill the bucket up to its capacity from the elapsed wall time.
  const auto now = std::chrono::steady_clock::now();
  if (t->config.rate_per_sec > 0.0) {
    const double elapsed_s =
        std::chrono::duration<double>(now - t->last_refill).count();
    t->tokens = std::min(t->config.burst,
                         t->tokens + elapsed_s * t->config.rate_per_sec);
    t->last_refill = now;
    if (t->tokens < 1.0) {
      ++t->stats.rate_limited;
      const double retry_ms =
          (1.0 - t->tokens) / t->config.rate_per_sec * 1000.0;
      return {AdmitCode::kRateLimited, t->config.name, retry_ms};
    }
  }
  if (t->config.max_concurrent > 0 &&
      t->stats.in_flight >= t->config.max_concurrent) {
    ++t->stats.busy_rejected;
    return {AdmitCode::kTenantBusy, t->config.name, 0.0};
  }
  if (t->config.rate_per_sec > 0.0) t->tokens -= 1.0;
  ++t->stats.admitted;
  ++t->stats.in_flight;
  return {AdmitCode::kOk, t->config.name, 0.0};
}

void TenantAdmission::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(tenant);
  CQA_CHECK(it != by_name_.end());
  Tenant& t = tenants_[it->second];
  CQA_CHECK(t.stats.in_flight > 0);
  --t.stats.in_flight;
}

std::optional<std::string> TenantAdmission::Authenticate(
    std::string_view api_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_key_.find(api_key);
  if (it == by_key_.end()) return std::nullopt;
  return tenants_[it->second].config.name;
}

std::map<std::string, TenantStats> TenantAdmission::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, TenantStats> out;
  for (const Tenant& t : tenants_) {
    out.emplace(t.config.name, t.stats);
  }
  return out;
}

}  // namespace cqa
