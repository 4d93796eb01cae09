// Per-tenant admission control for the network front end: an API key on the
// request envelope maps to a tenant, and each tenant gets a token-bucket
// rate limit plus a concurrent-request cap. This layer sits *in front of*
// the QueryService's own queue shedding (EvalOptions::max_queue /
// degrade_queue): admission protects tenants from each other (one noisy
// tenant is throttled before it can fill the shared queue), while the queue
// thresholds protect the process as a whole — a request must pass both, and
// each refusal surfaces as its own typed wire error (rate_limited /
// tenant_busy vs queue_full).
//
// Thread-safe: Admit/Release are called concurrently from every connection
// thread.

#ifndef CQA_NET_ADMISSION_H_
#define CQA_NET_ADMISSION_H_

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cqa {

/// One tenant's identity and budgets.
struct TenantConfig {
  /// The API key presented on the wire ("api_key" envelope field). Empty
  /// identifies the anonymous tenant (see AdmissionOptions).
  std::string api_key;
  /// Display name, used in stats and error messages; unique among the
  /// registered tenants (see AdmissionOptions::tenants).
  std::string name;
  /// Sustained request rate (requests/second) of the token bucket; 0 (or
  /// negative) = unlimited.
  double rate_per_sec = 0.0;
  /// Bucket capacity (maximum burst). Defaults to max(1, rate_per_sec)
  /// when 0 and a rate is set.
  double burst = 0.0;
  /// Concurrently executing requests allowed; 0 = unlimited.
  int max_concurrent = 0;
};

struct AdmissionOptions {
  /// Registered tenants, looked up by api_key. Keys and names are both
  /// unique: a tenant whose key or name an earlier registration already
  /// holds is dropped (first registration wins), so its key is refused as
  /// unknown. With allow_anonymous, the anonymous tenant registers first,
  /// under the name "anonymous".
  std::vector<TenantConfig> tenants;
  /// When true, requests without an api_key run as the tenant "anonymous"
  /// with `anonymous_limits` (its api_key/name fields are ignored). When
  /// false, keyless requests are refused as unauthenticated.
  bool allow_anonymous = true;
  /// Budgets of the anonymous tenant (default: unlimited).
  TenantConfig anonymous_limits;
};

/// Why a request was (or was not) admitted.
enum class AdmitCode {
  kOk,
  kUnknownKey,    ///< api_key matches no tenant (wire: "unauthenticated")
  kRateLimited,   ///< token bucket empty (wire: "rate_limited")
  kTenantBusy,    ///< concurrent-request cap reached (wire: "tenant_busy")
};

/// Per-tenant cumulative counters (snapshot via TenantAdmission::stats).
struct TenantStats {
  long long admitted = 0;
  long long rate_limited = 0;
  long long busy_rejected = 0;
  long long in_flight = 0;  ///< currently admitted, not yet released
};

class TenantAdmission {
 public:
  explicit TenantAdmission(AdmissionOptions options);

  struct Result {
    AdmitCode code = AdmitCode::kOk;
    /// The admitted (or refusing) tenant's name; empty for kUnknownKey.
    std::string tenant;
    /// For kRateLimited: when the bucket will next hold a full token.
    double retry_after_ms = 0.0;
  };

  /// Takes one token and one concurrency slot for the tenant of `api_key`.
  /// On kOk the caller MUST balance with Release(result.tenant) when the
  /// request finishes (the server uses an RAII guard). Refusals consume
  /// nothing.
  Result Admit(std::string_view api_key);

  /// Returns the concurrency slot taken by an earlier successful Admit.
  void Release(const std::string& tenant);

  /// Identifies the tenant of `api_key` without consuming a token or a
  /// concurrency slot (STATS uses this: monitoring must work while the
  /// tenant is throttled). Returns its name, or nullopt for unknown keys.
  std::optional<std::string> Authenticate(std::string_view api_key) const;

  /// Snapshot of the per-tenant counters, keyed by tenant name.
  std::map<std::string, TenantStats> stats() const;

 private:
  struct Tenant {
    TenantConfig config;
    double tokens = 0.0;  ///< current bucket fill
    std::chrono::steady_clock::time_point last_refill;
    TenantStats stats;
  };

  Tenant* FindByKey(std::string_view api_key);

  AdmissionOptions options_;
  mutable std::mutex mu_;
  /// Indexed by registration order; name -> index for Release (names are
  /// unique, see AdmissionOptions::tenants).
  std::vector<Tenant> tenants_;
  std::map<std::string, size_t, std::less<>> by_name_;
  std::map<std::string, size_t, std::less<>> by_key_;
};

}  // namespace cqa

#endif  // CQA_NET_ADMISSION_H_
