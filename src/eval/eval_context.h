// EvalContext: the cooperative cancellation / deadline / budget token of the
// evaluation path. One context is created per serving request (by
// QueryService from EvalRequest/EvalOptions limits, or directly by a caller
// driving an engine) and threaded by pointer through the engines'
// backtracking/probe loops. Engines poll Interrupted() at every search node
// and RecordAnswer() at every answer materialization; the first tripped limit
// is sticky and every later poll — on any thread — returns true immediately,
// so every rewrite of an approximate plan winds down together.
//
// Partial-answer soundness contract
// ---------------------------------
// An engine that observes Interrupted() == true stops and returns whatever
// answers it has *proven* so far — always a subset of Q(D) (CQ evaluation is
// monotone in every intermediate table, and the join-forest DP only emits
// tuples after the full reduction completed). An interrupted evaluation is
// therefore still a sound *under*-approximation (a set of certain answers);
// it is never a sound over-approximation. The serving layer reports this via
// EvalResponse::status and AnswerBounds::over_valid (eval/service.h) and
// never labels an interrupted result exact.
//
// Thread-safety: one EvalContext may be polled concurrently from several
// threads; all mutable state is atomic and the node / answer budgets are
// *global across the request* (approximate under concurrency — trips may
// overshoot by one check interval per thread).
// The clock is sampled every kClockCheckInterval polls (plus the very first
// poll, so an already-expired deadline returns before any search work).

#ifndef CQA_EVAL_EVAL_CONTEXT_H_
#define CQA_EVAL_EVAL_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <memory>

namespace cqa {

/// Why a request finished (EvalResponse::status). Everything except kOk
/// means evaluation stopped early and the answers are a (sound) partial
/// under-approximation — see the contract above.
enum class ResponseStatus {
  kOk,                ///< ran to completion
  kDeadlineExceeded,  ///< the deadline passed mid-evaluation (or in queue)
  kCancelled,         ///< the request's cancel flag was raised
  kTruncated,         ///< a node or answer budget was exhausted
};

/// Stable display name ("ok", "deadline_exceeded", "cancelled", "truncated").
const char* ResponseStatusName(ResponseStatus status);

/// Shared cancellation flag: the submitter keeps one reference and stores
/// another on the EvalRequest; setting it to true makes every evaluation
/// holding it stop cooperatively with ResponseStatus::kCancelled.
using CancelFlag = std::shared_ptr<std::atomic<bool>>;

/// Convenience: a fresh, unraised cancel flag.
inline CancelFlag MakeCancelFlag() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Per-request resource budgets. Zero (or negative) fields mean "no limit";
/// a request-level EvalLimits overrides the service-wide default field by
/// field (EvalLimits::Merge), so a request can tighten one knob without
/// restating the others.
struct EvalLimits {
  /// Wall-clock deadline, milliseconds from the moment the request is
  /// admitted (Submit time for streaming requests: queueing counts). One
  /// too far out for steady_clock to represent acts as no deadline.
  double deadline_ms = 0.0;
  /// Search-node budget across the whole request (all rewrites).
  long long max_nodes = 0;
  /// Answer-materialization budget: evaluation stops once this many answer
  /// tuples have been inserted (across the whole request), so AnswerSet
  /// never materializes an unbounded result.
  long long max_answers = 0;

  bool any() const {
    return deadline_ms > 0.0 || max_nodes > 0 || max_answers > 0;
  }

  /// Field-wise override: nonzero fields of `request` win over `base`.
  static EvalLimits Merge(const EvalLimits& base, const EvalLimits& request) {
    EvalLimits out = base;
    if (request.deadline_ms > 0.0) out.deadline_ms = request.deadline_ms;
    if (request.max_nodes > 0) out.max_nodes = request.max_nodes;
    if (request.max_answers > 0) out.max_answers = request.max_answers;
    return out;
  }
};

/// The token itself. Immutable configuration + atomic trip state; copyable
/// never (engines receive `const EvalContext*`; null means "no limits").
class EvalContext {
 public:
  /// No limits, no cancel flag: every poll is a cheap "keep going".
  EvalContext() = default;

  /// Arms the deadline (relative to now), budgets, and the cancel flag.
  explicit EvalContext(const EvalLimits& limits, CancelFlag cancel = nullptr)
      : max_nodes_(limits.max_nodes > 0 ? limits.max_nodes : 0),
        max_answers_(limits.max_answers > 0 ? limits.max_answers : 0),
        cancel_(std::move(cancel)) {
    if (limits.deadline_ms > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      const std::chrono::duration<double, std::milli> budget(
          limits.deadline_ms);
      // A deadline past what steady_clock can represent saturates: it never
      // arrives, so it acts as no deadline (and no cast below overflows).
      has_deadline_ =
          budget < std::chrono::steady_clock::time_point::max() - now;
      if (has_deadline_) {
        deadline_ = now + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(budget);
      }
    }
  }

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// The cooperative check engines call once per search node / emitted row.
  /// Returns true when evaluation must stop (sticky). Counts toward the
  /// node budget; samples the clock every kClockCheckInterval calls (and on
  /// the first, so an expired deadline stops before any work).
  bool Interrupted() const {
    if (status_.load(std::memory_order_relaxed) != ResponseStatus::kOk) {
      return true;
    }
    const long long n = nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (max_nodes_ > 0 && n > max_nodes_) {
      Trip(ResponseStatus::kTruncated);
      return true;
    }
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      Trip(ResponseStatus::kCancelled);
      return true;
    }
    if (has_deadline_ && (n == 1 || n % kClockCheckInterval == 0) &&
        std::chrono::steady_clock::now() >= deadline_) {
      Trip(ResponseStatus::kDeadlineExceeded);
      return true;
    }
    return false;
  }

  /// Called after each answer insertion. Returns true when the answer
  /// budget is now exhausted and evaluation must stop (the answer that
  /// tripped the budget is kept — the result holds exactly max_answers).
  bool RecordAnswer() const {
    if (max_answers_ <= 0) return false;
    const long long a = answers_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (a >= max_answers_) {
      Trip(ResponseStatus::kTruncated);
      return true;
    }
    return false;
  }

  /// kOk until a limit trips; afterwards the first tripped reason, sticky.
  ResponseStatus status() const {
    return status_.load(std::memory_order_relaxed);
  }
  bool ok() const { return status() == ResponseStatus::kOk; }

 private:
  static constexpr long long kClockCheckInterval = 256;

  void Trip(ResponseStatus s) const {
    ResponseStatus expected = ResponseStatus::kOk;
    status_.compare_exchange_strong(expected, s, std::memory_order_relaxed);
  }

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  long long max_nodes_ = 0;
  long long max_answers_ = 0;
  CancelFlag cancel_;
  mutable std::atomic<long long> nodes_{0};
  mutable std::atomic<long long> answers_{0};
  mutable std::atomic<ResponseStatus> status_{ResponseStatus::kOk};
};

}  // namespace cqa

#endif  // CQA_EVAL_EVAL_CONTEXT_H_
