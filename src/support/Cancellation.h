//===- support/Cancellation.h - Cooperative cancellation tokens --*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for long-running analyses: a CancelToken bundles the
/// three ways a run may be asked to stop early — an explicit cancel flag, a
/// wall-clock deadline, and an abstract-state byte budget read from the
/// session's memtrack::Counter. The token is installed as a per-thread
/// ambient (TokenScope), exactly like the Scheduler's CounterScope, and the
/// Scheduler re-installs the submitting thread's token on every pool worker
/// running that batch's tasks — so the deep analysis loops need no
/// plumbed-through parameter.
///
/// Polling discipline (what keeps degraded reports deterministic):
///  - poll() checks the flag and the wall clock. It may run anywhere — on
///    workers, inside partition clones — because a cancelled or expired run
///    only has to unwind, not to reproduce: timeout outcomes are never
///    byte-compared.
///  - pollBudget() checks the deterministic byte meter. It must run ONLY at
///    master-thread sequential points (the Iterator's fixpoint heads outside
///    collect mode, the ConcurrentAnalysis round heads), where liveBytes()
///    is a function of the analysis alone, not of thread timing — that is
///    what makes budget-degraded reports byte-identical for every --jobs
///    value.
///
/// Both polls unwind via AnalysisCancelled, a typed exception carrying the
/// reason; AnalysisSession turns OverBudget into the degradation ladder and
/// the service layer turns the rest into structured error responses.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_CANCELLATION_H
#define ASTRAL_SUPPORT_CANCELLATION_H

#include "support/MemoryTracker.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace astral {
namespace cancel {

enum class Reason : uint8_t { Cancelled, DeadlineExpired, OverBudget };

/// The wire/stat spelling of each reason: "cancelled", "timeout",
/// "over-budget" — the service protocol's error_kind values.
const char *reasonName(Reason R);

/// Thrown by the polls; the analysis unwinds to whoever installed the token.
class AnalysisCancelled : public std::runtime_error {
public:
  AnalysisCancelled(Reason R, const std::string &Message)
      : std::runtime_error(Message), R(R) {}
  Reason reason() const { return R; }

private:
  Reason R;
};

/// One request's (or one run's) stop conditions. Thread-safe: the cancel
/// flag may be set from any thread while workers poll; deadline and budget
/// are configured before the run starts and read-only afterwards.
class Token {
public:
  using Clock = std::chrono::steady_clock;

  // -- Explicit cancellation ----------------------------------------------
  void cancel() { Flag.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Flag.load(std::memory_order_relaxed); }

  // -- Wall-clock deadline ------------------------------------------------
  void setDeadline(Clock::time_point D) {
    Deadline = D;
    HasDeadline = true;
  }
  /// Anchors the deadline \p Ms milliseconds from now; 0 disables.
  void setDeadlineMs(uint64_t Ms) {
    if (Ms)
      setDeadline(Clock::now() + std::chrono::milliseconds(Ms));
  }
  bool hasDeadline() const { return HasDeadline; }

  // -- Abstract-state byte budget -----------------------------------------
  /// Arms the budget against \p Meter's live figure; Bytes == 0 disables
  /// (the degradation ladder waives an exhausted budget this way).
  void setBudget(uint64_t Bytes, const memtrack::Counter *Meter) {
    BudgetBytes = Bytes;
    BudgetMeter = Bytes ? Meter : nullptr;
  }
  bool hasBudget() const { return BudgetMeter != nullptr; }

  // -- Observers (non-throwing) -------------------------------------------
  /// Whether the token is cancelled or past its deadline — the RequestQueue
  /// uses this to drop already-expired jobs before dispatch.
  bool expired() const {
    return cancelled() || (HasDeadline && Clock::now() >= Deadline);
  }
  bool overBudget() const {
    return BudgetMeter && BudgetMeter->liveBytes() > BudgetBytes;
  }

  // -- Throwing polls ------------------------------------------------------
  /// Throws AnalysisCancelled on the flag or an expired deadline.
  void poll() const;
  /// Throws AnalysisCancelled(OverBudget) when the metered live bytes cross
  /// the budget. Deterministic-sites-only (see the file comment).
  void pollBudget() const;

private:
  std::atomic<bool> Flag{false};
  bool HasDeadline = false;
  Clock::time_point Deadline{};
  uint64_t BudgetBytes = 0;
  const memtrack::Counter *BudgetMeter = nullptr;
};

/// The calling thread's ambient token, or null (the polls are then no-ops).
Token *currentToken();

/// Installs \p T as the calling thread's ambient token for the scope's
/// lifetime (restores the previous one on exit). Passing null shadows any
/// outer scope — the same convention as SchedulerScope/CounterScope.
class TokenScope {
public:
  explicit TokenScope(Token *T);
  ~TokenScope();

  TokenScope(const TokenScope &) = delete;
  TokenScope &operator=(const TokenScope &) = delete;

private:
  Token *Prev;
};

/// Ambient polls: cheap no-ops when no token is installed. These are what
/// the choke points call — the Iterator's fixpoint heads, the Scheduler's
/// task boundaries, the ConcurrentAnalysis round heads.
void poll();
void pollBudget();

} // namespace cancel
} // namespace astral

#endif // ASTRAL_SUPPORT_CANCELLATION_H
