//===- support/Cancellation.h - Deadlines and byte budgets ------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for long-running analyses: a cancel::Token bundles
/// the two ways a run may be asked to stop early — a wall-clock deadline
/// and an abstract-state byte budget read from the session's
/// memtrack::Counter. Each execution attempt carries its token in its
/// ExecutionContext, so every poll site reads it from there, on whichever
/// thread it runs.
///
/// Polling discipline (what keeps degraded reports deterministic):
///  - poll() checks the wall clock. It may run anywhere — on workers,
///    inside the threads of a fanned-out interference round — because an
///    expired run only has to unwind, not to reproduce: timeout outcomes
///    are never byte-compared.
///  - pollBudget() checks the deterministic byte meter. It must run ONLY at
///    master-thread sequential points (the Iterator's top-level fixpoint
///    heads, the ConcurrentAnalysis round heads), where liveBytes() is a
///    function of the analysis alone, not of thread timing — that is what
///    makes budget-degraded reports byte-identical for every --jobs value.
///
/// Both polls unwind via AnalysisCancelled, a typed exception carrying the
/// reason; AnalysisSession turns OverBudget into the degradation ladder and
/// the service layer turns the rest into structured error responses.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_CANCELLATION_H
#define ASTRAL_SUPPORT_CANCELLATION_H

#include "support/MemoryTracker.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace astral {
namespace cancel {

enum class Reason : uint8_t { DeadlineExpired, OverBudget };

/// The wire/stat spelling of each reason: "timeout", "over-budget" — the
/// service protocol's error_kind values.
const char *reasonName(Reason R);

/// Thrown by the polls; the analysis unwinds to whoever armed the token.
class AnalysisCancelled : public std::runtime_error {
public:
  AnalysisCancelled(Reason R, const std::string &Message)
      : std::runtime_error(Message), R(R) {}
  Reason reason() const { return R; }

private:
  Reason R;
};

/// One request's (or one run's) stop conditions. Deadline and budget are
/// configured before the run starts and read-only while it runs, so any
/// thread may poll.
class Token {
public:
  using Clock = std::chrono::steady_clock;

  void setDeadline(Clock::time_point D) {
    Deadline = D;
    HasDeadline = true;
  }
  /// Anchors the deadline \p Ms milliseconds from now; 0 disables.
  void setDeadlineMs(uint64_t Ms) {
    if (Ms)
      setDeadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  /// Arms the budget against \p Meter's live figure; Bytes == 0 disables
  /// (the degradation ladder waives an exhausted budget this way).
  void setBudget(uint64_t Bytes, const memtrack::Counter *Meter) {
    BudgetBytes = Bytes;
    BudgetMeter = Bytes ? Meter : nullptr;
  }

  /// Throws AnalysisCancelled(DeadlineExpired) past the deadline.
  void poll() const;
  /// Throws AnalysisCancelled(OverBudget) when the metered live bytes cross
  /// the budget. Deterministic-sites-only (see the file comment).
  void pollBudget() const;

private:
  bool HasDeadline = false;
  Clock::time_point Deadline{};
  uint64_t BudgetBytes = 0;
  const memtrack::Counter *BudgetMeter = nullptr;
};

} // namespace cancel
} // namespace astral

#endif // ASTRAL_SUPPORT_CANCELLATION_H
