//===- support/Cancellation.cpp - Deadlines and byte budgets --------------===//

#include "support/Cancellation.h"

namespace astral {
namespace cancel {

const char *reasonName(Reason R) {
  return R == Reason::OverBudget ? "over-budget" : "timeout";
}

void Token::poll() const {
  if (HasDeadline && Clock::now() >= Deadline)
    throw AnalysisCancelled(Reason::DeadlineExpired,
                            "analysis deadline expired");
}

void Token::pollBudget() const {
  if (!BudgetMeter)
    return;
  uint64_t Live = static_cast<uint64_t>(BudgetMeter->liveBytes());
  if (Live > BudgetBytes)
    throw AnalysisCancelled(Reason::OverBudget,
                            "abstract-state memory budget exceeded (" +
                                std::to_string(Live) + " live bytes > " +
                                std::to_string(BudgetBytes) + " budget)");
}

} // namespace cancel
} // namespace astral
