//===- tests/test_cancellation.cpp - Resource-governance tests ------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Covers the resource-governance
// layer bottom-up: the cancel::Token primitive (flag, wall-clock deadline,
// byte budget), the ambient TokenScope and its propagation onto Scheduler
// workers, the fault-injection arming semantics, and the end-to-end
// contracts on a generated Sect. 4 family member — deadline expiry unwinds
// with a typed reason, the memory-budget degradation ladder sheds precision
// deterministically for every --jobs value, exhaustion waives the
// budget on the last rung instead of failing, and --on-budget=fail unwinds.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"
#include "analyzer/Scheduler.h"
#include "codegen/FamilyGenerator.h"
#include "support/Cancellation.h"
#include "support/FaultInjection.h"
#include "support/MemoryTracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace astral;

//===----------------------------------------------------------------------===//
// Token primitive
//===----------------------------------------------------------------------===//

TEST(CancelToken, FreshTokenIsInert) {
  cancel::Token T;
  EXPECT_FALSE(T.cancelled());
  EXPECT_FALSE(T.hasDeadline());
  EXPECT_FALSE(T.hasBudget());
  EXPECT_FALSE(T.expired());
  EXPECT_FALSE(T.overBudget());
  EXPECT_NO_THROW(T.poll());
  EXPECT_NO_THROW(T.pollBudget());
}

TEST(CancelToken, CancelFlagTripsPoll) {
  cancel::Token T;
  T.cancel();
  EXPECT_TRUE(T.expired());
  try {
    T.poll();
    FAIL() << "poll must throw on a cancelled token";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::Cancelled);
    EXPECT_STREQ(cancel::reasonName(C.reason()), "cancelled");
  }
}

TEST(CancelToken, DeadlineExpiryTripsPoll) {
  cancel::Token T;
  T.setDeadlineMs(0); // 0 disables: no deadline is armed.
  EXPECT_FALSE(T.hasDeadline());

  T.setDeadline(cancel::Token::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(T.hasDeadline());
  EXPECT_TRUE(T.expired());
  try {
    T.poll();
    FAIL() << "poll must throw past the deadline";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::DeadlineExpired);
    EXPECT_STREQ(cancel::reasonName(C.reason()), "timeout");
  }

  // A future deadline does not fire early.
  cancel::Token U;
  U.setDeadlineMs(60'000);
  EXPECT_FALSE(U.expired());
  EXPECT_NO_THROW(U.poll());
}

TEST(CancelToken, BudgetArmsAgainstMeter) {
  memtrack::Counter Meter;
  Meter.noteAlloc(100);

  cancel::Token T;
  T.setBudget(200, &Meter);
  ASSERT_TRUE(T.hasBudget());
  EXPECT_FALSE(T.overBudget());
  EXPECT_NO_THROW(T.pollBudget());

  T.setBudget(50, &Meter);
  EXPECT_TRUE(T.overBudget());
  try {
    T.pollBudget();
    FAIL() << "pollBudget must throw over budget";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::OverBudget);
    EXPECT_STREQ(cancel::reasonName(C.reason()), "over-budget");
  }

  // The budget only reads *live* bytes — frees bring the run back under.
  Meter.noteFree(80);
  EXPECT_FALSE(T.overBudget());

  // Bytes == 0 disarms (the ladder's waive step).
  T.setBudget(0, &Meter);
  EXPECT_FALSE(T.hasBudget());
  Meter.noteAlloc(1 << 20);
  EXPECT_NO_THROW(T.pollBudget());
}

TEST(CancelToken, AmbientScopeInstallsAndRestores) {
  EXPECT_EQ(cancel::currentToken(), nullptr);
  EXPECT_NO_THROW(cancel::poll()); // Free polls are no-ops without a token.
  EXPECT_NO_THROW(cancel::pollBudget());

  cancel::Token Outer, Inner;
  Outer.cancel();
  {
    cancel::TokenScope S1(&Outer);
    EXPECT_EQ(cancel::currentToken(), &Outer);
    EXPECT_THROW(cancel::poll(), cancel::AnalysisCancelled);
    {
      cancel::TokenScope S2(&Inner);
      EXPECT_EQ(cancel::currentToken(), &Inner);
      EXPECT_NO_THROW(cancel::poll());
      {
        // Null shadows any outer token, like SchedulerScope/CounterScope.
        cancel::TokenScope S3(nullptr);
        EXPECT_EQ(cancel::currentToken(), nullptr);
        EXPECT_NO_THROW(cancel::poll());
      }
      EXPECT_EQ(cancel::currentToken(), &Inner);
    }
    EXPECT_EQ(cancel::currentToken(), &Outer);
  }
  EXPECT_EQ(cancel::currentToken(), nullptr);
}

TEST(CancelToken, SchedulerPropagatesTokenToWorkers) {
  // The Scheduler captures the submitter's ambient token per batch and
  // re-installs it on every worker running that batch's tasks.
  cancel::Token T;
  cancel::TokenScope Scope(&T);
  std::shared_ptr<Scheduler> S = Scheduler::create(2);

  std::atomic<unsigned> Seen{0};
  S->parallelFor(8, [&](size_t) {
    if (cancel::currentToken() == &T)
      Seen.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Seen.load(), 8u);

  // A cancelled token unwinds out of parallelFor via the scheduler's
  // task-boundary poll and first-error rethrow.
  T.cancel();
  EXPECT_THROW(S->parallelFor(8, [](size_t) {}), cancel::AnalysisCancelled);
}

//===----------------------------------------------------------------------===//
// Fault-injection arming semantics
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ArmFiresOnNthHitOnce) {
  faultinject::reset();
  faultinject::arm("unit-site", 2);
  EXPECT_FALSE(faultinject::shouldFire("unit-site")); // hit 1
  EXPECT_TRUE(faultinject::shouldFire("unit-site"));  // hit 2 fires
  EXPECT_FALSE(faultinject::shouldFire("unit-site")); // one-shot: hit 3 passes
  EXPECT_FALSE(faultinject::shouldFire("other-site"));
  faultinject::reset();
}

TEST(FaultInjection, StickyArmFiresForever) {
  faultinject::reset();
  faultinject::arm("unit-sticky", 1, /*Sticky=*/true);
  for (int I = 0; I < 3; ++I)
    EXPECT_THROW(faultinject::fire("unit-sticky"), faultinject::InjectedFault);
  faultinject::reset();
  EXPECT_NO_THROW(faultinject::fire("unit-sticky"));
}

//===----------------------------------------------------------------------===//
// End-to-end governance on a generated family member
//===----------------------------------------------------------------------===//

namespace {

AnalysisInput familyInput(unsigned Lines, uint64_t Seed) {
  codegen::GeneratorConfig C;
  C.TargetLines = Lines;
  C.Seed = Seed;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);
  AnalysisInput In;
  In.FileName = "family.c";
  In.Source = FP.Source;
  In.Options.VolatileRanges = FP.VolatileRanges;
  In.Options.PartitionFunctions = FP.PartitionFunctions;
  for (double T : FP.DocumentedThresholds)
    In.Options.ExtraThresholds.push_back(T);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// Everything the byte-identity contract covers, as one comparable string
/// (wall-clock and work-metering figures deliberately excluded).
std::string resultSignature(const AnalysisResult &R) {
  std::string Sig;
  for (const std::string &S : R.DegradeSteps)
    Sig += S + ";";
  Sig += "|alarms=" + std::to_string(R.alarmCount());
  for (const Alarm &A : R.Alarms)
    Sig += "|" + std::string(alarmKindName(A.Kind)) + ":" +
           std::to_string(A.Loc.Line) + ":" + A.Message +
           (A.Definite ? ":definite" : "") + ":x" + std::to_string(A.Repeats);
  for (const auto &[Name, Itv] : R.VariableRanges)
    Sig += "|" + Name + "=" + Itv.toString();
  const InvariantCensus &C = R.MainLoopCensus;
  Sig += "|census=" + std::to_string(C.BoolAssertions) + "/" +
         std::to_string(C.IntervalAssertions) + "/" +
         std::to_string(C.ClockAssertions) + "/" +
         std::to_string(C.OctAdditive) + "/" +
         std::to_string(C.OctSubtractive) + "/" +
         std::to_string(C.DecisionTrees) + "/" +
         std::to_string(C.EllipsoidAssertions);
  Sig += "|useful=";
  for (uint32_t Id : R.UsefulOctPacks)
    Sig += std::to_string(Id) + ",";
  Sig += "|inv=" + R.MainLoopInvariant;
  return Sig;
}

} // namespace

TEST(Governance, NoBudgetMeansNoGovernanceFields) {
  AnalysisResult R = Analyzer::analyze(familyInput(400, 7));
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  // Budget-less runs must look exactly like pre-governance builds — the
  // report layer keys the `degraded` fields off this flag, which is what
  // keeps the golden suite byte-identical.
  EXPECT_FALSE(R.MemoryBudgetConfigured);
  EXPECT_TRUE(R.DegradeSteps.empty());
  EXPECT_FALSE(R.degraded());
}

TEST(Governance, DeadlineExpiryUnwindsWithTypedReason) {
  AnalysisInput In = familyInput(2000, 7);
  In.Options.DeadlineMs = 1;
  AnalysisSession S(std::move(In));
  try {
    S.runAbstractExecution();
    FAIL() << "a 1ms deadline must expire on a 2000-line member";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::DeadlineExpired);
  }
}

TEST(Governance, ExternalTokenPreemptsAnalysis) {
  AnalysisInput In = familyInput(400, 7);
  AnalysisSession S(std::move(In));
  auto Tok = std::make_shared<cancel::Token>();
  Tok->cancel(); // The daemon's drop-before-dispatch path, compressed.
  S.setCancelToken(Tok);
  try {
    S.runAbstractExecution();
    FAIL() << "an injected cancelled token must preempt the run";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::Cancelled);
  }
}

TEST(Governance, BudgetDegradationIsDeterministicAcrossDispatchMatrix) {
  // Calibrate: the ungoverned peak of this member tells us a budget that
  // must trigger at least one ladder step. The matrix is also the
  // regression test for the budget poll staying master-only: a partition
  // worker (a collect-mode clone) that polled would sample the
  // deterministic live figure at timing-dependent points, and the ladder
  // would diverge between --jobs values.
  AnalysisInput Base = familyInput(1200, 7);
  AnalysisResult Free = Analyzer::analyze(Base);
  ASSERT_TRUE(Free.FrontendOk) << Free.FrontendErrors;
  ASSERT_GT(Free.PeakAbstractBytes, 0u);
  const uint64_t Budget = Free.PeakAbstractBytes / 2;

  std::string Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    AnalysisInput In = Base;
    In.Options.MemoryBudgetBytes = Budget;
    In.Options.Jobs = Jobs;
    AnalysisResult R = Analyzer::analyze(In);
    ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
    EXPECT_TRUE(R.MemoryBudgetConfigured);
    EXPECT_TRUE(R.degraded())
        << "half the ungoverned peak must force degradation";
    std::string Sig = resultSignature(R);
    if (Reference.empty())
      Reference = Sig;
    else
      EXPECT_EQ(Sig, Reference)
          << "degraded reports must be byte-identical across --jobs (jobs="
          << Jobs << ")";
  }
}

TEST(Governance, DegradedReportCountsThePacksItRanWith) {
  // The drop-* rungs rebuild the packing phase without the dropped domains;
  // the report's pack census must come from the packs the analysis ran
  // with, which equal those of a run with those domains switched off.
  AnalysisInput Base = familyInput(2000, 1);
  AnalysisInput Budgeted = Base;
  Budgeted.Options.MemoryBudgetBytes = 500000;
  AnalysisResult Degraded = Analyzer::analyze(Budgeted);
  ASSERT_TRUE(Degraded.FrontendOk) << Degraded.FrontendErrors;
  const std::vector<std::string> Dropped = {"drop-ellipsoid", "drop-tree",
                                            "drop-octagon"};
  ASSERT_EQ(Degraded.DegradeSteps, Dropped);

  AnalysisInput Plain = Base;
  Plain.Options.Domains =
      DomainSet::intervalOnly().enable(DomainKind::Clocked);
  AnalysisResult Ref = Analyzer::analyze(Plain);
  ASSERT_TRUE(Ref.FrontendOk) << Ref.FrontendErrors;
  for (DomainKind K :
       {DomainKind::Octagon, DomainKind::DecisionTree, DomainKind::Ellipsoid})
    EXPECT_EQ(Degraded.packCount(K), Ref.packCount(K)) << domainKindName(K);
  EXPECT_EQ(Degraded.packCount(DomainKind::Octagon), 0u);
  EXPECT_EQ(Degraded.alarmCount(), Ref.alarmCount());
}

TEST(Governance, LadderExhaustionWaivesAndStaysSound) {
  AnalysisInput In = familyInput(800, 11);
  In.Options.MemoryBudgetBytes = 1; // Impossible; every rung must fire.
  AnalysisSession S(std::move(In));
  AnalysisResult R = S.report();
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  const std::vector<std::string> FullLadder = {
      "drop-ellipsoid", "drop-tree", "drop-octagon", "tighten-partitions",
      "waive-budget"};
  EXPECT_EQ(R.DegradeSteps, FullLadder);
  // The contract is "always terminate with a sound result", not "never
  // exceed the number": the waived run still analyzes everything.
  EXPECT_TRUE(R.HasMainLoop);
  EXPECT_FALSE(R.VariableRanges.empty());
}

TEST(Governance, OnBudgetFailUnwindsInsteadOfDegrading) {
  AnalysisInput In = familyInput(800, 11);
  In.Options.MemoryBudgetBytes = 1;
  In.Options.OnBudget = AnalyzerOptions::BudgetAction::Fail;
  AnalysisSession S(std::move(In));
  try {
    S.runAbstractExecution();
    FAIL() << "--on-budget=fail must unwind, not degrade";
  } catch (const cancel::AnalysisCancelled &C) {
    EXPECT_EQ(C.reason(), cancel::Reason::OverBudget);
  }
}
