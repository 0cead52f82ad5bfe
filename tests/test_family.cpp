//===- tests/test_family.cpp - Program family generator tests -------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the Sect. 4 workload
// generator and the end-to-end verification of a family member.
//
//===----------------------------------------------------------------------===//

#include "codegen/FamilyGenerator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace astral;
using namespace astral::codegen;

namespace {
AnalysisResult analyzeFamily(const FamilyProgram &FP,
                             std::function<void(AnalyzerOptions &)> Tweak =
                                 nullptr) {
  AnalysisInput In;
  In.Source = FP.Source;
  In.Options.VolatileRanges = FP.VolatileRanges;
  In.Options.PartitionFunctions = FP.PartitionFunctions;
  for (double T : FP.DocumentedThresholds)
    In.Options.ExtraThresholds.push_back(T);
  In.Options.ClockMax = 1.0e6;
  if (Tweak)
    Tweak(In.Options);
  return Analyzer::analyze(In);
}
} // namespace

TEST(Family, Deterministic) {
  GeneratorConfig C;
  C.TargetLines = 500;
  C.Seed = 7;
  FamilyProgram A = generateFamilyProgram(C);
  FamilyProgram B = generateFamilyProgram(C);
  EXPECT_EQ(A.Source, B.Source);
  C.Seed = 8;
  FamilyProgram D = generateFamilyProgram(C);
  EXPECT_NE(A.Source, D.Source);
}

TEST(Family, ScalesWithTarget) {
  GeneratorConfig Small{/*TargetLines=*/400, /*Seed=*/1, 0};
  GeneratorConfig Big{/*TargetLines=*/4000, /*Seed=*/1, 0};
  FamilyProgram S = generateFamilyProgram(Small);
  FamilyProgram B = generateFamilyProgram(Big);
  EXPECT_GE(S.LineCount, 380u);
  EXPECT_GE(B.LineCount, 3800u);
  EXPECT_GT(B.ModuleCount, S.ModuleCount);
  // Globals scale linearly with code size (Sect. 4).
  EXPECT_GT(B.VolatileRanges.size(), S.VolatileRanges.size());
}

TEST(Family, ParsesAndAnalyzes) {
  GeneratorConfig C{/*TargetLines=*/600, /*Seed=*/3, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_TRUE(R.HasMainLoop);
  EXPECT_GT(R.NumCells, 0u);
}

TEST(Family, FullAnalyzerNearZeroAlarms) {
  GeneratorConfig C{/*TargetLines=*/800, /*Seed=*/11, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  // The family has run alarm-free for ten years (Sect. 3.1); the refined
  // analyzer should prove (almost) all of it.
  EXPECT_LE(R.alarmCount(), 2u)
      << "full-stack analysis of the family should be (near) alarm-free";
}

TEST(Family, BaselineHasManyAlarms) {
  GeneratorConfig C{/*TargetLines=*/800, /*Seed=*/11, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult Full = analyzeFamily(FP);
  AnalysisResult Baseline = analyzeFamily(FP, [](AnalyzerOptions &O) {
    O.Domains = DomainSet::intervalOnly();
    O.EnableLinearization = false;
    O.PartitionFunctions.clear();
  });
  EXPECT_GT(Baseline.alarmCount(), Full.alarmCount() + 3)
      << "the interval-only baseline must report many more alarms "
         "(the 1,200 -> 11 story of Sect. 8)";
}

TEST(Family, EachDomainRemovesAlarms) {
  GeneratorConfig C{/*TargetLines=*/1500, /*Seed=*/23, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  auto CountWith = [&](std::function<void(AnalyzerOptions &)> Tweak) {
    return analyzeFamily(FP, Tweak).alarmCount();
  };
  size_t Baseline = CountWith([](AnalyzerOptions &O) {
    O.Domains = DomainSet::intervalOnly();
    O.EnableLinearization = false;
    O.PartitionFunctions.clear();
  });
  size_t Full = CountWith(nullptr);
  EXPECT_LT(Full, Baseline);
}

TEST(Family, InjectedBugsSurviveFullStack) {
  GeneratorConfig C{/*TargetLines=*/400, /*Seed=*/5, /*InjectedBugs=*/2};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  size_t DivAlarms = 0;
  for (const Alarm &A : R.Alarms)
    if (A.Kind == AlarmKind::DivByZero)
      ++DivAlarms;
  EXPECT_GE(DivAlarms, 2u) << "genuine bugs must never be masked";
}

TEST(Family, DeadTablesOptimizedAway) {
  GeneratorConfig C{/*TargetLines=*/1200, /*Seed=*/9, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_GT(R.Stats.get("frontend.globals_deleted"), 0u)
      << "unused hardware tables must be deleted (Sect. 5.1)";
}

TEST(Family, MainLoopStopsBelowTheLadderTop) {
  // Once the clock settles, the clamped cells' x+clock offsets are reduced
  // against the cell and the clock at every guard and tick, so the main
  // loop stops widening one rung above x + ClockMax instead of climbing
  // every rung of the threshold ladder to +inf.
  GeneratorConfig C{/*TargetLines=*/1000, /*Seed=*/1, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_TRUE(R.HasMainLoop);
  EXPECT_LE(R.Stats.get("fixpoint.widenings"), 30u);
  EXPECT_EQ(R.alarmCount(), 0u);
}
