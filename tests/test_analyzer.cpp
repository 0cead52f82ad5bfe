//===- tests/test_analyzer.cpp - End-to-end analyzer tests ----------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Each refinement of Sect. 6/7 must
// eliminate its family of false alarms (the Sect. 8 story in miniature).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace astral;
using testutil::alarmsOfKind;
using testutil::analyzeSource;
using testutil::rangeOf;

TEST(Analyzer, FrontendErrorReported) {
  AnalysisResult R = analyzeSource("int main(void) { goto x; }");
  EXPECT_FALSE(R.FrontendOk);
  EXPECT_FALSE(R.FrontendErrors.empty());
}

TEST(Analyzer, EmptyProgram) {
  AnalysisResult R = analyzeSource("int main(void) { return 0; }");
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_TRUE(R.Alarms.empty());
}

// --- The octagon idiom: rate limiter with feedback (Sect. 6.2.2) ---------

static const char *RateLimiterSrc =
    "volatile float in;\nfloat y;\nstatic const float tab[32] = { 1.0f };\n"
    "float cmd;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    float u = in;\n"
    "    if (u - y > 8.0f) { y = y + 8.0f; }\n"
    "    else { if (y - u > 8.0f) { y = y - 8.0f; } else { y = u; } }\n"
    "    int idx = (int)((y + 100.0f) * 0.155f);\n"
    "    cmd = tab[idx];\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

TEST(Analyzer, OctagonsBoundRateLimiter) {
  auto R = analyzeSource(RateLimiterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
  });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::ArrayBounds), 0u);
  Interval Y = rangeOf(R, "y");
  EXPECT_GE(Y.Lo, -101.0);
  EXPECT_LE(Y.Hi, 101.0);
}

TEST(Analyzer, RateLimiterAlarmsWithoutOctagons) {
  auto R = analyzeSource(RateLimiterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
    O.Domains.enable(DomainKind::Octagon, false);
  });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::ArrayBounds), 1u)
      << "without octagons the limiter state is unbounded";
}

// --- The ellipsoid idiom: second-order filter (Fig. 1, Sect. 6.2.3) -------

static const char *FilterSrc =
    "volatile float in; volatile int rst;\n"
    "float x; float y; float out;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    float t = in;\n"
    "    if (rst != 0) { y = t; x = t; }\n"
    "    else { float xn = 1.5f * x - 0.7f * y + t; y = x; x = xn; }\n"
    "    out = x * 0.5f;\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

TEST(Analyzer, EllipsoidBoundsFilter) {
  auto R = analyzeSource(FilterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-1, 1);
    O.VolatileRanges["rst"] = Interval(0, 1);
  });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::FloatOverflow), 0u);
  Interval X = rangeOf(R, "x");
  EXPECT_TRUE(std::isfinite(X.Hi));
  EXPECT_LE(X.Hi, 100.0) << "the filter state bound should be tight-ish";
}

TEST(Analyzer, FilterDivergesWithoutEllipsoids) {
  auto R = analyzeSource(FilterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-1, 1);
    O.VolatileRanges["rst"] = Interval(0, 1);
    O.Domains.enable(DomainKind::Ellipsoid, false);
  });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::FloatOverflow), 1u);
}

// --- The decision-tree idiom: boolean-guarded division (Sect. 6.2.4) ------

static const char *LogicSrc =
    "volatile int sens;\n_Bool b; int q;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    int s = sens;\n"
    "    b = (s == 0);\n"
    "    if (!b) { q = 1000 / s; } else { q = 0; }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

TEST(Analyzer, DecisionTreesProveGuardedDivision) {
  auto R = analyzeSource(LogicSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["sens"] = Interval(0, 10);
  });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DivByZero), 0u);
}

TEST(Analyzer, GuardedDivisionAlarmsWithoutTrees) {
  auto R = analyzeSource(LogicSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["sens"] = Interval(0, 10);
    O.Domains.enable(DomainKind::DecisionTree, false);
  });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::DivByZero), 1u);
}

// --- Packing statistics and usefulness (Sect. 7.2) -------------------------

TEST(Analyzer, PackStatisticsReported) {
  auto R = analyzeSource(RateLimiterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
  });
  EXPECT_GE(R.packCount(DomainKind::Octagon), 1u);
  EXPECT_GT(R.avgPackCells(DomainKind::Octagon), 1.0);
  EXPECT_FALSE(R.UsefulOctPacks.empty())
      << "the limiter octagon carries relational info at the loop head";
}

TEST(Analyzer, NonLinearCodeYieldsNoPacks) {
  auto R = analyzeSource(
      "volatile float a; volatile float b;\nfloat p;\n"
      "int main(void) {\n"
      "  while (1) { p = a * b; __astral_wait(); }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["a"] = Interval(0, 1);
        O.VolatileRanges["b"] = Interval(0, 1);
      });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(R.packCount(DomainKind::Octagon), 0u);
  EXPECT_TRUE(R.UsefulOctPacks.empty());
}

TEST(Analyzer, UselessPacksDetected) {
  // A pack whose relational info never materializes must not be "useful".
  auto R = analyzeSource(
      "volatile float a;\nfloat s;\n"
      "int main(void) { while (1) { s = a + 1.0f; __astral_wait(); } "
      "return 0; }",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["a"] = Interval(0, 1);
      });
  // s := volatile + const gives no stable two-variable relation.
  EXPECT_TRUE(R.FrontendOk);
}

TEST(Analyzer, RestrictedPacksStillVerify) {
  auto Full = analyzeSource(RateLimiterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
  });
  ASSERT_FALSE(Full.UsefulOctPacks.empty());
  std::set<uint32_t> Useful(Full.UsefulOctPacks.begin(),
                            Full.UsefulOctPacks.end());
  auto Restricted = analyzeSource(RateLimiterSrc, [&](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
    O.RestrictOctPacks = Useful;
  });
  EXPECT_EQ(alarmsOfKind(Restricted, AlarmKind::ArrayBounds), 0u)
      << "re-running with only the useful packs must keep the proof "
         "(Sect. 7.2.2)";
  EXPECT_LE(Restricted.packCount(DomainKind::Octagon), Full.packCount(DomainKind::Octagon));
}

// --- Census fields (Sect. 9.4.1) -------------------------------------------

TEST(Analyzer, InvariantCensusCountsKinds) {
  auto R = analyzeSource(
      "volatile int ev; volatile float in;\n"
      "int cnt; float x; _Bool b;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    if (ev > 0) { cnt = cnt + 1; }\n"
      "    x = in;\n"
      "    b = (ev > 0);\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["ev"] = Interval(0, 1);
        O.VolatileRanges["in"] = Interval(-4, 4);
      });
  ASSERT_TRUE(R.HasMainLoop);
  EXPECT_GE(R.MainLoopCensus.IntervalAssertions, 1u);
  EXPECT_GE(R.MainLoopCensus.ClockAssertions, 1u);
  EXPECT_GE(R.MainLoopCensus.BoolAssertions, 1u);
  EXPECT_GT(R.MainLoopCensus.DumpBytes, 0u);
  EXPECT_GT(R.MainLoopCensus.DistinctConstants, 0u);
}

TEST(Analyzer, HeadersViaInputMap) {
  AnalysisInput In;
  In.Source = "#include \"conf.h\"\nint x;\n"
              "int main(void) { x = LIMIT; return 0; }";
  In.Headers["conf.h"] = "#define LIMIT 42\n";
  AnalysisResult R = Analyzer::analyze(In);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(rangeOf(R, "x"), Interval(42, 42));
}

TEST(Analyzer, StatisticsPopulated) {
  auto R = analyzeSource(RateLimiterSrc, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
  });
  EXPECT_GT(R.Stats.get("fixpoint.iterations"), 0u);
  EXPECT_GT(R.Stats.get("transfer.assignments"), 0u);
  EXPECT_GT(R.AnalysisSeconds, 0.0);
  EXPECT_GT(R.PeakAbstractBytes, 0u);
}
