//===- tests/test_iterator.cpp - Iterator tests --------------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests loops, fixpoints,
// inlining, break/continue, unrolling and trace partitioning.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace astral;
using testutil::alarmsOfKind;
using testutil::analyzeSource;
using testutil::rangeOf;

TEST(Iterator, BoundedForLoop) {
  AnalysisResult R = analyzeSource(
      "int s;\nint main(void) {\n"
      "  int i;\n"
      "  for (i = 0; i < 10; i = i + 1) { s = i; }\n"
      "  return 0;\n"
      "}");
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  Interval S = rangeOf(R, "s");
  EXPECT_EQ(S.Lo, 0.0);
  EXPECT_EQ(S.Hi, 9.0);
  EXPECT_TRUE(R.Alarms.empty());
}

TEST(Iterator, NestedLoops) {
  AnalysisResult R = analyzeSource(
      "int s;\nint main(void) {\n"
      "  int i; int j;\n"
      "  for (i = 0; i < 3; i = i + 1) {\n"
      "    for (j = 0; j < 4; j = j + 1) { s = i * 10 + j; }\n"
      "  }\n"
      "  return 0;\n"
      "}");
  Interval S = rangeOf(R, "s");
  EXPECT_GE(S.Lo, 0.0);
  EXPECT_LE(S.Hi, 23.0);
  EXPECT_TRUE(R.Alarms.empty());
}

TEST(Iterator, BreakExitsWithState) {
  // Note: VariableRanges reports the main-loop-head invariant when a main
  // loop exists, so the post-loop state is checked with an assertion.
  AnalysisResult R = analyzeSource(
      "int main(void) {\n"
      "  int i = 0;\n"
      "  while (1) { if (i >= 5) { break; } i = i + 1; }\n"
      "  __astral_assert(i == 5);\n"
      "  return 0;\n"
      "}");
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::AssertFail), 0u)
      << "the break environment must carry i == 5 out of the loop";
}

TEST(Iterator, ContinueSkips) {
  AnalysisResult R = analyzeSource(
      "int odd;\nint main(void) {\n"
      "  int i;\n"
      "  for (i = 0; i < 10; i = i + 1) {\n"
      "    if (i % 2 == 0) { continue; }\n"
      "    odd = i;\n"
      "  }\n"
      "  return 0;\n"
      "}");
  Interval Odd = rangeOf(R, "odd");
  EXPECT_LE(Odd.Hi, 9.0);
  EXPECT_TRUE(R.Alarms.empty());
}

TEST(Iterator, FunctionInliningValueParams) {
  AnalysisResult R = analyzeSource(
      "int r;\n"
      "int add3(int v) { return v + 3; }\n"
      "int main(void) { r = add3(4); return 0; }");
  EXPECT_EQ(rangeOf(R, "r"), Interval(7, 7));
}

TEST(Iterator, PolyvariantContexts) {
  // The same callee analyzed in two contexts must give per-context results
  // (context-sensitive polyvariant analysis, Sect. 5.4).
  AnalysisResult R = analyzeSource(
      "int a; int b;\n"
      "int twice(int v) { return v * 2; }\n"
      "int main(void) { a = twice(3); b = twice(10); return 0; }");
  EXPECT_EQ(rangeOf(R, "a"), Interval(6, 6));
  EXPECT_EQ(rangeOf(R, "b"), Interval(20, 20));
}

TEST(Iterator, CalleeInMainLoopSeesEachWidenedInput) {
  // The callee is re-analyzed from every input the main-loop fixpoint hands
  // it; the accumulator grows through the widening sequence until the
  // callee's clamps stabilize it, and the clamp bounds must survive into
  // the loop invariant.
  AnalysisResult R = analyzeSource("volatile float in;\n"
                                   "float acc;\n"
                                   "float step(float a, float d) {\n"
                                   "  a = a + d;\n"
                                   "  if (a > 100.0f) { a = 100.0f; }\n"
                                   "  if (a < 0.0f) { a = 0.0f; }\n"
                                   "  return a;\n"
                                   "}\n"
                                   "int main(void) {\n"
                                   "  acc = 0.0f;\n"
                                   "  while (1) {\n"
                                   "    acc = step(acc, in);\n"
                                   "    __astral_assert(acc < 101.0f);\n"
                                   "    __astral_wait();\n"
                                   "  }\n"
                                   "  return 0;\n"
                                   "}\n",
                                   [](AnalyzerOptions &O) {
                                     O.VolatileRanges["in"] = Interval(-1, 1);
                                   });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(R.Alarms.size(), 0u);
  Interval Acc = rangeOf(R, "acc");
  EXPECT_GE(Acc.Lo, 0.0);
  EXPECT_LE(Acc.Hi, 100.0);
}

TEST(Iterator, ReferenceParamsWriteThrough) {
  AnalysisResult R = analyzeSource(
      "float s;\n"
      "void setit(float *o, float v) { *o = v; }\n"
      "int main(void) { setit(&s, 2.5f); return 0; }");
  EXPECT_EQ(rangeOf(R, "s"), Interval(2.5, 2.5));
}

TEST(Iterator, ReferenceToArrayElement) {
  AnalysisResult R = analyzeSource(
      "float t[4]; float x;\n"
      "void bump(float *o) { *o = *o + 1.0f; }\n"
      "int main(void) { t[2] = 5.0f; bump(&t[2]); x = t[2]; return 0; }");
  Interval X = rangeOf(R, "x");
  EXPECT_NEAR(X.Lo, 6.0, 1e-5);
  EXPECT_NEAR(X.Hi, 6.0, 1e-5);
}

TEST(Iterator, ArrayReferenceParam) {
  AnalysisResult R = analyzeSource(
      "float buf[4]; float x;\n"
      "void fill(float *b, float v) { int i; "
      "for (i = 0; i < 4; i = i + 1) { b[i] = v; } }\n"
      "int main(void) { fill(buf, 3.0f); x = buf[1]; return 0; }");
  Interval X = rangeOf(R, "x");
  EXPECT_LE(X.Lo, 3.0);
  EXPECT_GE(X.Hi, 3.0);
  EXPECT_TRUE(R.Alarms.empty());
}

TEST(Iterator, LocalsHavockedPerCall) {
  // A local must not leak a stale abstraction from a previous activation.
  AnalysisResult R = analyzeSource(
      "volatile int in;\nint r;\n"
      "int pick(void) { int t; if (in > 0) { t = 1; } else { t = 2; } "
      "return t; }\n"
      "int main(void) { r = pick(); r = pick(); return 0; }");
  Interval Rv = rangeOf(R, "r");
  EXPECT_EQ(Rv.Lo, 1.0);
  EXPECT_EQ(Rv.Hi, 2.0);
}

TEST(Iterator, SynchronousLoopWithClock) {
  // Event counter bounded by the clock (Sect. 6.2.1).
  AnalysisResult R = analyzeSource(
      "volatile int ev;\nint cnt; int mon;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    if (ev > 0) { cnt = cnt + 1; }\n"
      "    mon = cnt * 2;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["ev"] = Interval(0, 1);
        O.ClockMax = 1000000;
      });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::IntOverflow), 0u)
      << "the clocked domain must bound the counter";
  EXPECT_TRUE(R.HasMainLoop);
}

TEST(Iterator, GuardReducesClockOffsets) {
  // A loop with no tick: the guard i < 3 bounds i, and reducing i+clock
  // against i and the clock stops the offsets at once instead of letting
  // threshold widening climb them rung by rung to +inf.
  AnalysisResult R = analyzeSource(
      "int k;\nint main(void) { int i; i = 0; "
      "while (i < 3) { i = i + 1; } k = i; return 0; }");
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_LE(R.Stats.get("fixpoint.iterations"), 5u);
  EXPECT_NE(R.MainLoopInvariant.find("i+clock in [1, 3]"), std::string::npos)
      << R.MainLoopInvariant;
}

TEST(Iterator, CounterOverflowsWithoutClock) {
  AnalysisResult R = analyzeSource(
      "volatile int ev;\nint cnt; int mon;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    if (ev > 0) { cnt = cnt + 1; }\n"
      "    mon = cnt * 2;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["ev"] = Interval(0, 1);
        O.Domains.enable(DomainKind::Clocked, false);
      });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::IntOverflow), 1u);
}

TEST(Iterator, ThresholdWideningStabilizesIntegrator) {
  AnalysisResult R = analyzeSource(
      "volatile float err;\nfloat integ;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    integ = 0.9f * integ + err;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["err"] = Interval(-10, 10);
      });
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::FloatOverflow), 0u);
  Interval I = rangeOf(R, "integ");
  EXPECT_TRUE(std::isfinite(I.Lo));
  EXPECT_TRUE(std::isfinite(I.Hi));
  EXPECT_LE(I.Hi, 1e4) << "the bound should be near a small threshold";
}

TEST(Iterator, PlainWideningLosesIntegrator) {
  AnalysisResult R = analyzeSource(
      "volatile float err;\nfloat integ; float out;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    integ = 0.9f * integ + err;\n"
      "    out = integ * 2.0f;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["err"] = Interval(-10, 10);
        O.WideningWithThresholds = false;
      });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::FloatOverflow), 1u);
}

TEST(Iterator, DelayedWideningCascade) {
  // The Sect. 7.1.3 two-stage example: X := Y + g; Y := 0.5 X + h.
  AnalysisResult R = analyzeSource(
      "volatile float g; volatile float h;\nfloat X; float Y;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    X = Y + g;\n"
      "    Y = 0.5f * X + h;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["g"] = Interval(-1, 1);
        O.VolatileRanges["h"] = Interval(-1, 1);
      });
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::FloatOverflow), 0u);
  Interval Y = rangeOf(R, "Y");
  EXPECT_LE(Y.Hi, 1e3);
}

TEST(Iterator, UnrollingSharpensFirstIteration) {
  const char *Src =
      "volatile float in;\nfloat first;\n_Bool seen;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    if (!seen) { first = in; seen = 1; }\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}";
  auto R = analyzeSource(Src, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-2, 2);
    O.DefaultUnroll = 1;
  });
  EXPECT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_TRUE(R.Alarms.empty());
}

TEST(Iterator, TracePartitioningRemovesCorrelatedAlarm) {
  const char *Src =
      "volatile int mode; volatile float sig;\nfloat out;\n"
      "void select_out(void) {\n"
      "  float scale; float denom;\n"
      "  if (mode == 1) { scale = 0.5f; } else {\n"
      "    if (mode == 2) { scale = 2.0f; } else { scale = 1.0f; } }\n"
      "  if (mode == 1) { denom = scale - 2.0f; } else { denom = scale + "
      "1.0f; }\n"
      "  out = sig / denom;\n"
      "}\n"
      "int main(void) { while (1) { select_out(); __astral_wait(); } "
      "return 0; }";
  auto Tweak = [](AnalyzerOptions &O) {
    O.VolatileRanges["mode"] = Interval(0, 3);
    O.VolatileRanges["sig"] = Interval(-50, 50);
  };
  auto Partitioned = analyzeSource(Src, [&](AnalyzerOptions &O) {
    Tweak(O);
    O.PartitionFunctions.insert("select_out");
  });
  auto Merged = analyzeSource(Src, Tweak);
  EXPECT_EQ(alarmsOfKind(Partitioned, AlarmKind::DivByZero), 0u)
      << "partitioned traces keep the mode/scale correlation";
  EXPECT_GE(alarmsOfKind(Merged, AlarmKind::DivByZero), 1u)
      << "early merging loses the correlation";
}

TEST(Iterator, MainLoopInvariantRecorded) {
  AnalysisResult R = analyzeSource(
      "volatile float in;\nfloat x;\n"
      "int main(void) { while (1) { x = in; __astral_wait(); } return 0; }",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["in"] = Interval(0, 1);
      });
  EXPECT_TRUE(R.HasMainLoop);
  EXPECT_GT(R.MainLoopCensus.DumpBytes, 0u);
  EXPECT_GE(R.MainLoopCensus.IntervalAssertions, 1u);
}
