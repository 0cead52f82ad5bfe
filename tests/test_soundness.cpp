//===- tests/test_soundness.cpp - Soundness / failure injection -----------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Soundness discipline: a genuine run-time error must be reported under
// EVERY analyzer configuration — refinements may only remove *false*
// alarms. These tests sweep the configuration matrix over programs with
// injected bugs, and check concrete executions against inferred ranges.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analyzer/SpecDirectives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace astral;
using testutil::alarmsOfKind;
using testutil::analyzeSource;
using testutil::rangeOf;

namespace {
/// The 32 on/off combinations of the five domain refinements.
struct Config {
  bool Clock, Oct, Ell, Tree, Lin;
};

Config configFromMask(unsigned Mask) {
  return Config{(Mask & 1) != 0, (Mask & 2) != 0, (Mask & 4) != 0,
                (Mask & 8) != 0, (Mask & 16) != 0};
}

void applyConfig(AnalyzerOptions &O, Config C) {
  O.Domains = DomainSet::intervalOnly();
  O.Domains.enable(DomainKind::Clocked, C.Clock);
  O.Domains.enable(DomainKind::Octagon, C.Oct);
  O.Domains.enable(DomainKind::Ellipsoid, C.Ell);
  O.Domains.enable(DomainKind::DecisionTree, C.Tree);
  O.EnableLinearization = C.Lin;
}
} // namespace

class ConfigSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConfigSweep, RealDivisionByZeroAlwaysReported) {
  Config C = configFromMask(GetParam());
  auto R = analyzeSource(
      "volatile int in;\nint q;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    int d = in;\n"
      "    q = 100 / d; /* divisor range includes 0: genuine bug */\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [&](AnalyzerOptions &O) {
        O.VolatileRanges["in"] = Interval(0, 3);
        applyConfig(O, C);
      });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_GE(alarmsOfKind(R, AlarmKind::DivByZero), 1u)
      << "mask=" << GetParam();
}

TEST_P(ConfigSweep, RealOutOfBoundsAlwaysReported) {
  Config C = configFromMask(GetParam());
  auto R = analyzeSource(
      "volatile int in;\nint t[4]; int x;\n"
      "int main(void) {\n"
      "  int i = in; /* in [0, 4]: index 4 overflows */\n"
      "  x = t[i];\n"
      "  return 0;\n"
      "}",
      [&](AnalyzerOptions &O) {
        O.VolatileRanges["in"] = Interval(0, 4);
        applyConfig(O, C);
      });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::ArrayBounds), 1u)
      << "mask=" << GetParam();
}

TEST_P(ConfigSweep, DefiniteOverflowAlwaysReported) {
  Config C = configFromMask(GetParam());
  auto R = analyzeSource(
      "int x;\n"
      "int main(void) { x = 2147483647; x = x + 1; return 0; }",
      [&](AnalyzerOptions &O) { applyConfig(O, C); });
  EXPECT_GE(alarmsOfKind(R, AlarmKind::IntOverflow), 1u)
      << "mask=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigSweep, ::testing::Range(0u, 32u));

// --- Concrete-execution cross-checks ---------------------------------------

TEST(Soundness, RangesContainConcreteRun) {
  // Simulate the program concretely with specific volatile sequences and
  // check every state is inside the inferred invariant ranges.
  auto R = analyzeSource(
      "volatile float in;\nfloat y;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    float u = in;\n"
      "    if (u - y > 8.0f) { y = y + 8.0f; }\n"
      "    else { if (y - u > 8.0f) { y = y - 8.0f; } else { y = u; } }\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["in"] = Interval(-100, 100);
      });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  Interval YRange = rangeOf(R, "y");
  ASSERT_FALSE(YRange.isBottom());

  // Concrete rate limiter with adversarial inputs.
  float Y = 0.0f;
  std::vector<float> Inputs{100, 100, 100, 100, -100, -100, 0, 50, -50};
  for (int Round = 0; Round < 200; ++Round) {
    float U = Inputs[Round % Inputs.size()];
    if (U - Y > 8.0f)
      Y = Y + 8.0f;
    else if (Y - U > 8.0f)
      Y = Y - 8.0f;
    else
      Y = U;
    ASSERT_TRUE(YRange.contains(Y)) << "concrete y=" << Y << " escapes "
                                    << YRange.toString();
  }
}

TEST(Soundness, FlightControlIntegratorContainsWorstCaseRun) {
  // The reference member of examples/flight_control.cpp (the flight_control
  // golden), driven concretely with the autopilot engaged. The integrator is
  // a convex mix of 0 and past err values, and |err| <= 60 + 15 * sum|h_k|
  // ~= 199.1, where h is the impulse response of the stick filter
  // X' = 1.5 X - 0.7 Y + t (sum|h_k| ~= 9.27). The drives are the sign of h,
  // time-reversed so that X reaches sum|h_k| at the end of every window
  // (the err supremum), and a constant stick, the integrator's own worst
  // case (the filter chain's impulse response is positive), each with
  // sensed_pitch at -60 and mirrored at +60.
  const char *Src = R"(
    /* @astral volatile stick -1 1
       @astral volatile sensed_pitch -60 60
       @astral volatile autopilot_on 0 1
       @astral volatile gain_sel 0 3
       @astral clock-max 3.6e6
       @astral partition select_gain */
    volatile float stick;
    volatile float sensed_pitch;
    volatile int   autopilot_on;
    volatile int   gain_sel;
    float X; float Y;
    float filtered;
    float integrator;
    float command;
    int   engaged_ticks;
    float select_gain(void) {
      float g = 0.25f;
      if (gain_sel == 1) { g = 0.5f; }
      if (gain_sel == 2) { g = 0.75f; }
      if (gain_sel == 3) { g = 1.0f; }
      return g;
    }
    void filter_step(void) {
      float t = stick;
      float Xn = 1.5f * X - 0.7f * Y + t;
      Y = X;
      X = Xn;
      filtered = 0.5f * X;
    }
    int main(void) {
      while (1) {
        float err;
        float g;
        filter_step();
        err = filtered * 30.0f - sensed_pitch;
        g = select_gain();
        if (autopilot_on != 0) {
          integrator = integrator * 0.99f + err * 0.01f;
          engaged_ticks = engaged_ticks + 1;
        } else {
          integrator = 0.0f;
          engaged_ticks = 0;
        }
        command = g * (err + integrator);
        if (command > 25.0f)  { command = 25.0f; }
        if (command < -25.0f) { command = -25.0f; }
        __astral_assert(command <= 25.0f);
        __astral_wait();
      }
      return 0;
    }
  )";
  auto R = analyzeSource(Src, [&](AnalyzerOptions &O) {
    ASSERT_TRUE(applySpecDirectives(Src, O).empty());
  });
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  Interval Integ = rangeOf(R, "integrator");
  ASSERT_FALSE(Integ.isBottom());

  // The filter's impulse response, and its signs time-reversed over a
  // window long enough for h to decay (|poles| = sqrt(0.7)).
  const int Window = 80;
  std::vector<float> SignH(Window);
  double H1 = 0.0, H0 = 1.0, SumAbsH = 0.0;
  for (int K = 0; K < Window; ++K) {
    SumAbsH += std::fabs(H0);
    SignH[Window - 1 - K] = H0 >= 0 ? 1.0f : -1.0f;
    double Next = 1.5 * H0 - 0.7 * H1;
    H1 = H0;
    H0 = Next;
  }
  ASSERT_NEAR(SumAbsH, 9.27, 0.01);

  const int Ticks = 3000;
  double MaxErr = 0.0, MaxInteg = 0.0;
  for (bool ConstStick : {false, true}) {
    for (float Side : {1.0f, -1.0f}) {
      float X = 0.0f, Y = 0.0f, Integrator = 0.0f;
      for (int Tick = 0; Tick < Ticks; ++Tick) {
        float Stick = Side * (ConstStick ? 1.0f : SignH[Tick % Window]);
        float SensedPitch = -60.0f * Side;
        float T = Stick;
        float Xn = 1.5f * X - 0.7f * Y + T;
        Y = X;
        X = Xn;
        float Filtered = 0.5f * X;
        float Err = Filtered * 30.0f - SensedPitch;
        Integrator = Integrator * 0.99f + Err * 0.01f;
        MaxErr = std::max(MaxErr, std::fabs(double(Err)));
        MaxInteg = std::max(MaxInteg, std::fabs(double(Integrator)));
        ASSERT_TRUE(Integ.contains(Integrator))
            << "concrete integrator=" << Integrator << " at tick " << Tick
            << " escapes " << Integ.toString();
      }
    }
  }
  // The drives reach the err supremum and the integrator's worst case.
  EXPECT_GT(MaxErr, 199.0);
  EXPECT_GT(MaxInteg, 134.9);
}

TEST(Soundness, CounterRangeContainsConcrete) {
  auto R = analyzeSource(
      "volatile int ev;\nint cnt;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    if (ev > 0) { cnt = cnt + 1; }\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["ev"] = Interval(0, 1);
        O.ClockMax = 1000;
      });
  Interval Cnt = rangeOf(R, "cnt");
  // Concrete worst case: the event fires every tick for ClockMax ticks.
  int Concrete = 0;
  for (int Tick = 0; Tick < 1000; ++Tick)
    ++Concrete;
  EXPECT_TRUE(Cnt.contains(Concrete));
  EXPECT_TRUE(Cnt.contains(0));
}

TEST(Soundness, RefinementsOnlyRemoveFalseAlarms) {
  // On a correct program, turning domains ON must never create alarms that
  // the baseline lacks at the same (point, kind).
  const char *Src =
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
  auto Tweak = [](AnalyzerOptions &O) {
    O.VolatileRanges["sens"] = Interval(0, 10);
  };
  auto Full = analyzeSource(Src, Tweak);
  auto Base = analyzeSource(Src, [&](AnalyzerOptions &O) {
    Tweak(O);
    O.Domains = DomainSet::intervalOnly();
    O.EnableLinearization = false;
  });
  std::set<std::pair<uint32_t, int>> BaseAlarms;
  for (const Alarm &A : Base.Alarms)
    BaseAlarms.insert({A.Point, static_cast<int>(A.Kind)});
  for (const Alarm &A : Full.Alarms)
    EXPECT_TRUE(BaseAlarms.count({A.Point, static_cast<int>(A.Kind)}))
        << "refinement introduced a new alarm: " << A.Message;
}

TEST(Soundness, AssertNeverMasked) {
  // An assertion that genuinely fails must alarm even with every domain on.
  auto R = analyzeSource(
      "volatile int in;\n"
      "int main(void) {\n"
      "  int v = in;\n"
      "  __astral_assert(v < 5); /* v may be 5 */\n"
      "  return 0;\n"
      "}",
      [](AnalyzerOptions &O) {
        O.VolatileRanges["in"] = Interval(0, 5);
      });
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::AssertFail), 1u);
}
