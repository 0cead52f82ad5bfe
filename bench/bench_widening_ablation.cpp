//===- bench/bench_widening_ablation.cpp - Sect. 7.1 widening strategies -------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E6 (e2ebench/README.md): ablation of the iteration strategies:
//   - widening with thresholds (7.1.2) recovers the integrator bound
//     M = max|beta| / (1 - alpha);
//   - delayed widening (7.1.3) keeps the X := Y + g; Y := aX + h cascade
//     from over-shooting to a much larger threshold;
//   - the floating iteration perturbation (7.1.4) guards termination.
// We analyze the integrator/cascade idioms under each strategy and report
// alarms, inferred bounds and iteration counts. Two counter loops then show
// whether threshold widening climbs the whole ladder: the x+clock offsets
// of the clocked domain (6.2.1) stop one rung above x + ClockMax only when
// they are reduced against x and the clock.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace astral;
using namespace astral::benchutil;

namespace {
const char *IntegratorSrc =
    "volatile float err;\nfloat integ; float out;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    integ = 0.9f * integ + err;\n"
    "    out = integ * 2.0f;\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

const char *CascadeSrc =
    "volatile float g; volatile float h;\nfloat X; float Y;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    X = Y + g;\n"
    "    Y = 0.5f * X + h;\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

/// A counter loop with no clock tick: only the guard bounds i and i+clock.
const char *TicklessCounterSrc =
    "int k;\nint main(void) { int i; i = 0; "
    "while (i < 3) { i = i + 1; } k = i; return 0; }";

/// The Sect. 6.2.1 event counter in a clocked main loop.
const char *ClockedCounterSrc =
    "volatile int ev;\nint cnt;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    if (ev > 0) { cnt = cnt + 1; }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

double boundOf(const AnalysisResult &R, const char *Name) {
  for (const auto &[N, I] : R.VariableRanges)
    if (N == Name)
      return I.magnitude();
  return -1.0;
}

AnalysisResult run(const char *Src,
                   const std::function<void(AnalyzerOptions &)> &Tweak) {
  AnalysisInput In;
  In.Source = Src;
  In.Options.VolatileRanges["err"] = Interval(-10, 10);
  In.Options.VolatileRanges["g"] = Interval(-1, 1);
  In.Options.VolatileRanges["h"] = Interval(-1, 1);
  In.Options.VolatileRanges["ev"] = Interval(0, 1);
  In.Options.ClockMax = 1e6;
  if (Tweak)
    Tweak(In.Options);
  return Analyzer::analyze(In);
}
} // namespace

int main() {
  std::puts("E6 — widening strategy ablation (Sect. 7.1.2/7.1.3/7.1.4)");
  std::puts("integrator: x' = 0.9x + [-10,10]  (true bound 100; paper: any "
            "threshold >= M");
  std::puts("proves it). cascade: X = Y + g; Y = 0.5X + h (true bounds "
            "|Y|<=3, |X|<=4;");
  std::puts("paper 7.1.3: plain per-step widening chases the pair upward).");
  hr();

  struct Row {
    const char *Name;
    std::function<void(AnalyzerOptions &)> Config;
  };
  const Row Rows[] = {
      {"plain widening (no thresholds)",
       [](AnalyzerOptions &O) {
         O.WideningWithThresholds = false;
         O.DelayedWidening = false;
       }},
      {"thresholds only",
       [](AnalyzerOptions &O) { O.DelayedWidening = false; }},
      {"thresholds + delayed widening", nullptr},
  };

  std::puts("integrator idiom:");
  std::printf("  %-34s %8s %14s %12s\n", "strategy", "alarms", "|integ| bound",
              "iterations");
  for (const Row &RowCfg : Rows) {
    AnalysisResult R = run(IntegratorSrc, RowCfg.Config);
    std::printf("  %-34s %8zu %14.4g %12llu\n", RowCfg.Name, R.alarmCount(),
                boundOf(R, "integ"),
                static_cast<unsigned long long>(
                    R.Stats.get("fixpoint.iterations")));
  }

  std::puts("cascade idiom (7.1.3):");
  std::printf("  %-34s %8s %14s %12s\n", "strategy", "alarms", "|Y| bound",
              "iterations");
  for (const Row &RowCfg : Rows) {
    AnalysisResult R = run(CascadeSrc, RowCfg.Config);
    std::printf("  %-34s %8zu %14.4g %12llu\n", RowCfg.Name, R.alarmCount(),
                boundOf(R, "Y"),
                static_cast<unsigned long long>(
                    R.Stats.get("fixpoint.iterations")));
  }

  std::puts("counter loops (clocked domain, default strategy):");
  std::printf("  %-34s %8s %12s %12s\n", "loop", "alarms", "iterations",
              "widenings");
  const std::pair<const char *, const char *> Counters[] = {
      {"tick-less counter (i < 3)", TicklessCounterSrc},
      {"clocked main-loop counter", ClockedCounterSrc},
  };
  for (const auto &[Name, Src] : Counters) {
    AnalysisResult R = run(Src, nullptr);
    std::printf("  %-34s %8zu %12llu %12llu\n", Name, R.alarmCount(),
                static_cast<unsigned long long>(
                    R.Stats.get("fixpoint.iterations")),
                static_cast<unsigned long long>(
                    R.Stats.get("fixpoint.widenings")));
  }
  hr();
  std::puts("expected shape: plain widening alarms (bound = float max); "
            "thresholds prove");
  std::puts("boundedness; delayed widening gives the same-or-tighter bound "
            "on the cascade;");
  std::puts("the counters stabilize within a few widenings instead of "
            "climbing every rung.");
  return 0;
}
