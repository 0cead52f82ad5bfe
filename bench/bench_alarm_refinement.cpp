//===- bench/bench_alarm_refinement.cpp - Sect. 8 alarm reduction -------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E2 (e2ebench/README.md): the headline result of Sect. 8 — "we had
// 1,200 false alarms with the analyzer [5] we started with. The refinements of
// the analyzer described in this paper reduce the number of alarms down to 11
// (and even 3)". We stack the refinements in the paper's order and print the
// alarm count after each step; the shape to reproduce is a monotone collapse by
// orders of magnitude, ending at (near) zero.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace astral;
using namespace astral::benchutil;

int main() {
  std::puts("E2 — alarms along the refinement sequence (Sect. 8)");
  std::puts("paper: 1,200 alarms with the starting analyzer [5]; 11 after "
            "refinement");
  std::puts("(down to 3 on some program versions).");
  hr();

  codegen::GeneratorConfig C;
  C.TargetLines = fullRuns() ? 8000 : 2500;
  C.Seed = 42;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);

  struct Step {
    const char *Name;
    std::function<void(AnalyzerOptions &)> Config;
  };
  // The paper's refinement order: [5] = intervals + widening thresholds;
  // then the domains this paper adds (Sect. 6.3, 6.2.2-6.2.4, 7.1.5).
  const Step Steps[] = {
      {"intervals+thresholds ([5] baseline)",
       [](AnalyzerOptions &O) { baselineConfig(O); }},
      {"+ clocked domain (6.2.1)",
       [](AnalyzerOptions &O) {
         baselineConfig(O);
         O.Domains.enable(DomainKind::Clocked);
       }},
      {"+ linearization (6.3)",
       [](AnalyzerOptions &O) {
         baselineConfig(O);
         O.Domains.enable(DomainKind::Clocked);
         O.EnableLinearization = true;
       }},
      {"+ octagons (6.2.2)",
       [](AnalyzerOptions &O) {
         baselineConfig(O);
         O.Domains.enable(DomainKind::Clocked);
         O.EnableLinearization = true;
         O.Domains.enable(DomainKind::Octagon);
       }},
      {"+ ellipsoids (6.2.3)",
       [](AnalyzerOptions &O) {
         baselineConfig(O);
         O.Domains.enable(DomainKind::Clocked);
         O.EnableLinearization = true;
         O.Domains.enable(DomainKind::Octagon);
         O.Domains.enable(DomainKind::Ellipsoid);
       }},
      {"+ decision trees (6.2.4)",
       [](AnalyzerOptions &O) {
         // Everything on except trace partitioning.
         O.PartitionFunctions.clear();
       }},
      {"+ trace partitioning (7.1.5) [full]", nullptr},
  };

  std::printf("  %-42s %8s %10s\n", "configuration", "alarms", "time(s)");
  size_t BaselineAlarms = 0, FullAlarms = 0;
  bool First = true;
  size_t Prev = 0;
  bool Monotone = true;
  for (const Step &S : Steps) {
    AnalysisResult R = analyzeFamily(FP, S.Config);
    if (!R.FrontendOk) {
      std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
      return 1;
    }
    std::printf("  %-42s %8zu %10.2f\n", S.Name, R.alarmCount(),
                R.AnalysisSeconds);
    if (First)
      BaselineAlarms = R.alarmCount();
    else if (R.alarmCount() > Prev)
      Monotone = false;
    Prev = R.alarmCount();
    FullAlarms = R.alarmCount();
    First = false;
  }
  hr();
  std::printf("baseline -> full: %zu -> %zu alarms (paper: 1,200 -> 11/3)\n",
              BaselineAlarms, FullAlarms);
  std::printf("monotone decrease along refinements: %s\n",
              Monotone ? "yes" : "NO (unexpected)");
  if (FullAlarms)
    std::printf("reduction factor: %.0fx (paper: ~110x-400x)\n",
                static_cast<double>(BaselineAlarms) /
                    static_cast<double>(FullAlarms));
  else
    std::puts("reduction factor: full precision (0 residual alarms)");
  return 0;
}
