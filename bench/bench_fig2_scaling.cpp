//===- bench/bench_fig2_scaling.cpp - Fig. 2: time vs program size ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E1 (e2ebench/README.md): Fig. 2 plots total analysis time against
// program size (kLOC) for the family of programs, "using a slow but precise
// iteration strategy", on a 2.4 GHz PC: roughly 400 s at 10 kLOC up to ~7,300 s
// at 75 kLOC — super-linear but polynomial growth. We regenerate the same
// series on family members produced by the generator; the shape (monotone,
// super-linear, no blow-up) is the reproduction target.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <vector>

using namespace astral;
using namespace astral::benchutil;

namespace {
// Paper series read off Fig. 2 (approximate, seconds on 2003 hardware).
struct PaperPoint {
  double KLoc;
  double Seconds;
};
const PaperPoint PaperSeries[] = {
    {10, 400}, {20, 1100}, {40, 2700}, {60, 5000}, {75, 7300}};
} // namespace

int main() {
  std::puts("E1 / Fig. 2 — total analysis time vs program size");
  std::puts("paper series (2.4 GHz PC, 2003):");
  for (const PaperPoint &P : PaperSeries)
    std::printf("  %5.0f kLOC  ->  %6.0f s\n", P.KLoc, P.Seconds);
  hr();

  std::vector<unsigned> Lines = {1000, 2000, 4000, 8000};
  if (fullRuns()) {
    Lines.push_back(16000);
    Lines.push_back(32000);
    Lines.push_back(75000);
  }

  std::puts("measured (this machine, full domain stack, packing "
            "optimization off):");
  std::printf("  %8s %9s %9s %10s %8s %10s\n", "lines", "kLOC", "time(s)",
              "s/kLOC", "alarms", "cells");
  for (unsigned L : Lines) {
    codegen::GeneratorConfig C;
    C.TargetLines = L;
    C.Seed = 1234;
    codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);
    AnalysisResult R = analyzeFamily(FP);
    if (!R.FrontendOk) {
      std::printf("  frontend failed: %s\n", R.FrontendErrors.c_str());
      return 1;
    }
    double KLoc = FP.LineCount / 1000.0;
    double PerK = R.AnalysisSeconds / KLoc;
    std::printf("  %8u %9.1f %9.2f %10.3f %8zu %10llu\n", FP.LineCount, KLoc,
                R.AnalysisSeconds, PerK, R.alarmCount(),
                static_cast<unsigned long long>(R.NumCells));
  }
  hr();
  std::puts("expected shape: time grows monotonically and at least linearly "
            "in kLOC (s/kLOC");
  std::puts("non-decreasing), matching the curvature of Fig. 2.");
  return 0;
}
