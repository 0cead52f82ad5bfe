//===- bench/BenchUtil.h - Shared experiment harness helpers -----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment harnesses E1-E8 (listed in the "The
/// paper-experiment harnesses" section of e2ebench/README.md). Each bench
/// binary regenerates one paper artifact and prints paper-vs-measured rows;
/// absolute numbers differ from the 2003 testbed, the *shape* is what must
/// reproduce.
///
/// Set ASTRAL_BENCH_FULL=1 for the full-size sweeps (several minutes).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_BENCH_BENCHUTIL_H
#define ASTRAL_BENCH_BENCHUTIL_H

#include "analyzer/Analyzer.h"
#include "codegen/FamilyGenerator.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace astral {
namespace benchutil {

inline bool fullRuns() {
  const char *V = std::getenv("ASTRAL_BENCH_FULL");
  return V && V[0] == '1';
}

/// Builds the AnalysisInput for a family program with its environment
/// specification (volatile ranges, partitioned functions, documented
/// thresholds) — the end-user parametrization of Sect. 3.2.
inline AnalysisInput
familyInput(const codegen::FamilyProgram &FP,
            const std::function<void(AnalyzerOptions &)> &Tweak = nullptr) {
  AnalysisInput In;
  In.Source = FP.Source;
  In.Options.VolatileRanges = FP.VolatileRanges;
  In.Options.PartitionFunctions = FP.PartitionFunctions;
  for (double T : FP.DocumentedThresholds)
    In.Options.ExtraThresholds.push_back(T);
  In.Options.ClockMax = 1.0e6;
  if (Tweak)
    Tweak(In.Options);
  return In;
}

inline AnalysisResult
analyzeFamily(const codegen::FamilyProgram &FP,
              const std::function<void(AnalyzerOptions &)> &Tweak = nullptr) {
  return Analyzer::analyze(familyInput(FP, Tweak));
}

/// Disables every refinement this paper added over the starting-point
/// analyzer [5] (interval baseline).
inline void baselineConfig(AnalyzerOptions &O) {
  O.Domains = DomainSet::intervalOnly();
  O.EnableLinearization = false;
  O.PartitionFunctions.clear();
}

inline void hr() {
  std::puts("-----------------------------------------------------------------"
            "-----------");
}

} // namespace benchutil
} // namespace astral

#endif // ASTRAL_BENCH_BENCHUTIL_H
