//===- bench/bench_packing_opt.cpp - Sect. 7.2.2 packing optimization ----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E3 (e2ebench/README.md): Sect. 7.2.1/7.2.2 + Sect. 8 — "on a
// program of 75 kLOC, 2,600 octagons were detected, each containing four
// variables on average ... only 400 out of the 2,600 original octagons were in
// fact useful", and reusing the useful-pack list "reduces memory consumption
// from 550 Mb to 150 Mb and time from 1h40 to 40min". We analyze a family
// member twice — all syntactic packs, then useful-only — and report the pack
// counts, time and abstract-state memory. Shape: useful packs are a small
// fraction; time and memory drop; precision is unchanged.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <set>

using namespace astral;
using namespace astral::benchutil;

int main() {
  std::puts("E3 — octagon packing optimization (Sect. 7.2.2)");
  std::puts("paper: 2,600 packs detected / 400 useful (75 kLOC); reuse of "
            "the useful list:");
  std::puts("memory 550 Mb -> 150 Mb, time 1h40 -> 40min; average pack size "
            "~4 variables.");
  hr();

  codegen::GeneratorConfig C;
  C.TargetLines = fullRuns() ? 16000 : 4000;
  C.Seed = 7;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);

  // Night run: full analysis with every syntactic pack (7.2.2: "generate at
  // night an up-to-date list of good octagons by a full, lengthy analysis").
  AnalysisResult Full = analyzeFamily(FP);
  if (!Full.FrontendOk) {
    std::printf("frontend failed: %s\n", Full.FrontendErrors.c_str());
    return 1;
  }

  // Day run: restricted to the packs the night run proved useful.
  std::set<uint32_t> Useful(Full.UsefulOctPacks.begin(),
                            Full.UsefulOctPacks.end());
  AnalysisResult Opt = analyzeFamily(FP, [&](AnalyzerOptions &O) {
    O.RestrictOctPacks = Useful;
  });

  std::printf("  %-28s %12s %12s\n", "", "all packs", "useful only");
  std::printf("  %-28s %12llu %12llu\n", "octagon packs",
              static_cast<unsigned long long>(Full.packCount(DomainKind::Octagon)),
              static_cast<unsigned long long>(Opt.packCount(DomainKind::Octagon)));
  std::printf("  %-28s %12.1f %12s\n", "avg pack size (vars)",
              Full.avgPackCells(DomainKind::Octagon), "-");
  std::printf("  %-28s %12zu %12zu\n", "useful packs",
              Full.UsefulOctPacks.size(), Opt.UsefulOctPacks.size());
  std::printf("  %-28s %12.2f %12.2f\n", "analysis time (s)",
              Full.AnalysisSeconds, Opt.AnalysisSeconds);
  std::printf("  %-28s %12.1f %12.1f\n", "abstract-state peak (MB)",
              Full.PeakAbstractBytes / 1048576.0,
              Opt.PeakAbstractBytes / 1048576.0);
  std::printf("  %-28s %12zu %12zu\n", "alarms", Full.alarmCount(),
              Opt.alarmCount());
  hr();
  double Frac = Full.packCount(DomainKind::Octagon)
                    ? 100.0 * static_cast<double>(Full.UsefulOctPacks.size()) /
                          static_cast<double>(Full.packCount(DomainKind::Octagon))
                    : 0.0;
  std::printf("useful fraction: %.0f%% (paper: 400/2600 = 15%%)\n", Frac);
  std::printf("speedup: %.2fx (paper: 2.5x)   precision unchanged: %s\n",
              Opt.AnalysisSeconds > 0
                  ? Full.AnalysisSeconds / Opt.AnalysisSeconds
                  : 0.0,
              Full.alarmCount() == Opt.alarmCount() ? "yes" : "NO");
  return 0;
}
