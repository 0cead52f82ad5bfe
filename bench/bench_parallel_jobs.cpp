//===- bench/bench_parallel_jobs.cpp - Speedup vs --jobs ----------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// The parallel-analyzer experiment (Monniaux, "The parallel implementation
// of the Astrée static analyzer"): wall-clock speedup against the worker
// count on the largest quick family member, in the granularities the
// Scheduler offers:
//
//   single — one file. Within a file, AnalyzerOptions::Jobs fans only the
//            trace partitions of `if` statements inside `@astral
//            partition` functions out over the pool.
//   partition — examples/partitioned_switch.cpp: the same trace-partition
//            grain on the controller that exists to exercise it. The
//            controller is small, so each configuration is timed over
//            repeated whole analyses.
//   batch  — AnalysisSession::analyzeBatch schedules whole copies of the
//            file across the same pool (the paper family is multi-module;
//            multi-file throughput is the production shape). This is the
//            near-linear series.
//
// Every configuration's report is checked identical to the sequential one
// (the determinism guarantee); a mismatch fails the bench.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/SpecDirectives.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace astral;
using namespace astral::benchutil;

namespace {

/// Report fingerprint for the determinism check.
std::string fingerprint(const AnalysisResult &R) {
  std::string F = std::to_string(R.alarmCount());
  for (const Alarm &A : R.Alarms)
    F += "|" + std::to_string(A.Loc.Line) + ":" + A.Message;
  for (const auto &[Name, Itv] : R.VariableRanges)
    F += "|" + Name + "=" + Itv.toString();
  F += "|" + R.MainLoopInvariant;
  return F;
}

/// Loads examples/partitioned_switch.cpp and extracts the input program it
/// embeds as a raw-string literal (the longest one, the same convention
/// astral-cli applies to example harnesses). The bench scripts run from the
/// repo root; the parent fallbacks cover a build-dir cwd.
std::string loadPartitionedExample() {
  std::string Text;
  for (const char *Path : {"examples/partitioned_switch.cpp",
                           "../examples/partitioned_switch.cpp",
                           "../../examples/partitioned_switch.cpp"}) {
    std::ifstream In(Path);
    if (In) {
      std::ostringstream SS;
      SS << In.rdbuf();
      Text = SS.str();
      break;
    }
  }
  std::string Best;
  size_t Pos = 0;
  while ((Pos = Text.find("R\"(", Pos)) != std::string::npos) {
    size_t Start = Pos + 3;
    size_t End = Text.find(")\"", Start);
    if (End == std::string::npos)
      break;
    if (End - Start > Best.size())
      Best = Text.substr(Start, End - Start);
    Pos = End + 2;
  }
  return Best;
}

} // namespace

int main() {
  unsigned Lines = fullRuns() ? 16000 : 4000;
  unsigned Copies = 8;
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel speedup vs jobs — family member of ~%u lines, "
              "batch of %u copies\n",
              Lines, Copies);
  std::printf("PARALLEL hardware cores=%u\n", Cores);
  if (Cores == 1)
    std::puts("note: single hardware thread — speedups are bounded by 1.0 "
              "here; the series only checks overhead and determinism.");
  hr();

  codegen::GeneratorConfig C;
  C.TargetLines = Lines;
  C.Seed = 1234;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);

  const unsigned JobsSeries[] = {1, 2, 4, 8};

  // -- single-file: trace partitions of one family member -----------------
  std::string SeqPrint;
  double SeqSingle = 0.0;
  for (unsigned Jobs : JobsSeries) {
    AnalysisInput In = familyInput(FP);
    In.Options.Jobs = Jobs;
    Timer T;
    AnalysisResult R = Analyzer::analyze(In);
    double Sec = T.seconds();
    if (!R.FrontendOk) {
      std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
      return 1;
    }
    std::string Print = fingerprint(R);
    if (Jobs == 1) {
      SeqPrint = Print;
      SeqSingle = Sec;
    } else if (Print != SeqPrint) {
      std::printf("DETERMINISM VIOLATION: single jobs=%u report differs\n",
                  Jobs);
      return 1;
    }
    std::printf("PARALLEL single jobs=%u seconds=%.3f speedup=%.2f "
                "alarms=%zu\n",
                Jobs, Sec, SeqSingle / Sec, R.alarmCount());
  }
  hr();

  // -- partition: trace-partition dispatch on the partitioned example -----
  std::string PartSource = loadPartitionedExample();
  if (PartSource.empty()) {
    std::puts("error: examples/partitioned_switch.cpp not found from this "
              "cwd — run from the repo root.");
    return 1;
  }
  const unsigned PartReps = fullRuns() ? 80 : 16;
  std::string PartSeqPrint;
  double PartSeqSec = 0.0;
  for (unsigned Jobs : JobsSeries) {
    AnalysisInput In;
    In.Source = PartSource;
    applySpecDirectives(In.Source, In.Options);
    In.Options.Jobs = Jobs;
    std::string Print;
    Timer T;
    for (unsigned Rep = 0; Rep < PartReps; ++Rep) {
      AnalysisResult R = Analyzer::analyze(In);
      if (!R.FrontendOk) {
        std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
        return 1;
      }
      Print = fingerprint(R);
    }
    double Sec = T.seconds();
    if (Jobs == 1) {
      PartSeqPrint = Print;
      PartSeqSec = Sec;
    } else if (Print != PartSeqPrint) {
      std::printf("DETERMINISM VIOLATION: partition jobs=%u report differs\n",
                  Jobs);
      return 1;
    }
    std::printf("PARALLEL partition jobs=%u seconds=%.3f speedup=%.2f "
                "reps=%u\n",
                Jobs, Sec, PartSeqSec / Sec, PartReps);
  }
  hr();

  // -- batch: whole files across the pool ---------------------------------
  double SeqBatch = 0.0;
  for (unsigned Jobs : JobsSeries) {
    std::vector<AnalysisInput> Inputs;
    for (unsigned I = 0; I < Copies; ++I) {
      AnalysisInput In = familyInput(FP);
      In.Options.Jobs = Jobs;
      In.FileName = "member" + std::to_string(I) + ".c";
      Inputs.push_back(std::move(In));
    }
    Timer T;
    std::vector<AnalysisResult> Results =
        AnalysisSession::analyzeBatch(Inputs);
    double Sec = T.seconds();
    for (const AnalysisResult &R : Results)
      if (fingerprint(R) != SeqPrint) {
        std::printf("DETERMINISM VIOLATION: batch jobs=%u report differs\n",
                    Jobs);
        return 1;
      }
    if (Jobs == 1)
      SeqBatch = Sec;
    std::printf("PARALLEL batch jobs=%u files=%u seconds=%.3f speedup=%.2f\n",
                Jobs, Copies, Sec, SeqBatch / Sec);
  }
  hr();
  std::puts("expected shape: batch speedup grows toward the worker count "
            "(whole-file dispatch);");
  std::puts("single-file speedup tracks how much of the member's work is "
            "partition fan-out on a multi-core host.");
  return 0;
}
