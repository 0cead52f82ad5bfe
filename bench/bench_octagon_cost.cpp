//===- bench/bench_octagon_cost.cpp - Sect. 6.2.2 octagon cost model -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E7 (e2ebench/README.md, "The paper-experiment harnesses"):
// Sect. 6.2.2 — octagon operations are "cubic in
// time and quadratic in space (w.r.t. the number of variables)", which is
// why the analyzer partitions variables into many small packs ("a linear
// number of constant-sized octagons, effectively resulting in a cost linear
// in the size of the program", 7.2.1). We measure closure cost against pack
// size (expect ~k^3 growth for the full sweep, ~k^2 for the incremental
// closure of a single dirty variable) and total cost against the number of
// packs at fixed size (expect linear growth).
//
// The plain-text OCTCLOSE section at the end runs the fig2 scaling members
// through the whole analyzer (which always closes incrementally) and prints
// machine-readable rows of its closure work that scripts/bench_domains.sh
// folds into BENCH_octagon.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "domains/Octagon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

using namespace astral;
using namespace astral::benchutil;

namespace {
/// The micro-benchmarks' closure meter, installed around their run.
memtrack::Counter BenchMeter;

Octagon makeChainOctagon(int K, OctClosureMode Mode) {
  std::vector<CellId> Cells;
  for (int I = 0; I < K; ++I)
    Cells.push_back(static_cast<CellId>(I));
  Octagon O(Cells, Mode);
  auto Top = [](CellId) { return Interval::top(); };
  for (int I = 0; I + 1 < K; ++I) {
    LinearForm F = LinearForm::var(static_cast<CellId>(I))
                       .sub(LinearForm::var(static_cast<CellId>(I + 1)))
                       .add(LinearForm::constant(Interval::point(-1.0)));
    O.guardLe(F, Top);
  }
  O.meetVarInterval(0, Interval(0, 1));
  return O;
}

// One closure of a chain octagon whose last mutation dirtied a single
// variable — the shape of the post-transfer closure on the hot path. The
// full sweep re-runs Floyd-Warshall (~K^3); the incremental discipline
// propagates through the dirty rows/columns only (~K^2).
void benchClosureBySize(benchmark::State &State, OctClosureMode Mode) {
  int K = static_cast<int>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    Octagon O = makeChainOctagon(K, Mode);
    State.ResumeTiming();
    O.close();
    benchmark::DoNotOptimize(O.isBottom());
  }
  State.SetComplexityN(K);
}

void benchClosureBySizeFull(benchmark::State &State) {
  benchClosureBySize(State, OctClosureMode::Full);
}

void benchClosureBySizeIncremental(benchmark::State &State) {
  benchClosureBySize(State, OctClosureMode::Incremental);
}

void benchManySmallPacks(benchmark::State &State) {
  int Packs = static_cast<int>(State.range(0));
  constexpr int PackSize = 4; // The paper's average pack size.
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<Octagon> Os;
    Os.reserve(Packs);
    for (int P = 0; P < Packs; ++P)
      Os.push_back(makeChainOctagon(PackSize, OctClosureMode::Incremental));
    State.ResumeTiming();
    for (Octagon &O : Os)
      O.close();
    benchmark::DoNotOptimize(Os.size());
  }
  State.SetComplexityN(Packs);
}

void benchJoinBySize(benchmark::State &State) {
  int K = static_cast<int>(State.range(0));
  Octagon A = makeChainOctagon(K, OctClosureMode::Incremental);
  A.close();
  Octagon B = makeChainOctagon(K, OctClosureMode::Incremental);
  B.meetVarInterval(0, Interval(5, 9));
  B.close();
  for (auto _ : State) {
    Octagon J(A);
    J.joinWith(B);
    benchmark::DoNotOptimize(J.isBottom());
  }
}

// indexOf runs once per transfer per pack; compare the sorted flat lookup
// against the linear scan it replaced.
void benchIndexOfFlat(benchmark::State &State) {
  int K = static_cast<int>(State.range(0));
  // Non-contiguous cell ids, as produced by real packings.
  std::vector<CellId> Cells;
  for (int I = 0; I < K; ++I)
    Cells.push_back(static_cast<CellId>(7 * I + 3));
  Octagon O(Cells, OctClosureMode::Incremental);
  for (auto _ : State) {
    int Acc = 0;
    for (CellId C = 0; C < static_cast<CellId>(7 * K + 4); ++C)
      Acc += O.indexOf(C);
    benchmark::DoNotOptimize(Acc);
  }
}

void benchIndexOfLinearReference(benchmark::State &State) {
  int K = static_cast<int>(State.range(0));
  std::vector<CellId> Cells;
  for (int I = 0; I < K; ++I)
    Cells.push_back(static_cast<CellId>(7 * I + 3));
  auto LinearIndexOf = [&Cells](CellId C) -> int {
    for (size_t I = 0; I < Cells.size(); ++I)
      if (Cells[I] == C)
        return static_cast<int>(I);
    return -1;
  };
  for (auto _ : State) {
    int Acc = 0;
    for (CellId C = 0; C < static_cast<CellId>(7 * K + 4); ++C)
      Acc += LinearIndexOf(C);
    benchmark::DoNotOptimize(Acc);
  }
}

BENCHMARK(benchClosureBySizeFull)
    ->DenseRange(2, 16, 2)
    ->MinTime(0.05)
    ->Complexity(benchmark::oNCubed);
BENCHMARK(benchClosureBySizeIncremental)
    ->DenseRange(2, 16, 2)
    ->MinTime(0.05)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(benchManySmallPacks)->RangeMultiplier(4)->Range(16, 1024)
    ->Complexity(benchmark::oN);
BENCHMARK(benchJoinBySize)->DenseRange(2, 16, 2);
BENCHMARK(benchIndexOfFlat)->DenseRange(4, 16, 4);
BENCHMARK(benchIndexOfLinearReference)->DenseRange(4, 16, 4);

/// Whole-analyzer closure work on the fig2 scaling members. Rows are
/// machine-readable for scripts/bench_domains.sh:
///   OCTCLOSE lines=N kloc=K seconds=S s_per_kloc=P closures_full=A
///            closures_incremental=B alarms=C
int runFig2ClosureCensus() {
  std::puts("OCTCLOSE — closure work on the fig2 scaling members");
  std::puts("(closures_full = Floyd-Warshall sweeps, after widening or when "
            "the dirty set");
  std::puts("is too large; closures_incremental = dirty-row/column "
            "propagations)");
  std::vector<unsigned> Lines = {1000, 2000, 4000, 8000};
  if (fullRuns()) {
    Lines.push_back(16000);
    Lines.push_back(32000);
  }
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
    std::printf("OCTCLOSE lines=%u kloc=%.1f seconds=%.3f s_per_kloc=%.4f "
                "closures_full=%llu closures_incremental=%llu alarms=%zu\n",
                FP.LineCount, KLoc, R.AnalysisSeconds,
                R.AnalysisSeconds / KLoc,
                static_cast<unsigned long long>(
                    R.Stats.get("analysis.octagon_closures_full")),
                static_cast<unsigned long long>(
                    R.Stats.get("analysis.octagon_closures_incremental")),
                R.alarmCount());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::puts("E7 — octagon cost model (Sect. 6.2.2 / 7.2.1)");
  std::puts("paper: octagon ops are cubic in pack size; many constant-size "
            "packs give a");
  std::puts("total cost linear in program size (2,600 packs of ~4 vars on "
            "75 kLOC).");
  std::puts("expected: ClosureBySizeFull fits ~N^3, "
            "ClosureBySizeIncremental ~N^2; ManySmallPacks fits ~N.");
  benchmark::Initialize(&argc, argv);
  {
    memtrack::CounterScope Scope(&BenchMeter);
    benchmark::RunSpecifiedBenchmarks();
  }
  std::printf("micro-bench closures performed: full=%llu incremental=%llu\n",
              static_cast<unsigned long long>(BenchMeter.closuresFull()),
              static_cast<unsigned long long>(
                  BenchMeter.closuresIncremental()));
  hr();
  // The whole-analyzer sweep is the expensive part; ASTRAL_BENCH_OCTCLOSE=0
  // skips it so the nightly workflow's run-everything pass does not repeat
  // the work bench_domains.sh redoes for BENCH_octagon.json.
  const char *Gate = std::getenv("ASTRAL_BENCH_OCTCLOSE");
  if (Gate && Gate[0] == '0') {
    std::puts("OCTCLOSE skipped (ASTRAL_BENCH_OCTCLOSE=0)");
    return 0;
  }
  return runFig2ClosureCensus();
}
