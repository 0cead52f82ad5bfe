//===- bench/bench_partitioning.cpp - Sect. 7.1.1/7.1.5 ablation ---------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Experiment E8 (e2ebench/README.md): trace partitioning (7.1.5) delays the
// merge of test branches inside selected functions, keeping mode/value
// correlations; loop unrolling (7.1.1) analyzes the first iteration(s)
// separately. We sweep both knobs over the correlated-branch family idiom and
// report alarms and cost. Shape: partitioning removes the correlation alarms at
// moderate cost; unrolling sharpens first-iteration facts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace astral;
using namespace astral::benchutil;

namespace {
std::string selectorProgram(int Copies) {
  std::string Decls, Funcs, Loop;
  for (int K = 0; K < Copies; ++K) {
    std::string Id = std::to_string(K);
    Decls += "volatile int mode" + Id + "; volatile float sig" + Id +
             ";\nfloat out" + Id + ";\n";
    Funcs += "void select" + Id + "(void) {\n"
             "  float scale; float denom;\n"
             "  if (mode" + Id + " == 1) { scale = 0.5f; } else {\n"
             "    if (mode" + Id + " == 2) { scale = 2.0f; } else { scale = "
             "1.0f; } }\n"
             "  if (mode" + Id + " == 1) { denom = scale - 2.0f; } else { "
             "denom = scale + 1.0f; }\n"
             "  out" + Id + " = sig" + Id + " / denom;\n"
             "}\n";
    Loop += "    select" + Id + "();\n";
  }
  return Decls + Funcs + "int main(void) {\n  while (1) {\n" + Loop +
         "    __astral_wait();\n  }\n  return 0;\n}\n";
}
} // namespace

int main() {
  std::puts("E8 — trace partitioning & loop unrolling ablation "
            "(Sect. 7.1.1 / 7.1.5)");
  std::puts("paper: partitioning selected functions was needed for "
            "correlated branches");
  std::puts("(a[i]/b[i] couples); merging paths \"inevitably leads to many "
            "false alarms\".");
  hr();

  int Copies = fullRuns() ? 24 : 8;
  std::string Src = selectorProgram(Copies);

  struct Row {
    const char *Name;
    bool Partition;
    unsigned Unroll;
  };
  const Row Rows[] = {
      {"merged (no partitioning), unroll 0", false, 0},
      {"merged (no partitioning), unroll 1", false, 1},
      {"partitioned, unroll 0", true, 0},
      {"partitioned, unroll 1", true, 1},
      {"partitioned, unroll 2", true, 2},
  };

  std::printf("  %-38s %8s %10s %12s\n", "configuration", "alarms", "time(s)",
              "partitions");
  for (const Row &RowCfg : Rows) {
    AnalysisInput In;
    In.Source = Src;
    for (int K = 0; K < Copies; ++K) {
      In.Options.VolatileRanges["mode" + std::to_string(K)] = Interval(0, 3);
      In.Options.VolatileRanges["sig" + std::to_string(K)] =
          Interval(-50, 50);
      if (RowCfg.Partition)
        In.Options.PartitionFunctions.insert("select" + std::to_string(K));
    }
    In.Options.DefaultUnroll = RowCfg.Unroll;
    In.Options.ClockMax = 1e6;
    AnalysisResult R = Analyzer::analyze(In);
    if (!R.FrontendOk) {
      std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
      return 1;
    }
    std::printf("  %-38s %8zu %10.2f %12llu\n", RowCfg.Name, R.alarmCount(),
                R.AnalysisSeconds,
                static_cast<unsigned long long>(
                    R.Stats.get("partitioning.delayed_merges")));
  }
  hr();
  std::printf("%d selector modules; expected: %d division alarms merged, 0 "
              "partitioned\n",
              Copies, Copies);
  std::puts("(the paper's who-wins: partitioning eliminates exactly the "
            "correlation alarms).");
  return 0;
}
