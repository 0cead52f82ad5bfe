//===- examples/partitioned_switch.cpp - Mode-correlated controller ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// The trace-partitioning idiom (Sect. 7.1.5): a controller selects a clamp
// limit from a mode switch, then later selects the matching gain from the
// *same* switch. Joining after the first test forgets the correlation
// between mode and limit, so interval analysis sees (limit 20, gain 8) —
// a spurious trace — and raises an assertion alarm. Delaying the merge
// inside the selected function (the end-user `@astral partition` of
// Sect. 3.2) keeps the traces apart and proves the bound. The example runs
// both configurations to show the contrast.
//
//   $ ./examples/partitioned_switch
//
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "analyzer/SpecDirectives.h"

#include <cstdio>

using namespace astral;

namespace {
const char *SwitchProgram = R"(
  /* Mode-correlated clamp + gain pair (needs trace partitioning).
     @astral volatile mode 0 1
     @astral volatile meas -50 50
     @astral partition control_step
     @astral clock-max 3.6e6 */
  volatile int   mode;      /* 0 = fine, 1 = coarse */
  volatile float meas;
  float out;

  /* Clamp helper, called from inside the partitioned region: each mode
     partition inlines it with its own limit, so the call site sees a
     width-2 disjunction and the helper is analyzed once per calling
     context (Sect. 5.4). */
  float clamp_mag(float v, float limit) {
    if (v > limit)  { v = limit; }
    if (v < -limit) { v = -limit; }
    return v;
  }

  void control_step(void) {
    float limit;
    float m = meas;
    if (mode == 0) { limit = 5.0f; } else { limit = 20.0f; }
    m = clamp_mag(m, limit);
    if (mode == 0) { out = m * 8.0f; }   /* fine: |m| <= 5  -> |out| <= 40 */
    else           { out = m * 2.0f; }   /* coarse: |m| <= 20 -> |out| <= 40 */
  }

  int main(void) {
    while (1) {
      control_step();
      __astral_assert(out > -41.0f);
      __astral_assert(out < 41.0f);
      __astral_wait();
    }
    return 0;
  }
)";

AnalysisResult run(bool WithPartitioning) {
  AnalysisInput In;
  In.FileName = "partitioned_switch.c";
  In.Source = SwitchProgram;
  for (const std::string &W : applySpecDirectives(In.Source, In.Options))
    std::fprintf(stderr, "spec warning: %s\n", W.c_str());
  if (!WithPartitioning)
    In.Options.PartitionFunctions.clear();
  return Analyzer::analyze(In);
}
} // namespace

int main() {
  std::puts("== mode-correlated switch controller (Sect. 7.1.5) ==");

  AnalysisResult Joined = run(/*WithPartitioning=*/false);
  if (!Joined.FrontendOk) {
    std::printf("frontend errors:\n%s\n", Joined.FrontendErrors.c_str());
    return 1;
  }
  std::printf("without partitioning: %zu alarm(s) — the mode/limit "
              "correlation is lost at the join\n",
              Joined.alarmCount());

  AnalysisResult Split = run(/*WithPartitioning=*/true);
  std::printf("with @astral partition control_step: %zu alarm(s)\n",
              Split.alarmCount());
  for (const Alarm &A : Split.Alarms)
    std::printf("  [%s] line %u: %s\n", alarmKindName(A.Kind), A.Loc.Line,
                A.Message.c_str());

  if (Joined.alarmCount() == 0) {
    std::puts("expected the joined analysis to raise the assertion alarm");
    return 1;
  }
  if (!Split.Alarms.empty()) {
    std::puts("unexpected: partitioning should prove |out| <= 40");
    return 1;
  }
  std::puts("proved: per-trace analysis keeps (limit, gain) consistent and "
            "bounds the output.");
  return 0;
}
