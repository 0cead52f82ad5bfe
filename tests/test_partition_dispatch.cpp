//===- tests/test_partition_dispatch.cpp - Trace-partition dispatch ---------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the within-file parallel
// grain — partition-level dispatch inside `@astral partition` functions —
// and the precision bugs of the partition merge paths it builds on:
//
//   - --jobs=2/8 must produce reports bitwise identical to the sequential
//     per-partition loop of --jobs=1, on randomized nested partitioned
//     functions and on randomized call trees whose call sites see the
//     partition disjunction (value and reference parameters, callees
//     inlined once per environment, prototype havoc past MaxCallDepth).
//   - Only straight-line If statements hand partitions to the pool: an If
//     whose branches reach a loop, a call, a return, a break or a continue
//     runs its partitions inline, and assignments update each partition in
//     place.
//   - The MaxPartitions cap joins only the *overflow* (one partition past
//     the cap costs one join, not the whole disjunction).
//   - partitioning.delayed_merges is width-accurate and its accumulation
//     is race-free under partition workers (run under TSan in CI).
//   - Loop invariants recorded inside partitioned functions match the
//     sequential map at every --jobs value: partition workers never run a
//     loop, so the master records each one through the same
//     reduce-then-join the sequential path uses.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace astral;
using testutil::analyzeSource;
using testutil::rangeOf;

namespace {

/// Everything the report layer prints that the determinism contract covers.
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream F;
  F << "alarms:" << R.Alarms.size() << "\n";
  for (const Alarm &A : R.Alarms)
    F << alarmKindName(A.Kind) << " line " << A.Loc.Line << " " << A.Message
      << (A.Definite ? " definite" : "") << " x" << A.Repeats << "\n";
  for (const auto &[Name, Itv] : R.VariableRanges)
    F << Name << "=" << Itv.toString() << "\n";
  const InvariantCensus &C = R.MainLoopCensus;
  F << "census:" << C.BoolAssertions << "/" << C.IntervalAssertions << "/"
    << C.ClockAssertions << "/" << C.OctAdditive << "/" << C.OctSubtractive
    << "/" << C.DecisionTrees << "/" << C.EllipsoidAssertions << "\n";
  F << "useful:";
  for (uint32_t Id : R.UsefulOctPacks)
    F << " " << Id;
  F << "\ninv:" << R.MainLoopInvariant;
  return F.str();
}

/// The execution-policy matrix of one source: sequential at --jobs=1 is
/// the baseline every --jobs value must reproduce bitwise.
void expectMatrixIdentical(
    const std::string &Src,
    const std::function<void(AnalyzerOptions &)> &Tweak = nullptr) {
  auto Run = [&](unsigned Jobs) {
    AnalysisResult R = analyzeSource(Src, [&](AnalyzerOptions &O) {
      if (Tweak)
        Tweak(O);
      O.Jobs = Jobs;
    });
    // Two failed frontends would compare equal and prove nothing.
    EXPECT_TRUE(R.FrontendOk) << R.FrontendErrors;
    return fingerprint(R);
  };
  std::string Base = Run(1);
  for (unsigned Jobs : {2u, 8u})
    EXPECT_EQ(Run(Jobs), Base) << "jobs=" << Jobs;
}

/// The partitioned_switch shape plus the control flow that keeps partitions
/// inline — a loop with break/continue, an early return, a call — beside
/// straight-line branches that fan out, an alarm inside the partitioned
/// subtree, and a nested partitioned callee.
const char *PartitionedControlSrc =
    "volatile int mode; volatile float meas;\n"
    "float out; float acc; int phase;\n"
    "float inner(void) {\n"
    "  float g;\n"
    "  if (mode == 0) { g = 2.0f; } else { g = 8.0f; }\n"
    "  if (meas > 10.0f) { g = g * 0.5f; }\n"
    "  return g;\n"
    "}\n"
    "void control_step(void) {\n"
    "  float limit; float m; float gain; int i;\n"
    "  m = meas;\n"
    "  if (mode == 0) { limit = 5.0f; } else { limit = 20.0f; }\n"
    "  if (m > limit)  { m = limit; }\n"
    "  if (m < -limit) { m = -limit; }\n"
    "  gain = inner();\n"
    "  acc = 0.0f;\n"
    "  i = 0;\n"
    "  while (i < 4) {\n"
    "    i = i + 1;\n"
    "    if (m > 15.0f) { continue; }\n"
    "    acc = acc + m;\n"
    "    if (acc > 50.0f) { break; }\n"
    "  }\n"
    "  if (phase == 1) { return; }\n"
    "  if (mode == 0) { out = m * 8.0f; } else { out = m * 2.0f; }\n"
    "  __astral_assert(out < 41.0f);\n"
    "}\n"
    "int main(void) {\n"
    "  phase = 0;\n"
    "  while (1) {\n"
    "    control_step();\n"
    "    __astral_assert(out > -41.0f);\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

void partitionedControlTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("control_step");
  O.PartitionFunctions.insert("inner");
  O.VolatileRanges["mode"] = Interval(0, 1);
  O.VolatileRanges["meas"] = Interval(-50, 50);
}

/// The partitioned_switch shape with the clamp extracted into a helper
/// taking value AND reference parameters, called from the width-2 mode
/// disjunction: the helper is inlined once per partition, and its own
/// branches fan out over partition workers at --jobs above 1. The alarm
/// inside the callee exercises the in-order merge of the workers' alarms.
const char *PartitionedHelperSrc =
    "volatile int mode; volatile float meas;\n"
    "float out; float acc;\n"
    "float clamp_mag(float v, float limit, float *hits) {\n"
    "  if (v > limit)  { v = limit; *hits = *hits + 1.0f; }\n"
    "  if (v < -limit) { v = -limit; *hits = *hits + 1.0f; }\n"
    "  __astral_assert(v < 21.0f);\n"
    "  return v;\n"
    "}\n"
    "void control_step(void) {\n"
    "  float limit; float m;\n"
    "  m = meas;\n"
    "  if (mode == 0) { limit = 5.0f; } else { limit = 20.0f; }\n"
    "  m = clamp_mag(m, limit, &acc);\n"
    "  if (mode == 0) { out = m * 8.0f; } else { out = m * 2.0f; }\n"
    "}\n"
    "int main(void) {\n"
    "  acc = 0.0f;\n"
    "  while (1) {\n"
    "    control_step();\n"
    "    __astral_assert(out > -41.0f);\n"
    "    __astral_assert(out < 41.0f);\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

void partitionedHelperTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("control_step");
  O.VolatileRanges["mode"] = Interval(0, 1);
  O.VolatileRanges["meas"] = Interval(-50, 50);
}

} // namespace

//===----------------------------------------------------------------------===//
// Parallel-vs-sequential bitwise equality
//===----------------------------------------------------------------------===//

TEST(PartitionDispatch, ControlStepMatchesSequentialBitwise) {
  expectMatrixIdentical(PartitionedControlSrc, partitionedControlTweak);
}

TEST(PartitionDispatch, DispatchActuallyFansOut) {
  // Guards the feature against silent degeneration: with a parallel
  // scheduler and partitions in flight, the parallel path must really run
  // — the census is outside the byte-identity contract, but "it never
  // triggers" would make the whole grain dead code.
  AnalysisResult R = analyzeSource(PartitionedControlSrc,
                                   [](AnalyzerOptions &O) {
                                     partitionedControlTweak(O);
                                     O.Jobs = 2;
                                   });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_GT(R.Stats.get("parallel.partitions.dispatched"), 0u);
  EXPECT_GE(R.Stats.get("parallel.partitions.max_width"), 2u);

  // --jobs=1 builds no pool, so nothing is dispatched.
  AnalysisResult S = analyzeSource(PartitionedControlSrc,
                                   [](AnalyzerOptions &O) {
                                     partitionedControlTweak(O);
                                     O.Jobs = 1;
                                   });
  EXPECT_EQ(S.Stats.get("parallel.partitions.dispatched"), 0u);
  EXPECT_EQ(S.Stats.get("parallel.partitions.max_width"), 0u);
}

TEST(PartitionDispatch, OnlyStraightLineIfsFanOut) {
  // A partitioned function that splits on `mode`, then runs `Tail` at
  // partition width 2. Assignments update each partition in place, and an
  // `if` whose branches reach a return, a call, a loop, a break or a
  // continue runs its partitions inline, in partition order: only a
  // straight-line `if` hands the partitions to the pool. Either way the
  // report is the --jobs=1 report.
  auto Src = [](const std::string &Tail) {
    return "volatile int mode; volatile float meas;\n"
           "float out; float g;\n"
           "void bump(void) { out = 1.0f; }\n"
           "void step(void) {\n"
           "  float m; int i;\n"
           "  m = meas;\n"
           "  i = 0;\n"
           "  if (mode == 0) { g = 2.0f; } else { g = 8.0f; }\n" +
           Tail +
           "}\n"
           "int main(void) {\n"
           "  out = 0.0f;\n"
           "  while (1) {\n"
           "    step();\n"
           "    __astral_wait();\n"
           "  }\n"
           "  return 0;\n"
           "}\n";
  };
  auto Tweak = [](AnalyzerOptions &O) {
    O.PartitionFunctions.insert("step");
    O.VolatileRanges["mode"] = Interval(0, 1);
    O.VolatileRanges["meas"] = Interval(-50, 50);
    // Plain widening keeps the loop tails' fixpoints to a few iterations.
    O.WideningWithThresholds = false;
  };

  // In the loop tails the mode split is repeated inside the body, so the
  // `if` holding the jump sees two partitions.
  const char *Inline[] = {
      "  m = m * g;\n"
      "  out = m + 1.0f;\n",
      "  if (m > 10.0f) { return; }\n"
      "  out = m;\n",
      "  if (m > 10.0f) { bump(); }\n",
      "  if (m > 10.0f) { while (i < 3) { i = i + 1; } }\n",
      "  while (i < 3) {\n"
      "    i = i + 1;\n"
      "    if (mode == 0) { g = 2.0f; } else { g = 8.0f; }\n"
      "    if (m > g) { break; }\n"
      "  }\n",
      "  while (i < 3) {\n"
      "    i = i + 1;\n"
      "    if (mode == 0) { g = 2.0f; } else { g = 8.0f; }\n"
      "    if (m > g) { continue; }\n"
      "    m = m - 1.0f;\n"
      "  }\n",
  };
  const char *Straight = "  m = m * g;\n"
                         "  if (m > 10.0f) { out = 10.0f; }\n";
  for (const char *Tail : Inline) {
    AnalysisResult R = analyzeSource(Src(Tail), [&](AnalyzerOptions &O) {
      Tweak(O);
      O.Jobs = 2;
    });
    ASSERT_TRUE(R.FrontendOk) << Tail;
    EXPECT_GT(R.Stats.get("partitioning.delayed_merges"), 0u) << Tail;
    EXPECT_EQ(R.Stats.get("parallel.partitions.dispatched"), 0u) << Tail;
    expectMatrixIdentical(Src(Tail), Tweak);
  }

  AnalysisResult R = analyzeSource(Src(Straight), [&](AnalyzerOptions &O) {
    Tweak(O);
    O.Jobs = 2;
  });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_GT(R.Stats.get("parallel.partitions.dispatched"), 0u);
  EXPECT_EQ(R.Stats.get("parallel.partitions.max_width"), 2u);
  expectMatrixIdentical(Src(Straight), Tweak);
}

TEST(PartitionDispatch, PartitionedHelperMatchesSequentialBitwise) {
  expectMatrixIdentical(PartitionedHelperSrc, partitionedHelperTweak);
}

TEST(PartitionDispatch, PrototypeHavocMatchesSequentialBitwise) {
  // MaxCallDepth 1: control_step still inlines from main, but the clamp
  // helper inside it exceeds the depth and degrades to the prototype havoc
  // (return target forgotten), once per partition. Byte-identity must hold,
  // and the precision loss must be the same loss everywhere.
  auto Tweak = [](AnalyzerOptions &O) {
    partitionedHelperTweak(O);
    O.MaxCallDepth = 1;
  };
  expectMatrixIdentical(PartitionedHelperSrc, Tweak);

  AnalysisResult R = analyzeSource(PartitionedHelperSrc, Tweak);
  ASSERT_TRUE(R.FrontendOk);
  // The havocked return makes m unbounded: the |out| assertions can no
  // longer be proved, unlike the fully inlined run (0 alarms).
  EXPECT_GT(R.Alarms.size(), 0u);
}

TEST(PartitionDispatch, RandomizedNestedPartitionedFunctions) {
  // Randomized nested partitioned functions: a chain of partitioned
  // callees, each fanning out over its own mode switches, with loops,
  // breaks and early returns mixed in per seed. Every shape must
  // reproduce the sequential report bitwise across the whole matrix.
  for (unsigned Seed = 1; Seed <= 4; ++Seed) {
    std::mt19937 Rng(Seed);
    unsigned Depth = 2 + Seed % 2; // 2-3 nested partitioned functions
    std::ostringstream Src;
    Src << "volatile int sel; volatile float in;\n"
        << "float y; float z;\n";
    // Each function calls the next one, defined after it.
    for (unsigned L = 0; L < Depth; ++L)
      Src << "float f" << L << "(void);\n";
    for (unsigned L = 0; L < Depth; ++L) {
      unsigned Ifs = 1 + Rng() % 3;
      Src << "float f" << L << "(void) {\n  float t; float u;\n"
          << "  t = 0.0f;\n";
      for (unsigned I = 0; I < Ifs; ++I) {
        double Inc = 1.0 + (Rng() % 5);
        Src << "  if (sel > " << (Rng() % 4) << ") { t = t + " << Inc
            << "f; } else { t = t - " << Inc << "f; }\n";
      }
      if (L + 1 < Depth)
        Src << "  u = f" << (L + 1) << "();\n";
      else
        Src << "  u = in;\n";
      if (Rng() % 2) {
        Src << "  int i; i = 0;\n  while (i < 3) {\n    i = i + 1;\n"
            << "    if (u > 20.0f) { break; }\n    u = u + t;\n  }\n";
      }
      if (Rng() % 2)
        Src << "  if (sel == 0) { return t; }\n";
      Src << "  return t + u * 0.0f;\n}\n";
    }
    Src << "int main(void) {\n  while (1) {\n    y = f0();\n"
        << "    __astral_wait();\n  }\n  return 0;\n}\n";

    expectMatrixIdentical(Src.str(), [Depth](AnalyzerOptions &O) {
      for (unsigned L = 0; L < Depth; ++L)
        O.PartitionFunctions.insert("f" + std::to_string(L));
      O.VolatileRanges["sel"] = Interval(0, 4);
      O.VolatileRanges["in"] = Interval(-30, 30);
      // Plain widening keeps the loops' fixpoints to a few iterations.
      O.WideningWithThresholds = false;
    });
  }
}

TEST(PartitionDispatch, RandomizedCallTreesMatchSequentialBitwise) {
  // Randomized call trees: a chain of callees — every other one
  // partitioned, so call sites inside them see multi-environment
  // disjunctions and inline their callee once per environment — with value
  // and reference parameters, mode switches, loops and early returns mixed
  // in per seed. Every shape must reproduce the sequential report bitwise
  // across the whole matrix.
  for (unsigned Seed = 1; Seed <= 4; ++Seed) {
    std::mt19937 Rng(Seed);
    unsigned Depth = 2 + Seed % 2; // 2-3 nested callees
    std::ostringstream Src;
    Src << "volatile int sel; volatile float in;\n"
        << "float y; float z;\n";
    // Leaf takes a reference parameter it writes through; inner levels
    // pass the global accumulator down by address. Each function calls the
    // next one, defined after it.
    auto Signature = [Depth](unsigned L) {
      return "float f" + std::to_string(L) +
             (L + 1 == Depth ? "(float s, float *o)" : "(float s)");
    };
    for (unsigned L = 0; L < Depth; ++L)
      Src << Signature(L) << ";\n";
    for (unsigned L = 0; L < Depth; ++L) {
      unsigned Ifs = 1 + Rng() % 3;
      Src << Signature(L) << " {\n"
          << "  float t; float u;\n  t = s;\n";
      for (unsigned I = 0; I < Ifs; ++I) {
        double Inc = 1.0 + (Rng() % 5);
        Src << "  if (sel > " << (Rng() % 4) << ") { t = t + " << Inc
            << "f; } else { t = t - " << Inc << "f; }\n";
      }
      if (L + 1 < Depth) {
        if (L + 2 == Depth)
          Src << "  u = f" << (L + 1) << "(t, &z);\n";
        else
          Src << "  u = f" << (L + 1) << "(t);\n";
      } else {
        Src << "  *o = *o + 0.0f;\n  u = in;\n";
      }
      if (Rng() % 2) {
        Src << "  int i; i = 0;\n  while (i < 3) {\n    i = i + 1;\n"
            << "    if (u > 20.0f) { break; }\n    u = u + t;\n  }\n";
      }
      if (Rng() % 2)
        Src << "  if (sel == 0) { return t; }\n";
      Src << "  return t + u * 0.0f;\n}\n";
    }
    Src << "int main(void) {\n  z = 0.0f;\n  while (1) {\n"
        << "    y = f0(in);\n    __astral_wait();\n  }\n  return 0;\n}\n";

    expectMatrixIdentical(Src.str(), [Depth](AnalyzerOptions &O) {
      for (unsigned L = 0; L < Depth; L += 2)
        O.PartitionFunctions.insert("f" + std::to_string(L));
      O.VolatileRanges["sel"] = Interval(0, 4);
      O.VolatileRanges["in"] = Interval(-30, 30);
      // Plain widening keeps the loops' fixpoints to a few iterations.
      O.WideningWithThresholds = false;
    });
  }
}

//===----------------------------------------------------------------------===//
// MaxPartitions cap: join the overflow, not the world
//===----------------------------------------------------------------------===//

namespace {

// Three independent mode switches -> 8 partitions, the first 4 with t = 1,
// the last 4 with t = -1 (execIf appends then-branches before
// else-branches, per input partition, in partition order).
const char *CapOverflowSrc =
    "volatile int s1; volatile int s2; volatile int s3;\n"
    "int y; int u;\n"
    "void step(void) {\n"
    "  int t; int a; int b; int c;\n"
    "  a = s1; b = s2; c = s3;\n"
    "  if (a > 0) { t = 1; } else { t = -1; }\n"
    "  if (b > 0) { u = 1; } else { u = 2; }\n"
    "  if (c > 0) { u = u + 1; } else { u = u + 2; }\n"
    "  y = t * t;\n"
    "}\n"
    "int main(void) {\n"
    "  step();\n"
    "  return 0;\n"
    "}\n";

void capOverflowTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("step");
  O.VolatileRanges["s1"] = Interval(-5, 5);
  O.VolatileRanges["s2"] = Interval(-5, 5);
  O.VolatileRanges["s3"] = Interval(-5, 5);
}

} // namespace

TEST(PartitionCap, OverflowJoinsOnlyTheTail) {
  // Cap 7 with 8 partitions arriving: only partitions 7 and 8 (both
  // t = -1) merge, so every surviving partition still has a definite t and
  // y = t * t evaluates to exactly 1. The pre-fix collapse joined ALL
  // partitions into one (t = [-1,1], y = [-1,1]) — a precision cliff one
  // partition past the cap.
  AnalysisResult R = analyzeSource(CapOverflowSrc, [](AnalyzerOptions &O) {
    capOverflowTweak(O);
    O.MaxPartitions = 7;
  });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(rangeOf(R, "y"), Interval(1, 1));
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapses"), 1u);
  // 8 partitions down to 7: exactly one environment was folded away —
  // the cap keeps MaxPartitions environments, not one.
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapsed_envs"), 1u);
}

TEST(PartitionCap, UnderTheCapNothingCollapses) {
  AnalysisResult R = analyzeSource(CapOverflowSrc, [](AnalyzerOptions &O) {
    capOverflowTweak(O);
    O.MaxPartitions = 8;
  });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(rangeOf(R, "y"), Interval(1, 1));
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapses"), 0u);
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapsed_envs"), 0u);
}

TEST(PartitionCap, CappedDisjunctionIsDeterministicAcrossTheMatrix) {
  expectMatrixIdentical(CapOverflowSrc, [](AnalyzerOptions &O) {
    capOverflowTweak(O);
    O.MaxPartitions = 7;
  });
}

//===----------------------------------------------------------------------===//
// Width-accurate partition statistics, race-free under workers
//===----------------------------------------------------------------------===//

namespace {

// Two independent switches inside one partitioned function, called once:
// the first if delays 2 environments (1 input -> then + else), the second
// delays 4 (2 inputs -> 2 x (then + else)): exactly 6.
const char *TwoSwitchSrc =
    "volatile int s1; volatile int s2;\n"
    "int y;\n"
    "void step(void) {\n"
    "  int a; int b;\n"
    "  a = s1; b = s2;\n"
    "  if (a > 0) { y = 1; } else { y = 2; }\n"
    "  if (b > 0) { y = y + 1; } else { y = y + 2; }\n"
    "}\n"
    "int main(void) {\n"
    "  step();\n"
    "  return 0;\n"
    "}\n";

void twoSwitchTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("step");
  O.VolatileRanges["s1"] = Interval(-5, 5);
  O.VolatileRanges["s2"] = Interval(-5, 5);
}

} // namespace

TEST(PartitionStats, DelayedMergesAreWidthAccurate) {
  // Pre-fix the counter bumped once per execIf call (3 here: 1 + 2),
  // regardless of how many partition environments were actually delayed.
  AnalysisResult R = analyzeSource(TwoSwitchSrc, twoSwitchTweak);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(R.Stats.get("partitioning.delayed_merges"), 6u);
}

TEST(PartitionStats, CountersAreIdenticalFromPartitionWorkers) {
  // The same widths are counted whether the partitions run inline or on
  // workers: Statistics accumulation is mutex-guarded and every bump is a
  // commutative add, so totals are independent of interleaving. Run under
  // TSan in CI, this is also the race-freedom check for worker-side bumps.
  for (unsigned Jobs : {1u, 8u}) {
    AnalysisResult R = analyzeSource(TwoSwitchSrc, [Jobs](AnalyzerOptions &O) {
      twoSwitchTweak(O);
      O.Jobs = Jobs;
    });
    ASSERT_TRUE(R.FrontendOk);
    EXPECT_EQ(R.Stats.get("partitioning.delayed_merges"), 6u)
        << "jobs=" << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Loop-invariant recording across partition workers
//===----------------------------------------------------------------------===//

namespace {

/// Flattens a loop-invariant map into comparable text (cell intervals in
/// cell order per loop id).
std::string invariantsFingerprint(
    const std::map<uint32_t, memory::AbstractEnv> &Invs) {
  std::ostringstream F;
  for (const auto &[LoopId, Env] : Invs) {
    F << "loop " << LoopId << ":";
    Env.forEachCell([&](CellId C, const memory::ScalarAbs &S) {
      F << " " << C << "=" << S.Itv.toString();
    });
    F << "\n";
  }
  return F.str();
}

AnalysisInput invariantInput(unsigned Jobs) {
  // A loop *inside* the partitioned function: its invariant is recorded
  // once per partition context. The `if` around it never fans out, so at
  // every --jobs value the master folds the contexts in the sequential
  // reduce-then-join order.
  AnalysisInput In;
  In.Source = PartitionedControlSrc;
  In.FileName = "inv.c";
  In.Options.ClockMax = 1.0e6;
  partitionedControlTweak(In.Options);
  In.Options.Jobs = Jobs;
  return In;
}

} // namespace

TEST(PartitionInvariants, WorkerRecordedInvariantsMatchSequential) {
  AnalysisSession Seq(invariantInput(1));
  const auto &SeqExec = Seq.runAbstractExecution();
  std::string Base = invariantsFingerprint(SeqExec.LoopInvariants);
  EXPECT_FALSE(SeqExec.LoopInvariants.empty());

  for (unsigned Jobs : {2u, 8u}) {
    AnalysisSession Par(invariantInput(Jobs));
    const auto &ParExec = Par.runAbstractExecution();
    EXPECT_EQ(invariantsFingerprint(ParExec.LoopInvariants), Base)
        << "jobs=" << Jobs;
  }
}
