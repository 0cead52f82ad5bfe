//===- tests/test_interference.cpp - Concurrency interference analysis ------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Covers the interference-based
// concurrency subsystem bottom-up: the InterferenceMap join-semilattice
// (monotone, commutative, idempotent accumulation — what lets the fixpoint
// rounds fan out), the widening cap, the per-thread fixpoint rounds on
// hand-computable two-thread programs, the data-race and cross-thread-range
// alarm classes (true positives AND pinned non-alarms), and the determinism
// contract: threaded reports byte-identical across --jobs=1/2/8.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "concurrency/Interference.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace astral;
using namespace astral::concurrency;
using memory::CellId;
using testutil::alarmsOfKind;
using testutil::analyzeSource;
using testutil::rangeOf;

//===----------------------------------------------------------------------===//
// InterferenceMap lattice laws
//===----------------------------------------------------------------------===//

namespace {

ThreadAccess writeAccess(double Lo, double Hi, uint32_t Point = 1) {
  ThreadAccess A;
  A.Written = true;
  A.Writes = Interval(Lo, Hi);
  A.WritePoint = Point;
  return A;
}

ThreadAccess readAccess(uint32_t Point = 1) {
  ThreadAccess A;
  A.Read = true;
  A.ReadPoint = Point;
  return A;
}

} // namespace

TEST(InterferenceLattice, JoinIsMonotoneCommutativeIdempotent) {
  // Monotone: a join never loses information and reports growth exactly
  // when something grew.
  ThreadAccess A = writeAccess(0, 1);
  ThreadAccess B = writeAccess(5, 9);
  ThreadAccess AB = A;
  EXPECT_TRUE(AB.joinInPlace(B));
  EXPECT_EQ(AB.Writes, Interval(0, 9));

  // Commutative: fold order does not matter (partition workers of one
  // thread record in nondeterministic order).
  ThreadAccess BA = B;
  EXPECT_TRUE(BA.joinInPlace(A));
  EXPECT_TRUE(AB == BA);

  // Idempotent: re-folding the same delta is a no-op — the fixpoint's
  // change detector must see it as such or the rounds never terminate.
  EXPECT_FALSE(AB.joinInPlace(B));
  EXPECT_FALSE(AB.joinInPlace(A));

  // Read/write bits accumulate independently of the value interval.
  ThreadAccess R = readAccess();
  EXPECT_TRUE(AB.joinInPlace(R));
  EXPECT_TRUE(AB.Read);
  EXPECT_TRUE(AB.Written);
}

TEST(InterferenceLattice, AlarmAnchorIsTheMinimumPoint) {
  // The race report anchors at the smallest (point, location) regardless of
  // recording order, keeping alarms byte-identical across schedules.
  ThreadAccess Late = writeAccess(0, 1, /*Point=*/7);
  ThreadAccess Early = writeAccess(2, 3, /*Point=*/4);
  ThreadAccess X = Late;
  X.joinInPlace(Early);
  ThreadAccess Y = Early;
  Y.joinInPlace(Late);
  EXPECT_EQ(X.WritePoint, 4u);
  EXPECT_EQ(Y.WritePoint, 4u);
}

TEST(InterferenceLattice, MapJoinAccumulatesAndDetectsFixpoint) {
  InterferenceMap M(2);
  ThreadInterference D;
  D[0] = writeAccess(1, 2);
  D[3] = readAccess();
  EXPECT_TRUE(M.joinInPlace(0, D));
  EXPECT_FALSE(M.joinInPlace(0, D)) << "idempotent fold must report no growth";
  EXPECT_TRUE(M.joinInPlace(1, D));

  InterferenceMap N(2);
  N.joinInPlace(0, D);
  EXPECT_FALSE(M.equal(N));
  N.joinInPlace(1, D);
  EXPECT_TRUE(M.equal(N));

  // Only *written* shared cells count as interference.
  EXPECT_EQ(M.interferenceCells(), 1u);
}

TEST(InterferenceLattice, RivalWritesExcludesTheAskingThread) {
  InterferenceMap M(3);
  ThreadInterference D0, D2;
  D0[5] = writeAccess(1, 2);
  D2[5] = writeAccess(10, 20);
  M.joinInPlace(0, D0);
  M.joinInPlace(2, D2);

  EXPECT_EQ(M.rivalWrites(0, 5), Interval(10, 20));
  EXPECT_EQ(M.rivalWrites(2, 5), Interval(1, 2));
  EXPECT_EQ(M.rivalWrites(1, 5), Interval(1, 20)) << "join of both rivals";
  EXPECT_TRUE(M.rivalWrites(0, 9).isBottom()) << "unwritten cell";
}

TEST(InterferenceLattice, WideningJumpsOnlyGrowingCells) {
  std::vector<Interval> CellRange = {Interval(-100, 100), Interval(-50, 50)};

  InterferenceMap Prev(1);
  ThreadInterference D;
  D[0] = writeAccess(0, 1);
  D[1] = writeAccess(3, 4);
  Prev.joinInPlace(0, D);

  InterferenceMap Cur = Prev;
  ThreadInterference Grow;
  Grow[0] = writeAccess(0, 2); // Cell 0 keeps creeping; cell 1 is stable.
  Cur.joinInPlace(0, Grow);

  Cur.widenWrites(Prev, CellRange);
  EXPECT_EQ(Cur.thread(0).at(0).Writes, Interval(-100, 100))
      << "growing write interval must jump to the machine range";
  EXPECT_EQ(Cur.thread(0).at(1).Writes, Interval(3, 4))
      << "a stable cell must not be widened";
}

TEST(InterferenceLattice, RecorderJoinsConcurrentRecordings) {
  InterferenceRecorder Rec;
  SourceLocation Loc;
  Rec.recordWrite(2, Interval(1, 1), 9, Loc);
  Rec.recordWrite(2, Interval(5, 5), 3, Loc);
  Rec.recordRead(2, 4, Loc);
  ThreadInterference T = Rec.take();
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T.at(2).Writes, Interval(1, 5));
  EXPECT_EQ(T.at(2).WritePoint, 3u);
  EXPECT_TRUE(T.at(2).Read);
  EXPECT_TRUE(Rec.take().empty()) << "take() must move the recordings out";
}

//===----------------------------------------------------------------------===//
// Fixpoint rounds on hand-computable programs
//===----------------------------------------------------------------------===//

namespace {

/// Declares two threads over \p Src. Thread entries must be defined in the
/// source; the analyzer runs the interference rounds instead of the single
/// sequential pass whenever Options.Threads is non-empty.
std::function<void(AnalyzerOptions &)>
twoThreads(const char *FnA, const char *FnB) {
  std::string A = FnA, B = FnB;
  return [A, B](AnalyzerOptions &O) {
    O.Threads.emplace_back(A + "_t", A);
    O.Threads.emplace_back(B + "_t", B);
  };
}

const char *WriterReaderSrc =
    "int shared_x;\n"
    "int result;\n"
    "void writer(void) { shared_x = 42; }\n"
    "void reader(void) { result = shared_x; }\n"
    "int main(void) { shared_x = 1; return 0; }\n";

} // namespace

TEST(InterferenceRounds, WriterReaderConvergesToTheHandComputedFixpoint) {
  AnalysisResult R = analyzeSource(WriterReaderSrc,
                                   twoThreads("writer", "reader"));

  // Hand computation: round 1 runs against the empty map (reader sees the
  // startup value 1, writer records [42,42]); round 2 re-runs with the
  // recording (reader now sees 1 ⊔ 42); round 3 confirms the fixpoint.
  EXPECT_EQ(R.Stats.get("concurrency.rounds"), 3u);
  EXPECT_EQ(R.Stats.get("concurrency.rounds_capped"), 0u);
  EXPECT_EQ(R.Stats.get("concurrency.threads"), 2u);
  EXPECT_EQ(rangeOf(R, "shared_x"), Interval(1, 42));
  // result = 0 (global init, still reachable at startup) ⊔ [1,42] (the
  // reader's load observes the startup value joined with the rival write).
  // Nothing tighter — no stale relational fact may re-tighten the load past
  // the interference join — and nothing wider.
  EXPECT_EQ(rangeOf(R, "result"), Interval(0, 42));

  // One write/read pair on shared_x -> exactly one data race; result is
  // written by one thread only -> no race on it.
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 1u);
  EXPECT_EQ(R.Stats.get("concurrency.interference_cells"), 2u)
      << "shared_x (writer) and result (reader) are both written";
}

TEST(InterferenceRounds, RacingCounterIsWidenedToTheMachineRangeAndStops) {
  // Two threads bump the same counter: each round the recorded write
  // interval grows by one, so an exact chain would take ~INT_MAX rounds.
  // The widening must cap it fast and the rounds must NOT hit MaxRounds.
  const char *Src =
      "int c;\n"
      "void bump1(void) { if (c < 1000) { c = c + 1; } }\n"
      "void bump2(void) { if (c < 1000) { c = c + 1; } }\n"
      "int main(void) { c = 0; return 0; }\n";
  AnalysisResult R = analyzeSource(Src, twoThreads("bump1", "bump2"));
  EXPECT_EQ(R.Stats.get("concurrency.rounds_capped"), 0u)
      << "widening, not the round cap, must terminate the chain";
  EXPECT_LT(R.Stats.get("concurrency.rounds"), 10u);
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 1u);
}

//===----------------------------------------------------------------------===//
// Alarm classes: true positives and pinned non-alarms
//===----------------------------------------------------------------------===//

TEST(InterferenceAlarms, DisjointFootprintsRaiseNoRace) {
  // Each thread owns its global; locals are private by construction. The
  // false-positive pin: nothing here may race.
  const char *Src =
      "int a; int b;\n"
      "void fa(void) { int t = 1; a = t; }\n"
      "void fb(void) { int t = 2; b = t; }\n"
      "int main(void) { return 0; }\n";
  AnalysisResult R = analyzeSource(Src, twoThreads("fa", "fb"));
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 0u);
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::CrossThreadRange), 0u);
  EXPECT_EQ(R.Stats.get("concurrency.rounds"), 2u)
      << "no cross-thread observation -> the second round confirms";
}

TEST(InterferenceAlarms, WriteWriteConflictIsARace) {
  const char *Src =
      "int x;\n"
      "void w1(void) { x = 1; }\n"
      "void w2(void) { x = 2; }\n"
      "int main(void) { return 0; }\n";
  AnalysisResult R = analyzeSource(Src, twoThreads("w1", "w2"));
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 1u);
}

TEST(InterferenceAlarms, VolatilesAreExemptFromRaceDetection) {
  // A volatile already models arbitrary external interference through its
  // declared range — flagging it would drown the report in noise.
  const char *Src =
      "volatile int sensor;\n"
      "int y1; int y2;\n"
      "void ra(void) { y1 = sensor; }\n"
      "void rb(void) { y2 = sensor; }\n"
      "int main(void) { return 0; }\n";
  AnalysisResult R = analyzeSource(Src, [](AnalyzerOptions &O) {
    O.Threads.emplace_back("ra_t", "ra");
    O.Threads.emplace_back("rb_t", "rb");
    O.VolatileRanges["sensor"] = Interval(0, 10);
  });
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 0u);
}

TEST(InterferenceAlarms, CrossThreadRangeFlagsRivalInducedErrors) {
  // The index is in-bounds in every single-thread view (startup writes 0,
  // the bumper writes 20 but never subscripts); only the *combination* —
  // user_t indexing with bumper_t's write — overruns. The alarm class must
  // tag exactly that: an array-bounds alarm absent from the thread's
  // interference-free first round.
  const char *Src =
      "int shared_idx;\n"
      "int arr[10];\n"
      "void bump(void) { shared_idx = 20; }\n"
      "void use(void) { arr[shared_idx] = 1; }\n"
      "int main(void) { shared_idx = 0; return 0; }\n";
  AnalysisResult R = analyzeSource(Src, twoThreads("bump", "use"));
  EXPECT_GE(alarmsOfKind(R, AlarmKind::ArrayBounds), 1u);
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::CrossThreadRange), 1u);
  EXPECT_EQ(R.Stats.get("concurrency.alarms.cross_thread_range"), 1u);
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::DataRace), 1u)
      << "bump writes shared_idx while use reads it";
}

TEST(InterferenceAlarms, BaselineErrorsAreNotBlamedOnInterference) {
  // The overrun happens with or without rivals (the thread itself writes
  // the bad index): a plain ArrayBounds alarm, NOT a cross-thread-range one.
  const char *Src =
      "int arr[10];\n"
      "int other;\n"
      "void oops(void) { arr[20] = 1; }\n"
      "void bystander(void) { other = 5; }\n"
      "int main(void) { return 0; }\n";
  AnalysisResult R = analyzeSource(Src, twoThreads("oops", "bystander"));
  EXPECT_GE(alarmsOfKind(R, AlarmKind::ArrayBounds), 1u);
  EXPECT_EQ(alarmsOfKind(R, AlarmKind::CrossThreadRange), 0u);
}

//===----------------------------------------------------------------------===//
// Determinism across --jobs
//===----------------------------------------------------------------------===//

namespace {

/// Everything the report layer prints that the determinism contract covers
/// (the threaded twin of test_partition_dispatch's fingerprint).
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream F;
  F << "alarms:" << R.Alarms.size() << "\n";
  for (const Alarm &A : R.Alarms)
    F << alarmKindName(A.Kind) << " line " << A.Loc.Line << " " << A.Message
      << (A.Definite ? " definite" : "") << "\n";
  for (const auto &[Name, Itv] : R.VariableRanges)
    F << Name << "=" << Itv.toString() << "\n";
  F << "rounds:" << R.Stats.get("concurrency.rounds")
    << " cells:" << R.Stats.get("concurrency.interference_cells")
    << "\ninv:" << R.MainLoopInvariant;
  return F.str();
}

/// A threaded program exercising the thread grain: two thread entries
/// (thread fan-out), a shared cell read under a guard (interference joins),
/// and a main with relational packs.
const char *MatrixSrc =
    "volatile float in;\n"
    "int mode;\n"
    "int gear;\n"
    "float y;\n"
    "void controller(void) {\n"
    "  if (mode == 1) { gear = 3; } else { gear = 1; }\n"
    "}\n"
    "void monitor(void) {\n"
    "  if (gear > 2) { mode = 0; }\n"
    "}\n"
    "int main(void) {\n"
    "  mode = 1;\n"
    "  while (1) {\n"
    "    float u = in;\n"
    "    if (u - y > 8.0f) { y = y + 8.0f; } else { y = u; }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

} // namespace

TEST(InterferenceDeterminism, ThreadedReportsAreIdenticalAcrossTheMatrix) {
  auto Run = [&](unsigned Jobs) {
    return fingerprint(analyzeSource(MatrixSrc, [&](AnalyzerOptions &O) {
      O.Threads.emplace_back("controller_t", "controller");
      O.Threads.emplace_back("monitor_t", "monitor");
      O.VolatileRanges["in"] = Interval(-100, 100);
      O.Jobs = Jobs;
    }));
  };
  std::string Base = Run(1);
  EXPECT_NE(Base.find("rounds:"), std::string::npos);
  for (unsigned Jobs : {2u, 8u})
    EXPECT_EQ(Run(Jobs), Base) << "jobs=" << Jobs;
}

TEST(InterferenceDeterminism, ThreadDeclarationOrderOwnsTheReport) {
  // Swapping the *declaration order* legitimately renames which thread the
  // race message mentions first, but the alarm count and the value ranges —
  // the semantic content — must not depend on it.
  auto Run = [&](bool Swapped) {
    return analyzeSource(WriterReaderSrc, [&](AnalyzerOptions &O) {
      if (Swapped) {
        O.Threads.emplace_back("reader_t", "reader");
        O.Threads.emplace_back("writer_t", "writer");
      } else {
        O.Threads.emplace_back("writer_t", "writer");
        O.Threads.emplace_back("reader_t", "reader");
      }
    });
  };
  AnalysisResult A = Run(false), B = Run(true);
  EXPECT_EQ(alarmsOfKind(A, AlarmKind::DataRace),
            alarmsOfKind(B, AlarmKind::DataRace));
  EXPECT_EQ(rangeOf(A, "result"), rangeOf(B, "result"));
  EXPECT_EQ(A.Stats.get("concurrency.rounds"),
            B.Stats.get("concurrency.rounds"));
}
