//===- concurrency/ConcurrentAnalysis.cpp - Interference rounds -------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "concurrency/ConcurrentAnalysis.h"

#include "analyzer/Iterator.h"
#include "analyzer/Scheduler.h"
#include "support/Cancellation.h"

#include <set>
#include <utility>

namespace astral {
namespace concurrency {

using memory::AbstractEnv;
using memory::CellId;

ConcurrentAnalysis::ConcurrentAnalysis(const ExecutionContext &Exec,
                                       Statistics &Stats)
    : Exec(Exec), Stats(Stats) {}

namespace {

/// One thread's outputs from one interference round.
struct ThreadRun {
  AlarmSet Alarms;
  AbstractEnv Final = AbstractEnv::bottom();
  std::map<uint32_t, AbstractEnv> Invariants;
  std::vector<std::vector<uint8_t>> RelImproved;
  ThreadInterference Recorded;
};

/// The (point, kind) signature set of an alarm collection — the
/// cross-thread-range detector's baseline.
std::set<std::pair<uint32_t, uint8_t>> alarmSignatures(const AlarmSet &A) {
  std::set<std::pair<uint32_t, uint8_t>> S;
  for (const Alarm &X : A.alarms())
    S.emplace(X.Point, static_cast<uint8_t>(X.Kind));
  return S;
}

} // namespace

ConcurrentResult ConcurrentAnalysis::run() {
  ConcurrentResult R;
  const ir::Program &P = Exec.P;
  const memory::CellLayout &Layout = Exec.Layout;

  std::vector<ThreadSpec> Threads;
  for (const auto &[Name, Fn] : Exec.Opts.Threads)
    Threads.push_back(ThreadSpec{Name, P.findFunction(Fn)});
  const size_t N = Threads.size();

  // Shared cells: persistent (global / static) and non-volatile. Volatiles
  // already model arbitrary external interference through their specified
  // range; locals are private by construction (no pointers escape —
  // Sect. 4's call-by-reference restriction).
  std::vector<uint8_t> SharedCell(Layout.numCells(), 0);
  for (CellId C = 0; C < Layout.numCells(); ++C) {
    const memory::CellInfo &CI = Layout.cell(C);
    if (CI.Var != ir::NoVar && P.var(CI.Var).IsPersistent && !CI.IsVolatile)
      SharedCell[C] = 1;
  }

  // Startup: global initialization plus the entry function, the classic
  // sequential analysis. Threads are modeled as starting from its final
  // environment (documented caveat: the entry must terminate — a
  // non-returning entry leaves E0 bottom and the threads dead).
  AlarmSet StartupAlarms;
  Iterator Startup(Exec, Stats, StartupAlarms);
  AbstractEnv E0 = Startup.run();
  R.LoopInvariants = Startup.loopInvariants();
  R.RelPackImproved = Startup.transfer().RelPackImproved;
  // The startup Transfer also makes every cross-thread merge below: the
  // reduced joins and the relation severing report no alarm and set no
  // pack-usefulness flag.
  Transfer &Merge = Startup.transfer();

  // Relational packs are thread-local under interference semantics; sever
  // the startup state's facts about shared cells so no stale relation
  // (e.g. an octagon still believing a shared cell holds its init value)
  // can re-tighten a loaded value past the per-load interference join.
  if (!E0.isBottom())
    for (CellId C = 0; C < Layout.numCells(); ++C)
      if (SharedCell[C])
        Merge.forgetCellRelations(E0, C);

  InterferenceMap Cur(N);
  std::vector<std::set<std::pair<uint32_t, uint8_t>>> Baseline(N);
  std::vector<ThreadRun> FinalRuns;

  for (unsigned Round = 1;; ++Round) {
    // Round boundary: the interference analysis's cancellation choke point.
    // Runs on the master thread between fan-outs, so the budget poll here
    // reads a deterministic live figure (same discipline as the fixpoint
    // heads — see support/Cancellation.h).
    cancel::poll();
    cancel::pollBudget();
    std::vector<ThreadRun> Runs(N);
    // The thread grain: per-thread analyses of one round are
    // independent (each reads the round's snapshot map and E0, writes only
    // its own ThreadRun), so they fan out over the ambient Scheduler.
    // Every merge below runs in thread-declaration order, so reports are
    // byte-identical whether or not the fan-out happened.
    bool FannedOut = Scheduler::runGroups(N, [&](size_t T) {
      ThreadRun &TR = Runs[T];
      InterferenceRecorder Rec;
      ThreadContext Ctx;
      Ctx.ThreadIndex = T;
      Ctx.In = &Cur;
      Ctx.Out = &Rec;
      Ctx.SharedCell = &SharedCell;
      Iterator It(Exec, Stats, TR.Alarms);
      It.transfer().Conc = &Ctx;
      TR.Final = It.runThread(Threads[T].Fn, E0);
      TR.Invariants = It.loopInvariants();
      TR.RelImproved = It.transfer().RelPackImproved;
      TR.Recorded = Rec.take();
    });
    if (FannedOut)
      Stats.add("parallel.thread_rounds_dispatched");

    if (Round == 1)
      for (size_t T = 0; T < N; ++T)
        Baseline[T] = alarmSignatures(Runs[T].Alarms);

    InterferenceMap Prev = Cur;
    bool Changed = false;
    for (size_t T = 0; T < N; ++T)
      Changed |= Cur.joinInPlace(T, Runs[T].Recorded);

    R.Rounds = Round;
    if (!Changed || Round >= MaxRounds) {
      // This round already ran against the fixpoint map, so its outputs
      // are the final ones. (The cap only fires on pathological inputs;
      // the widening below makes real chains short.)
      R.Capped = Changed;
      FinalRuns = std::move(Runs);
      break;
    }
    // Write intervals still growing after a few exact rounds jump to the
    // machine range — the finite-height cap that bounds the chain (racing
    // counters would otherwise creep up one increment per round).
    if (Round >= WidenAfterRound)
      Cur.widenWrites(Prev, Exec.CellRange);
  }

  // ---- Deterministic result assembly (thread-declaration order) ----

  R.InterferenceCells = Cur.interferenceCells();

  R.Alarms.merge(StartupAlarms);
  for (size_t T = 0; T < N; ++T)
    R.Alarms.merge(FinalRuns[T].Alarms);

  // Data races: a written shared cell with a rival accessor. Cells ascend;
  // the anchor is the lowest-indexed writer's recorded store.
  for (CellId C = 0; C < Layout.numCells(); ++C) {
    if (!SharedCell[C])
      continue;
    std::vector<size_t> Writers, Readers;
    for (size_t T = 0; T < N; ++T) {
      auto It = Cur.thread(T).find(C);
      if (It == Cur.thread(T).end())
        continue;
      if (It->second.Written)
        Writers.push_back(T);
      if (It->second.Read)
        Readers.push_back(T);
    }
    if (Writers.empty())
      continue;
    size_t Rival = SIZE_MAX;
    bool RivalWrites = false;
    if (Writers.size() >= 2) {
      Rival = Writers[1];
      RivalWrites = true;
    } else {
      for (size_t T : Readers)
        if (T != Writers[0]) {
          Rival = T;
          break;
        }
    }
    if (Rival == SIZE_MAX)
      continue;
    const ThreadAccess &W = Cur.thread(Writers[0]).find(C)->second;
    R.Alarms.report(W.WritePoint, W.WriteLoc, AlarmKind::DataRace,
                    "data race on '" + Layout.cell(C).Name + "': thread '" +
                        Threads[Writers[0]].Name + "' writes while thread '" +
                        Threads[Rival].Name + "' " +
                        (RivalWrites ? "writes" : "reads"),
                    /*Definite=*/false);
  }

  // Cross-thread-range alarms: a converged-round alarm absent from the same
  // thread's interference-free first round — the error is only reachable
  // through rival threads' writes.
  for (size_t T = 0; T < N; ++T)
    for (const Alarm &A : FinalRuns[T].Alarms.alarms()) {
      if (Baseline[T].count({A.Point, static_cast<uint8_t>(A.Kind)}))
        continue;
      R.Alarms.report(A.Point, A.Loc, AlarmKind::CrossThreadRange,
                      "only under cross-thread interference (" +
                          std::string(alarmKindName(A.Kind)) + " in thread '" +
                          Threads[T].Name + "'): " + A.Message,
                      /*Definite=*/false);
    }

  // Final environment: the startup state joined with every thread's final
  // state (the program's reachable post-states).
  R.Final = std::move(E0);
  for (size_t T = 0; T < N; ++T)
    R.Final = Merge.join(R.Final, FinalRuns[T].Final);

  // Loop invariants: fold each thread's map in declaration order with the
  // canonical reduce-then-join (helpers shared between startup and threads
  // merge on their LoopId).
  for (size_t T = 0; T < N; ++T)
    for (auto &[LoopId, Inv] : FinalRuns[T].Invariants) {
      auto It = R.LoopInvariants.find(LoopId);
      if (It == R.LoopInvariants.end()) {
        R.LoopInvariants.emplace(LoopId, std::move(Inv));
        continue;
      }
      It->second = Merge.join(It->second, Inv);
    }

  // Pack usefulness is monotone; OR is exact.
  for (size_t T = 0; T < N; ++T)
    for (size_t D = 0; D < R.RelPackImproved.size(); ++D)
      for (size_t Pk = 0; Pk < R.RelPackImproved[D].size(); ++Pk)
        R.RelPackImproved[D][Pk] |= FinalRuns[T].RelImproved[D][Pk];

  return R;
}

} // namespace concurrency
} // namespace astral
