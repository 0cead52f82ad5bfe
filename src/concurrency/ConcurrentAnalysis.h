//===- concurrency/ConcurrentAnalysis.h - Interference rounds ----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference fixpoint driver for threaded programs (Miné, "Static
/// Analysis of Run-Time Errors in Embedded Real-Time Parallel C Programs"):
///
///   1. One classic sequential run analyzes global initialization plus the
///      entry function — the startup phase; its final environment E0 is the
///      state every declared thread starts from.
///   2. Each round re-analyzes every thread's entry from E0 with the current
///      InterferenceMap applied at every shared-cell load, recording the
///      values the thread may write; the recordings are joined back into the
///      map in thread-declaration order (deterministic merge).
///   3. Rounds repeat until the map stabilizes (a widening caps still-growing
///      write intervals at the machine range, so the rounds terminate). The
///      converged round's per-thread results — computed *against* the
///      fixpoint map — are the final ones.
///
/// Per-thread analyses of one round are independent, so they fan out over
/// the ambient Scheduler (the analyzer's thread grain); every merge is in
/// thread-declaration order, keeping reports byte-identical across --jobs.
///
/// On top of the fixpoint, two derived alarm classes:
///   - data races: a shared cell written by one thread and accessed
///     (read or written) by another — no synchronization model exists yet,
///     so every such pair is racy;
///   - cross-thread-range alarms: an alarm of the converged round absent
///     from the same thread's first (interference-free) round — an error
///     reachable only through rival threads' writes.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_CONCURRENCY_CONCURRENTANALYSIS_H
#define ASTRAL_CONCURRENCY_CONCURRENTANALYSIS_H

#include "analyzer/Alarm.h"
#include "analyzer/ExecutionContext.h"
#include "concurrency/Interference.h"
#include "memory/AbstractEnv.h"
#include "support/Statistics.h"

#include <map>
#include <string>
#include <vector>

namespace astral {
namespace concurrency {

/// One declared thread: the `@astral thread <name> <entry>` pair, resolved.
struct ThreadSpec {
  std::string Name;
  const ir::Function *Fn = nullptr;
};

/// Everything AnalysisSession's execution phase consumes — the concurrent
/// counterpart of one Iterator::run().
struct ConcurrentResult {
  memory::AbstractEnv Final = memory::AbstractEnv::bottom();
  AlarmSet Alarms;
  std::map<uint32_t, memory::AbstractEnv> LoopInvariants;
  std::vector<std::vector<uint8_t>> RelPackImproved;
  uint64_t Rounds = 0;
  uint64_t InterferenceCells = 0;
  /// True when the round cap fired before the map stabilized (never on sane
  /// inputs; surfaced as `concurrency.rounds_capped`).
  bool Capped = false;
};

class ConcurrentAnalysis {
public:
  /// Every thread of every round reads \p Exec; none builds a table.
  ConcurrentAnalysis(const ExecutionContext &Exec, Statistics &Stats);

  /// Resolves Opts.Threads against the program. Never fails here — the
  /// frontend validated the entries (exist, have a body, no parameters).
  ConcurrentResult run();

  /// Rounds after which still-growing write intervals jump to the machine
  /// range.
  static constexpr unsigned WidenAfterRound = 3;
  /// Hard safety cap on rounds (widening converges far earlier).
  static constexpr unsigned MaxRounds = 64;

private:
  const ExecutionContext &Exec;
  Statistics &Stats;
};

} // namespace concurrency
} // namespace astral

#endif // ASTRAL_CONCURRENCY_CONCURRENTANALYSIS_H
