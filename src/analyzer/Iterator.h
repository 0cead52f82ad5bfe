//===- analyzer/Iterator.h - Compositional abstract interpreter --*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The iterator of Sect. 5.2–5.5: abstract execution by induction on the
/// syntax, driven in two modes — iteration mode (invariant generation,
/// silent) and checking mode (one extra pass that reports alarms). Function
/// calls are analyzed by abstract execution of the body in the calling
/// context (context-sensitive polyvariant analysis, semantically equivalent
/// to inlining, Sect. 5.4). Loops use the parametrized strategies of
/// Sect. 7.1: unrolling, widening with thresholds, delayed widening,
/// floating iteration perturbation, and trace partitioning inside selected
/// functions.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_ANALYZER_ITERATOR_H
#define ASTRAL_ANALYZER_ITERATOR_H

#include "analyzer/Transfer.h"

#include <map>

namespace astral {

class Iterator {
public:
  /// Reads every table from \p Exec and builds none.
  Iterator(const ExecutionContext &Exec, Statistics &Stats, AlarmSet &Alarms);

  /// Abstract-executes the whole program (global initialization, then the
  /// entry function) in checking mode. Returns the final environment.
  AbstractEnv run();

  /// Abstract-executes one declared thread's entry function from \p Env (the
  /// post-startup environment) in checking mode — the concurrency driver's
  /// per-round unit. No global initialization; the function's locals are
  /// havocked like a call prologue. \p F must have a body and no parameters
  /// (validated by the frontend).
  AbstractEnv runThread(const ir::Function *F, AbstractEnv Env);

  /// Invariant at each loop head, joined over all (inlined) contexts.
  const std::map<uint32_t, AbstractEnv> &loopInvariants() const {
    return LoopInvariants;
  }

  Transfer &transfer() { return T; }

private:
  /// Trace partitions: a disjunction of environments (Sect. 7.1.5). Size 1
  /// unless inside a partitioned function.
  using Disjunction = std::vector<AbstractEnv>;

  Disjunction execStmt(const ir::Stmt *S, Disjunction D);
  AbstractEnv execStmtSingle(const ir::Stmt *S, AbstractEnv Env);
  void execIf(const ir::Stmt *S, AbstractEnv Env, Disjunction &Out);
  AbstractEnv execWhile(const ir::Stmt *S, AbstractEnv Env);
  AbstractEnv execCall(const ir::Stmt *S, AbstractEnv Env);
  /// Runs a function body in a fresh return context: the join of its
  /// fall-through exit and its `return`s.
  AbstractEnv execBody(const ir::Stmt *Body, AbstractEnv Env);
  /// Resets \p F's non-parameter locals to their machine range (C locals
  /// start indeterminate; reusing a previous activation's abstraction would
  /// be unsound).
  void havocLocals(const ir::Function *F, AbstractEnv &Env) const;
  /// One abstract iteration of a loop body (body, continue-join, step).
  AbstractEnv execLoopBody(const ir::Stmt *W, AbstractEnv Env);
  /// Widening/narrowing fixpoint (Fixpoint.cpp).
  AbstractEnv loopFixpoint(const ir::Stmt *W, const AbstractEnv &E0);
  /// The F-hat inflation of Sect. 7.1.4.
  AbstractEnv perturb(AbstractEnv Env) const;
  AbstractEnv joinAll(Disjunction D);

  // -- Trace-partition dispatch -------------------------------------------
  /// One partition worker's context: a private alarm buffer and a
  /// sub-Iterator clone.
  struct PartitionWorker;

  /// Worker clone: shares the execution context and the thread-safe
  /// Statistics and buffers alarms in \p WorkerAlarms. It starts with empty
  /// loop and call stacks: it only runs straight-line `if` regions, which
  /// never reach a loop, a call or a jump.
  Iterator(const Iterator &Parent, AlarmSet &WorkerAlarms);

  /// Runs the `if` statement \p S over every environment of \p D —
  /// execStmt's If case. The partitions fan out over the ambient Scheduler
  /// when it has workers and \p S is a straight-line region (no loop, call
  /// or jump in either branch); otherwise they run inline, in partition
  /// order. The per-partition results are concatenated in partition order,
  /// and each worker's alarms and pack-usefulness flags merge in partition
  /// order, so the parallel path is byte-identical to the inline loop.
  Disjunction runPartitioned(const ir::Stmt *S, Disjunction D);

  /// Merges one worker's alarms and pack-usefulness flags into this
  /// (master) iterator.
  void mergeWorker(PartitionWorker &W);

  /// Caps \p Out at Opts.MaxPartitions by joining only the *overflow* into
  /// the last kept slot (deterministic order) — not the whole disjunction.
  void capPartitions(Disjunction &Out);

  /// Folds \p Inv into the LoopInvariants entry for \p LoopId (reducing a
  /// copy first, so the caller's exit environment is never refined by
  /// sibling contexts).
  void recordLoopInvariant(uint32_t LoopId, const AbstractEnv &Inv);

  const ExecutionContext &Exec;
  const ir::Program &P;
  const memory::CellLayout &Layout;
  const AnalyzerOptions &Opts;
  Statistics &Stats;
  AlarmSet &Alarms;
  Transfer T;

  /// Per-level iteration context: the break/continue and return
  /// accumulators of the enclosing loops and calls.
  struct LoopCtx {
    AbstractEnv BreakAcc = AbstractEnv::bottom();
    AbstractEnv ContinueAcc = AbstractEnv::bottom();
  };
  std::vector<LoopCtx> LoopStack;

  struct CallCtx {
    AbstractEnv ReturnAcc = AbstractEnv::bottom();
  };
  std::vector<CallCtx> CallStack;

  int PartitionDepth = 0;
  unsigned CallDepth = 0;
  std::map<uint32_t, AbstractEnv> LoopInvariants;
};

} // namespace astral

#endif // ASTRAL_ANALYZER_ITERATOR_H
