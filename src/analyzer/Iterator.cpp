//===- analyzer/Iterator.cpp - Compositional abstract interpreter -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Iterator.h"

#include "analyzer/Scheduler.h"

#include <cassert>
#include <memory>

using namespace astral;
using namespace astral::ir;
using memory::CellSel;
using memory::ScalarAbs;

Iterator::Iterator(const ExecutionContext &X, Statistics &St, AlarmSet &Al)
    : Exec(X), P(X.P), Layout(X.Layout), Opts(X.Opts), Stats(St), Alarms(Al),
      T(X, St, Al) {}

AbstractEnv Iterator::perturb(AbstractEnv Env) const {
  if (Env.isBottom())
    return Env;
  double Eps = Opts.FloatPerturbation;
  std::vector<std::pair<CellId, ScalarAbs>> Updates;
  Env.forEachCell([&](CellId C, const ScalarAbs &S) {
    if (!Layout.cell(C).Ty->isFloat() || S.Itv.isBottom() ||
        S.Itv.isPoint())
      return;
    Interval I(S.Itv.Lo - Eps * std::fabs(S.Itv.Lo),
               S.Itv.Hi + Eps * std::fabs(S.Itv.Hi));
    if (I != S.Itv)
      Updates.push_back({C, ScalarAbs{I, S.Clk}});
  });
  for (auto &[C, S] : Updates)
    Env.setCell(C, S);
  return Env;
}

AbstractEnv Iterator::joinAll(Disjunction D) {
  if (D.empty())
    return AbstractEnv::bottom();
  AbstractEnv R = std::move(D[0]);
  for (size_t I = 1; I < D.size(); ++I)
    R = T.join(R, D[I]);
  return R;
}

void Iterator::capPartitions(Disjunction &Out) {
  // Keep MaxPartitions partitions, not one: only the overflow tail is
  // joined (into the last kept slot, in partition order), so blowing the
  // cap by a single partition costs one join — not the whole disjunction's
  // precision.
  const size_t Cap = std::max(1u, Opts.MaxPartitions);
  if (Out.size() <= Cap)
    return;
  Stats.add("partitioning.cap_collapses");
  Stats.add("partitioning.cap_collapsed_envs", Out.size() - Cap);
  AbstractEnv Acc = std::move(Out[Cap - 1]);
  for (size_t I = Cap; I < Out.size(); ++I)
    Acc = T.join(Acc, Out[I]);
  Out.resize(Cap);
  Out[Cap - 1] = std::move(Acc);
}

void Iterator::recordLoopInvariant(uint32_t LoopId, const AbstractEnv &Inv) {
  auto It = LoopInvariants.find(LoopId);
  if (It == LoopInvariants.end()) {
    LoopInvariants.emplace(LoopId, Inv);
    return;
  }
  // The reduced join like every other merge site — but on a copy: the
  // reduction refines both sides, and information from *other* inlined
  // contexts must never flow back into this context's exit environment.
  AbstractEnv Incoming = Inv;
  It->second = T.join(It->second, Incoming);
}

//===----------------------------------------------------------------------===//
// Trace-partition dispatch
//===----------------------------------------------------------------------===//

/// True when nothing under \p S is a loop, a call or a jump: a partition
/// worker running \p S never reaches its parent's loop or call contexts and
/// never records a loop invariant.
static bool isStraightLine(const Stmt *S) {
  if (!S)
    return true;
  switch (S->Kind) {
  case StmtKind::While:
  case StmtKind::Call:
  case StmtKind::Return:
  case StmtKind::Break:
  case StmtKind::Continue:
    return false;
  default:
    break;
  }
  for (const Stmt *C : S->Stmts)
    if (!isStraightLine(C))
      return false;
  return isStraightLine(S->Then) && isStraightLine(S->Else) &&
         isStraightLine(S->Body) && isStraightLine(S->Step);
}

struct Iterator::PartitionWorker {
  AlarmSet Alarms;
  Iterator Iter;
  Disjunction Out;

  explicit PartitionWorker(const Iterator &Parent) : Iter(Parent, Alarms) {}
};

Iterator::Iterator(const Iterator &Parent, AlarmSet &WorkerAlarms)
    : Exec(Parent.Exec), P(Parent.P), Layout(Parent.Layout),
      Opts(Parent.Opts), Stats(Parent.Stats), Alarms(WorkerAlarms),
      T(Parent.T, WorkerAlarms), PartitionDepth(Parent.PartitionDepth),
      CallDepth(Parent.CallDepth) {}

void Iterator::mergeWorker(PartitionWorker &W) {
  // Alarms replay through AlarmSet::merge, not Transfer::alarm — the
  // worker already metered alarms.reported into the shared Statistics at
  // generation time.
  Alarms.merge(W.Alarms);

  // Pack-usefulness flags are monotone; OR is exact.
  for (size_t D = 0; D < T.RelPackImproved.size(); ++D)
    for (size_t Pk = 0; Pk < T.RelPackImproved[D].size(); ++Pk)
      T.RelPackImproved[D][Pk] |= W.Iter.T.RelPackImproved[D][Pk];
}

Iterator::Disjunction Iterator::runPartitioned(const Stmt *S, Disjunction D) {
  auto Run = [S](Iterator &It, AbstractEnv E, Disjunction &Out) {
    It.T.checkCond(E, S->Cond);
    It.execIf(S, std::move(E), Out);
  };
  const size_t N = D.size();
  // A task's nested parallelFor would only run inline: nested `if`s inside
  // partition workers and the threads of a fanned-out round stay inline.
  if (!Exec.Pool || N < 2 || Scheduler::inWorkerTask() ||
      !isStraightLine(S)) {
    // Every partition inline, in partition order.
    Disjunction Out;
    for (AbstractEnv &E : D)
      Run(*this, std::move(E), Out);
    return Out;
  }

  Stats.add("parallel.partitions.dispatched", N);
  Stats.max("parallel.partitions.max_width", N);

  // Each partition gets its own worker context, built inside the task so
  // the clone cost parallelizes too. Workers read the master only through
  // const state that cannot change during the fan-out.
  std::vector<std::unique_ptr<PartitionWorker>> Workers(N);
  Exec.Pool->parallelFor(N, [&](size_t I) {
    auto W = std::make_unique<PartitionWorker>(*this);
    Run(W->Iter, std::move(D[I]), W->Out);
    Workers[I] = std::move(W);
  });

  // Deterministic merge: every worker's alarms, pack-usefulness flags and
  // result environments, in canonical partition order.
  Disjunction Out;
  for (size_t I = 0; I < N; ++I) {
    // A skipped slot can only mean the task threw; parallelFor rethrows
    // first-by-index, so control never reaches here with a null worker.
    PartitionWorker &W = *Workers[I];
    mergeWorker(W);
    for (AbstractEnv &X : W.Out)
      Out.push_back(std::move(X));
  }
  return Out;
}

AbstractEnv Iterator::execStmtSingle(const Stmt *S, AbstractEnv Env) {
  if (!S || Env.isBottom())
    return Env;
  Disjunction D = execStmt(S, {std::move(Env)});
  return joinAll(std::move(D));
}

Iterator::Disjunction Iterator::execStmt(const Stmt *S, Disjunction D) {
  if (!S)
    return D;
  // Drop unreachable partitions eagerly.
  Disjunction Live;
  for (AbstractEnv &E : D)
    if (!E.isBottom())
      Live.push_back(std::move(E));
  if (Live.empty())
    return Live;
  D = std::move(Live);

  switch (S->Kind) {
  case StmtKind::Nop:
    return D;
  case StmtKind::Seq: {
    for (const Stmt *Child : S->Stmts) {
      D = execStmt(Child, std::move(D));
      if (D.empty())
        return D;
    }
    return D;
  }
  case StmtKind::Assign: {
    for (AbstractEnv &E : D)
      E = T.assign(std::move(E), S->Lhs, S->Rhs);
    return D;
  }
  case StmtKind::If: {
    Disjunction Out = runPartitioned(S, std::move(D));
    capPartitions(Out);
    return Out;
  }
  case StmtKind::While: {
    AbstractEnv E = joinAll(std::move(D));
    return {execWhile(S, std::move(E))};
  }
  case StmtKind::Call: {
    // Each environment of the disjunction inlines the callee in its own
    // calling context (Sect. 5.4), in partition order. Calls to partitioned
    // functions may themselves create partitions; their merge already
    // happened at the return point, so D keeps its width — but the *call
    // statement itself* multiplies nothing, and a partitioned caller can
    // still arrive here over the cap, so cap like the If case.
    for (AbstractEnv &E : D)
      E = execCall(S, std::move(E));
    capPartitions(D);
    return D;
  }
  case StmtKind::Return: {
    assert(!CallStack.empty() && "return outside of any call");
    CallCtx &C = CallStack.back();
    AbstractEnv Acc = std::move(C.ReturnAcc);
    for (AbstractEnv &E : D)
      Acc = T.join(Acc, E);
    C.ReturnAcc = std::move(Acc);
    return {};
  }
  case StmtKind::Break: {
    assert(!LoopStack.empty() && "break outside of any loop");
    LoopCtx &C = LoopStack.back();
    AbstractEnv Acc = std::move(C.BreakAcc);
    for (AbstractEnv &E : D)
      Acc = T.join(Acc, E);
    C.BreakAcc = std::move(Acc);
    return {};
  }
  case StmtKind::Continue: {
    assert(!LoopStack.empty() && "continue outside of any loop");
    LoopCtx &C = LoopStack.back();
    AbstractEnv Acc = std::move(C.ContinueAcc);
    for (AbstractEnv &E : D)
      Acc = T.join(Acc, E);
    C.ContinueAcc = std::move(Acc);
    return {};
  }
  case StmtKind::Wait: {
    for (AbstractEnv &E : D)
      E = T.wait(std::move(E));
    return D;
  }
  case StmtKind::Assume: {
    for (AbstractEnv &E : D)
      E = T.guard(std::move(E), S->Cond, true);
    return D;
  }
  case StmtKind::Assert: {
    for (AbstractEnv &E : D) {
      if (T.Checking) {
        Interval V = T.evalNoCheck(E, S->Cond);
        bool CanFail = V.containsZero();
        bool MustFail = V == Interval::point(0);
        if (CanFail && !E.isBottom()) {
          Alarms.report(S->Point, S->Loc, AlarmKind::AssertFail,
                        "assertion may fail", MustFail);
          Stats.add("alarms.reported");
        }
      }
      E = T.guard(std::move(E), S->Cond, true);
    }
    return D;
  }
  }
  return D;
}

void Iterator::execIf(const Stmt *S, AbstractEnv Env, Disjunction &Out) {
  AbstractEnv ThenEnv = T.guard(Env, S->Cond, true);
  AbstractEnv ElseEnv = T.guard(std::move(Env), S->Cond, false);

  Disjunction ThenOut, ElseOut;
  if (!ThenEnv.isBottom())
    ThenOut = execStmt(S->Then, {std::move(ThenEnv)});
  if (!ElseEnv.isBottom()) {
    if (S->Else)
      ElseOut = execStmt(S->Else, {std::move(ElseEnv)});
    else
      ElseOut.push_back(std::move(ElseEnv));
  }

  if (PartitionDepth > 0) {
    // Trace partitioning: delay the merge (Sect. 7.1.5). The census is
    // width-accurate — one count per environment whose merge was delayed —
    // not one per execIf, so the dispatch counters it feeds stay
    // trustworthy at any partition width.
    Stats.add("partitioning.delayed_merges", ThenOut.size() + ElseOut.size());
    for (AbstractEnv &E : ThenOut)
      Out.push_back(std::move(E));
    for (AbstractEnv &E : ElseOut)
      Out.push_back(std::move(E));
    return;
  }
  AbstractEnv A = joinAll(std::move(ThenOut));
  AbstractEnv B = joinAll(std::move(ElseOut));
  Out.push_back(T.join(A, B));
}

AbstractEnv Iterator::execLoopBody(const Stmt *W, AbstractEnv Env) {
  // Nested loops push onto LoopStack inside the body and may reallocate it:
  // address this loop's context by index, never by reference across the body.
  const size_t Depth = LoopStack.size() - 1;
  AbstractEnv SavedContinue = std::move(LoopStack[Depth].ContinueAcc);
  LoopStack[Depth].ContinueAcc = AbstractEnv::bottom();

  AbstractEnv R = execStmtSingle(W->Body, std::move(Env));
  AbstractEnv Cont = std::move(LoopStack[Depth].ContinueAcc);
  LoopStack[Depth].ContinueAcc = std::move(SavedContinue);
  R = T.join(R, Cont);
  if (W->Step)
    R = execStmtSingle(W->Step, std::move(R));
  return R;
}

AbstractEnv Iterator::execWhile(const Stmt *S, AbstractEnv Env) {
  if (Env.isBottom())
    return Env;
  Stats.add("iterator.loops_analyzed");
  LoopStack.push_back(LoopCtx{});

  // Loop unrolling (7.1.1): peel the first n iterations.
  unsigned N = Opts.DefaultUnroll;
  std::vector<AbstractEnv> Exits;
  AbstractEnv E = std::move(Env);
  for (unsigned K = 0; K < N && !E.isBottom(); ++K) {
    T.checkCond(E, S->Cond);
    Exits.push_back(T.guard(E, S->Cond, false));
    AbstractEnv In = T.guard(std::move(E), S->Cond, true);
    if (In.isBottom()) {
      E = std::move(In);
      break;
    }
    E = execLoopBody(S, std::move(In));
    Exits.push_back(std::move(LoopStack.back().BreakAcc));
    LoopStack.back().BreakAcc = AbstractEnv::bottom();
    Stats.add("iterator.unrolled_iterations");
  }

  AbstractEnv Invariant = AbstractEnv::bottom();
  if (!E.isBottom()) {
    Invariant = loopFixpoint(S, E);

    // Extra pass from the invariant: in checking mode it reports the loop
    // body's alarms (Sect. 5.4); in both modes it rebuilds the break
    // environments that belong to the final invariant.
    LoopStack.back().BreakAcc = AbstractEnv::bottom();
    T.checkCond(Invariant, S->Cond);
    AbstractEnv In = T.guard(Invariant, S->Cond, true);
    if (!In.isBottom())
      (void)execLoopBody(S, std::move(In));
    Exits.push_back(std::move(LoopStack.back().BreakAcc));

    recordLoopInvariant(S->LoopId, Invariant);
    Exits.push_back(T.guard(std::move(Invariant), S->Cond, false));
  }

  LoopStack.pop_back();
  AbstractEnv Out = AbstractEnv::bottom();
  for (AbstractEnv &X : Exits)
    Out = T.join(Out, X);
  return Out;
}

AbstractEnv Iterator::execCall(const Stmt *S, AbstractEnv Env) {
  if (Env.isBottom())
    return Env;
  const Function *F = P.function(S->Callee);
  assert(F && "call to unknown function");
  if (!F->Body || CallDepth >= Opts.MaxCallDepth) {
    // Prototype-only callee: havoc the return target.
    if (S->RetTo)
      Env = T.assign(std::move(Env), *S->RetTo, nullptr);
    return Env;
  }
  Stats.add("iterator.calls_inlined");

  // Evaluate arguments in the caller's context.
  std::vector<Interval> ValueArgs(S->Args.size(), Interval::bottom());
  std::map<VarId, RefBinding> NewFrame;
  for (size_t I = 0; I < S->Args.size(); ++I) {
    if (I >= F->Params.size())
      break;
    VarId Param = F->Params[I];
    if (S->Args[I].IsRef) {
      RefBinding B = T.bindRef(Env, S->Args[I].Ref);
      if (B.Base != NoVar)
        NewFrame[Param] = std::move(B);
    } else {
      ValueArgs[I] = T.evalExpr(Env, S->Args[I].Value);
    }
  }

  havocLocals(F, Env);

  // Bind value parameters.
  for (size_t I = 0; I < S->Args.size() && I < F->Params.size(); ++I) {
    if (S->Args[I].IsRef)
      continue;
    VarId Param = F->Params[I];
    LValue PLv;
    PLv.Base = Param;
    PLv.Ty = P.var(Param).Ty;
    PLv.Loc = S->Loc;
    Env = T.assignInterval(std::move(Env), PLv, ValueArgs[I]);
    if (Env.isBottom())
      return Env;
  }

  bool Partitioned = Opts.PartitionFunctions.count(F->Name) > 0;
  if (Partitioned)
    ++PartitionDepth;
  ++CallDepth;
  T.Frames.push_back(std::move(NewFrame));
  AbstractEnv Out = execBody(F->Body, std::move(Env));

  // Fetch the return value while the callee cells are still in scope.
  Interval RetVal = Interval::bottom();
  if (S->RetTo && F->RetVar != NoVar && !Out.isBottom()) {
    const memory::LayoutNode *Node = Layout.varLayout(F->RetVar);
    if (Node && Node->K == memory::LayoutNode::Kind::Atomic)
      RetVal = Out.cellInterval(Node->Cell);
  }

  T.Frames.pop_back();
  --CallDepth;
  if (Partitioned)
    --PartitionDepth;

  if (S->RetTo && !Out.isBottom()) {
    if (RetVal.isBottom())
      Out = T.assign(std::move(Out), *S->RetTo, nullptr);
    else
      Out = T.assignInterval(std::move(Out), *S->RetTo, RetVal);
  }
  return Out;
}

AbstractEnv Iterator::execBody(const Stmt *Body, AbstractEnv Env) {
  CallStack.push_back(CallCtx{});
  AbstractEnv BodyOut = execStmtSingle(Body, std::move(Env));
  AbstractEnv RetAcc = std::move(CallStack.back().ReturnAcc);
  CallStack.pop_back();
  return T.join(BodyOut, RetAcc);
}

void Iterator::havocLocals(const Function *F, AbstractEnv &Env) const {
  for (CellId C : Exec.FuncLocalCells[F->Id]) {
    const ScalarAbs *Old = Env.cell(C);
    const Interval &Range = Exec.CellRange[C];
    if (!Old || Old->Itv != Range)
      Env.setCell(C, ScalarAbs{Range, Clocked::top()});
  }
}

AbstractEnv Iterator::runThread(const Function *F, AbstractEnv Env) {
  assert(F && F->Body && "thread entry must have a body");
  T.Checking = true;
  T.Frames.clear();
  T.Frames.push_back({});
  // Thread locals start indeterminate, exactly like a call prologue: the
  // driver re-runs the same entry every interference round, and reusing a
  // previous round's local abstraction would be unsound.
  havocLocals(F, Env);
  return execBody(F->Body, std::move(Env));
}

AbstractEnv Iterator::run() {
  AbstractEnv Env = T.initialEnv();
  T.Checking = true;
  T.Frames.clear();
  T.Frames.push_back({});
  if (P.GlobalInit)
    Env = execStmtSingle(P.GlobalInit, std::move(Env));

  const Function *Entry = P.function(P.Entry);
  assert(Entry && Entry->Body && "missing entry function");
  return execBody(Entry->Body, std::move(Env));
}
