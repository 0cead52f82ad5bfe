//===- analyzer/ExecutionContext.cpp - Read-only execution tables -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/ExecutionContext.h"

#include <cmath>
#include <functional>

using namespace astral;
using namespace astral::ir;

Interval astral::typeRange(const Type *Ty) {
  if (Ty->isInt()) {
    if (Ty->IsBool)
      return Interval(0, 1);
    return Interval(static_cast<double>(Ty->intMin()),
                    static_cast<double>(Ty->intMax()));
  }
  if (Ty->isFloat())
    return Interval(-Ty->floatMax(), Ty->floatMax());
  return Interval::top();
}

/// Adds the absolute values of the numeric literals appearing in *guards*
/// (test and loop conditions) of \p Prog to \p Out — automatic threshold
/// seeding (the adaptation-by-parametrization of Sect. 7.1.2, automated as
/// Sect. 3.2 recommends). Only guard constants are candidates: invariant
/// bounds live at comparison limits (clamp and rate-limit constants), while
/// initializer data and multiplication coefficients would flood the ladder
/// with rungs that widening then has to climb one by one.
static void collectConstantThresholds(const Program &Prog,
                                      std::vector<double> &Out) {
  std::function<void(const Expr *)> WalkE = [&](const Expr *E) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::ConstInt:
      Out.push_back(std::fabs(static_cast<double>(E->IntVal)));
      return;
    case ExprKind::ConstFloat:
      Out.push_back(std::fabs(E->FloatVal));
      return;
    case ExprKind::Load:
      return;
    case ExprKind::Unary:
    case ExprKind::Cast:
      WalkE(E->A);
      return;
    case ExprKind::Binary:
      WalkE(E->A);
      WalkE(E->B);
      return;
    }
  };
  std::function<void(const Stmt *)> WalkS = [&](const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::If:
    case StmtKind::While:
    case StmtKind::Assume:
    case StmtKind::Assert:
      WalkE(S->Cond);
      break;
    default:
      break;
    }
    WalkS(S->Then);
    WalkS(S->Else);
    WalkS(S->Body);
    WalkS(S->Step);
    for (const Stmt *C : S->Stmts)
      WalkS(C);
  };
  for (const Function &F : Prog.Functions)
    WalkS(F.Body);
}

ExecutionContext::ExecutionContext(const Program &Prog,
                                   const memory::CellLayout &L,
                                   const DomainRegistry &Registry,
                                   const AnalyzerOptions &O)
    : P(Prog), Layout(L), Reg(Registry), Opts(O) {
  // Fold user thresholds, program constants and the clock bound into the
  // ladder (end-user parametrization, Sect. 3.2; widening thresholds are
  // "easily found in the program documentation" — and the program's own
  // literals plus the specified input ranges are the natural candidates:
  // rate-limiter and clamp invariants stabilize exactly at those values).
  std::vector<double> All =
      Thresholds::geometric(O.ThresholdAlpha, O.ThresholdLambda,
                            O.ThresholdCount)
          .values();
  for (double V : O.ExtraThresholds)
    All.push_back(V);
  All.push_back(O.ClockMax);
  for (const auto &[Name, Rng] : O.VolatileRanges) {
    All.push_back(std::fabs(Rng.Lo));
    All.push_back(std::fabs(Rng.Hi));
  }
  collectConstantThresholds(Prog, All);
  Thr = Thresholds::fromValues(All);
  Thr.setEps(O.FloatPerturbation);

  CellRange.reserve(Layout.numCells());
  VolatileRng.reserve(Layout.numCells());
  for (const memory::CellInfo &CI : Layout.cells()) {
    CellRange.push_back(typeRange(CI.Ty));
    Interval VR = CellRange.back();
    if (CI.IsVolatile) {
      auto It = O.VolatileRanges.find(P.var(CI.Var).Name);
      if (It != O.VolatileRanges.end())
        VR = It->second.meet(VR);
    }
    VolatileRng.push_back(VR);
  }

  FuncLocalCells.resize(P.Functions.size());
  for (VarId V = 0; V < P.Vars.size(); ++V) {
    const VarInfo &VI = P.var(V);
    if (VI.Owner == NoFunc || VI.IsParam || VI.IsPersistent)
      continue;
    const memory::LayoutNode *Node = Layout.varLayout(V);
    if (!Node)
      continue;
    for (uint32_t C = 0; C < Node->CellCount; ++C)
      FuncLocalCells[VI.Owner].push_back(Node->FirstCell + C);
  }
}
