//===- analyzer/Transfer.cpp - Abstract transfer functions ------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Transfer.h"

#include <cassert>

using namespace astral;
using namespace astral::ir;
using memory::CellSel;
using memory::NoCell;
using memory::PackId;
using memory::ResolvedAccess;
using memory::ScalarAbs;

namespace astral {

/// Binds one Transfer + one environment into the evaluation services a
/// domain's transfer functions may use (DomainEvalContext). The environment
/// is held by reference: domains see cell refinements applied earlier in
/// the same statement, exactly as the hand-wired code did.
class TransferEvalContext final : public DomainEvalContext {
public:
  TransferEvalContext(Transfer &T, const AbstractEnv &Env) : T(T), Env(Env) {}

  Interval cellInterval(CellId C) const override {
    return Env.cellInterval(C);
  }
  Interval eval(const Expr *E, const CellOverlay *Overlay) const override {
    return T.evalNoCheck(Env, E, Overlay);
  }
  LinearForm linearize(const Expr *E) const override {
    return T.linearize(Env, E);
  }
  CellId strongLoadCell(const Expr *E) const override {
    if (!E || !E->is(ExprKind::Load))
      return NoCellId;
    CellSel Sel = T.resolveLValue(Env, E->Lv, /*Report=*/false);
    return Sel.Strong && Sel.Count == 1 ? Sel.First : NoCellId;
  }

private:
  Transfer &T;
  const AbstractEnv &Env;
};

} // namespace astral

Transfer::Transfer(const ExecutionContext &X, Statistics &St, AlarmSet &Al)
    : Exec(X), P(X.P), Layout(X.Layout), Reg(X.Reg), Opts(X.Opts), Stats(St),
      Alarms(Al) {
  RelPackImproved.resize(Reg.size());
  for (size_t D = 0; D < Reg.size(); ++D)
    RelPackImproved[D].assign(Reg.domain(D).numPacks(), 0);
}

Transfer::Transfer(const Transfer &Parent, AlarmSet &WorkerAlarms)
    : Exec(Parent.Exec), P(Parent.P), Layout(Parent.Layout), Reg(Parent.Reg),
      Opts(Parent.Opts), Stats(Parent.Stats), Alarms(WorkerAlarms) {
  Checking = Parent.Checking;
  RelPackImproved = Parent.RelPackImproved;
  Frames = Parent.Frames;
  Conc = Parent.Conc;
}

AbstractEnv Transfer::initialEnv() const {
  AbstractEnv Env;
  for (CellId C = 0; C < Layout.numCells(); ++C) {
    const memory::CellInfo &CI = Layout.cell(C);
    const ir::VarInfo &VI = P.var(CI.Var);
    ScalarAbs V;
    if (CI.IsVolatile)
      V.Itv = Exec.VolatileRng[C];
    else if (VI.IsPersistent)
      V.Itv = Interval::point(0);
    else
      V.Itv = Exec.CellRange[C];
    Env.setCell(C, V);
  }
  Env.setClock(Interval::point(0));
  for (size_t D = 0; D < Reg.size(); ++D) {
    const RelationalDomain &Dom = Reg.domain(D);
    Dom.forEachPack(
        [&](PackId Pack) { Env.setRel(D, Pack, Dom.topFor(Pack)); });
  }
  return Env;
}

namespace {
/// Depth of silent evaluations (evalNoCheck) on this thread.
thread_local unsigned SilentEvalDepth = 0;

struct SilentEvalGuard {
  SilentEvalGuard() { ++SilentEvalDepth; }
  ~SilentEvalGuard() { --SilentEvalDepth; }
};
} // namespace

bool Transfer::checkingNow() const { return Checking && SilentEvalDepth == 0; }

void Transfer::alarm(const Expr *E, AlarmKind K, const std::string &Msg,
                     bool Definite) {
  if (!checkingNow())
    return;
  Alarms.report(E->Point, E->Loc, K, Msg, Definite);
  Stats.add("alarms.reported");
}

//===----------------------------------------------------------------------===//
// LValue resolution
//===----------------------------------------------------------------------===//

CellSel Transfer::resolveLValue(const AbstractEnv &Env, const LValue &Lv,
                                bool Report) {
  VarId Base = Lv.Base;
  std::vector<ResolvedAccess> Path;
  size_t Start = 0;

  if (Base < P.Vars.size() && P.var(Base).IsRef) {
    const RefBinding *B = lookupBinding(Base);
    if (!B)
      return CellSel{}; // Unbound reference: no cells (dead code).
    Base = B->Base;
    Path = B->Path;
    // The first access of the lvalue is the Deref through the binding.
    if (!Lv.Path.empty() && Lv.Path[0].K == Access::Kind::Deref)
      Start = 1;
  }

  for (size_t I = Start; I < Lv.Path.size(); ++I) {
    const Access &A = Lv.Path[I];
    ResolvedAccess R;
    switch (A.K) {
    case Access::Kind::Deref:
      // Deref below the first position cannot occur in the subset.
      return CellSel{};
    case Access::Kind::Field:
      R.K = ResolvedAccess::Kind::Field;
      R.FieldIdx = A.FieldIdx;
      break;
    case Access::Kind::Index:
      R.K = ResolvedAccess::Kind::Index;
      R.Idx = evalNoCheck(Env, A.Index);
      break;
    }
    Path.push_back(R);
  }

  const memory::LayoutNode *Node = Layout.varLayout(Base);
  if (!Node)
    return CellSel{};
  CellSel Sel = Layout.resolve(Node, Path);
  if (Report && checkingNow() && (Sel.MayBeOutOfBounds ||
                                  Sel.DefinitelyOutOfBounds)) {
    // Attach to the statement point via the lvalue's source location; the
    // caller dedups by point, so use the base expression's point when
    // available (indices carry their own points).
    uint32_t Point = 0;
    for (const Access &A : Lv.Path)
      if (A.K == Access::Kind::Index && A.Index)
        Point = A.Index->Point;
    Alarms.report(Point, Lv.Loc, AlarmKind::ArrayBounds,
                  "array subscript may be out of bounds for " +
                      P.var(Lv.Base).Name,
                  Sel.DefinitelyOutOfBounds);
    Stats.add("alarms.reported");
  }
  return Sel;
}

RefBinding Transfer::bindRef(const AbstractEnv &Env, const LValue &Lv) {
  RefBinding B;
  B.Base = Lv.Base;
  size_t Start = 0;
  if (Lv.Base < P.Vars.size() && P.var(Lv.Base).IsRef) {
    // Forwarding an existing reference (possibly with extra accesses).
    if (const RefBinding *Prev = lookupBinding(Lv.Base)) {
      B = *Prev;
      if (!Lv.Path.empty() && Lv.Path[0].K == Access::Kind::Deref)
        Start = 1;
    } else {
      B.Base = NoVar;
      return B;
    }
  }
  for (size_t I = Start; I < Lv.Path.size(); ++I) {
    const Access &A = Lv.Path[I];
    ResolvedAccess R;
    switch (A.K) {
    case Access::Kind::Deref:
      continue;
    case Access::Kind::Field:
      R.K = ResolvedAccess::Kind::Field;
      R.FieldIdx = A.FieldIdx;
      break;
    case Access::Kind::Index:
      R.K = ResolvedAccess::Kind::Index;
      // Subscripts in reference arguments are evaluated at call time; the
      // bound region stays fixed afterwards (C pointer semantics).
      R.Idx = evalNoCheck(Env, A.Index);
      break;
    }
    B.Path.push_back(R);
  }
  return B;
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

Interval Transfer::evalNoCheck(const AbstractEnv &Env, const Expr *E,
                               const CellOverlay *Overlay) {
  SilentEvalGuard G;
  return evalExpr(Env, E, Overlay);
}

Interval Transfer::evalLoad(const AbstractEnv &Env, const Expr *E,
                            const CellOverlay *Overlay) {
  CellSel Sel = resolveLValue(Env, E->Lv, /*Report=*/true);
  if (Sel.empty() || Sel.DefinitelyOutOfBounds)
    return Sel.DefinitelyOutOfBounds ? Interval::bottom()
                                     : typeRange(E->Ty);
  Interval R = Interval::bottom();
  for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C) {
    Interval V;
    bool Have = false;
    if (Overlay) {
      if (const Interval *O = (*Overlay)(C)) {
        V = *O;
        Have = true;
      }
    }
    if (!Have && Layout.cell(C).IsVolatile) {
      // Volatile loads return the environment-specified input range.
      V = Exec.VolatileRng[C];
      Have = true;
    }
    if (!Have) {
      const ScalarAbs *S = Env.cell(C);
      if (!S) {
        V = Exec.CellRange[C];
      } else {
        V = S->Itv;
        if (Opts.domainEnabled(DomainKind::Clocked) && !S->Clk.isTop())
          V = S->Clk.reduceValue(V, Env.clock());
      }
    }
    // Interference semantics: a load of a shared cell may observe any value
    // a rival thread writes, in addition to the thread-local abstraction.
    // The join applies after the clocked reduction (the reduction refines
    // the thread-local component only) and in every mode — it is part of
    // the load's meaning, not a check.
    if (Conc && Conc->isShared(C)) {
      if (Conc->Out)
        Conc->Out->recordRead(C, E->Point, E->Loc);
      if (Conc->In)
        V = V.join(Conc->In->rivalWrites(Conc->ThreadIndex, C));
    }
    R = R.join(V);
  }
  return R;
}

Interval Transfer::evalCast(const AbstractEnv &Env, const Expr *E,
                            const CellOverlay *Overlay) {
  Interval A = evalExpr(Env, E->A, Overlay);
  if (A.isBottom())
    return A;
  const Type *To = E->Ty;
  const Type *From = E->A->Ty;
  if (To->isInt()) {
    Interval Truncated = A;
    if (From->isFloat()) {
      // Truncation toward zero.
      double L = A.Lo < 0 ? -std::floor(-A.Lo) : std::floor(A.Lo);
      double H = A.Hi < 0 ? -std::floor(-A.Hi) : std::floor(A.Hi);
      Truncated = Interval(L, H);
    }
    Interval Range = typeRange(To);
    if (!Truncated.leq(Range)) {
      alarm(E, AlarmKind::ConvOverflow,
            "conversion to " + To->toString() + " out of range " +
                Truncated.toString(),
            Truncated.meet(Range).isBottom());
      Truncated = Truncated.meet(Range);
    }
    return Truncated;
  }
  if (To->isFloat()) {
    Interval R = A;
    if (From->isInt() || (From->isFloat() && From->IsDouble && !To->IsDouble)) {
      // Rounding to the target format: widen by one relative error step.
      double Err = (To->IsDouble ? rounded::RelErr : rounded::RelErrFloat32) *
                       R.magnitude() +
                   (To->IsDouble ? rounded::AbsErrMin
                                 : rounded::AbsErrMinFloat32);
      R = Interval::fadd(R, Interval(-Err, Err));
    }
    Interval Range = typeRange(To);
    if (!R.leq(Range)) {
      alarm(E, AlarmKind::FloatOverflow,
            "conversion to " + To->toString() + " overflows",
            R.meet(Range).isBottom());
      R = R.meet(Range);
    }
    return R;
  }
  return A;
}

Interval Transfer::evalBinary(const AbstractEnv &Env, const Expr *E,
                              const CellOverlay *Overlay) {
  // Short-circuit forms first (no arithmetic checks on them).
  if (E->BO == BinOp::LogicalAnd || E->BO == BinOp::LogicalOr ||
      isComparison(E->BO)) {
    Interval A = evalExpr(Env, E->A, Overlay);
    Interval B = evalExpr(Env, E->B, Overlay);
    if (A.isBottom() || B.isBottom())
      return Interval::bottom();
    auto Tri = [](bool CanFalse, bool CanTrue) {
      return Interval(CanTrue && !CanFalse ? 1 : 0,
                      CanFalse && !CanTrue ? 0 : 1);
    };
    if (isComparison(E->BO))
      return Tri(Interval::mayHold(negate(E->BO), A, B),
                 Interval::mayHold(E->BO, A, B));
    switch (E->BO) {
    case BinOp::LogicalAnd: {
      bool CanTrue = !A.meetNe(0, E->A->Ty->isInt()).isBottom() &&
                     !B.meetNe(0, E->B->Ty->isInt()).isBottom();
      bool CanFalse = A.containsZero() || B.containsZero();
      return Tri(CanFalse, CanTrue);
    }
    case BinOp::LogicalOr: {
      bool CanTrue = !A.meetNe(0, E->A->Ty->isInt()).isBottom() ||
                     !B.meetNe(0, E->B->Ty->isInt()).isBottom();
      bool CanFalse = A.containsZero() && B.containsZero();
      return Tri(CanFalse, CanTrue);
    }
    default:
      break;
    }
  }

  Interval A = evalExpr(Env, E->A, Overlay);
  Interval B = evalExpr(Env, E->B, Overlay);
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  bool IsFloat = E->Ty->isFloat();
  Interval R;
  switch (E->BO) {
  case BinOp::Add:
    R = IsFloat ? Interval::fadd(A, B) : Interval::iadd(A, B);
    break;
  case BinOp::Sub:
    R = IsFloat ? Interval::fsub(A, B) : Interval::isub(A, B);
    break;
  case BinOp::Mul:
    R = IsFloat ? Interval::fmul(A, B) : Interval::imul(A, B);
    break;
  case BinOp::Div: {
    if (B.containsZero()) {
      alarm(E, AlarmKind::DivByZero, "divisor may be zero",
            B == Interval::point(0));
      Stats.add("checks.division");
    }
    R = IsFloat ? Interval::fdiv(A, B) : Interval::idiv(A, B);
    break;
  }
  case BinOp::Rem: {
    if (B.containsZero())
      alarm(E, AlarmKind::DivByZero, "modulo by zero",
            B == Interval::point(0));
    R = Interval::irem(A, B);
    break;
  }
  case BinOp::Shl:
  case BinOp::Shr: {
    double Width = E->Ty->isInt() ? E->Ty->IntWidth : 32;
    if (B.Lo < 0 || B.Hi >= Width) {
      alarm(E, AlarmKind::InvalidShift,
            "shift amount " + B.toString() + " out of range", false);
      B = B.meet(Interval(0, Width - 1));
      if (B.isBottom())
        return Interval::bottom();
    }
    R = E->BO == BinOp::Shl ? Interval::ishl(A, B) : Interval::ishr(A, B);
    break;
  }
  case BinOp::And:
    R = Interval::iand(A, B);
    break;
  case BinOp::Or:
    R = Interval::ior(A, B);
    break;
  case BinOp::Xor:
    R = Interval::ixor(A, B);
    break;
  default:
    R = Interval::top();
    break;
  }

  // Overflow checks against the operation's machine type; analysis
  // continues with the wiped (clamped) values (Sect. 5.3).
  Interval Range = typeRange(E->Ty);
  if (!R.isBottom() && !R.leq(Range)) {
    alarm(E, E->Ty->isFloat() ? AlarmKind::FloatOverflow
                              : AlarmKind::IntOverflow,
          std::string(E->Ty->isFloat() ? "float" : "integer") +
              " operation may overflow: " + R.toString(),
          R.meet(Range).isBottom());
    R = R.meet(Range);
  }
  return R;
}

Interval Transfer::evalExpr(const AbstractEnv &Env, const Expr *E,
                            const CellOverlay *Overlay) {
  if (!E || Env.isBottom())
    return Interval::bottom();
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return Interval::point(static_cast<double>(E->IntVal));
  case ExprKind::ConstFloat:
    return Interval::point(E->FloatVal);
  case ExprKind::Load:
    return evalLoad(Env, E, Overlay);
  case ExprKind::Unary: {
    Interval A = evalExpr(Env, E->A, Overlay);
    if (A.isBottom())
      return A;
    switch (E->UO) {
    case UnOp::Neg: {
      Interval R = Interval::fneg(A);
      Interval Range = typeRange(E->Ty);
      if (!R.leq(Range)) { // -INT_MIN overflows.
        alarm(E, E->Ty->isFloat() ? AlarmKind::FloatOverflow
                                  : AlarmKind::IntOverflow,
              "negation may overflow", false);
        R = R.meet(Range);
      }
      return R;
    }
    case UnOp::LogicalNot: {
      bool CanTrue = A.containsZero();
      bool CanFalse = !A.meetNe(0, E->A->Ty->isInt()).isBottom();
      return Interval(CanTrue && !CanFalse ? 1 : 0,
                      CanFalse && !CanTrue ? 0 : 1);
    }
    case UnOp::BitNot:
      return Interval::ibitnot(A).meet(typeRange(E->Ty));
    }
    return Interval::top();
  }
  case ExprKind::Binary:
    return evalBinary(Env, E, Overlay);
  case ExprKind::Cast:
    return evalCast(Env, E, Overlay);
  }
  return Interval::top();
}

//===----------------------------------------------------------------------===//
// Reduction-channel application
//===----------------------------------------------------------------------===//

void Transfer::applyChannel(AbstractEnv &Env, size_t D, PackId Pack,
                            const ReductionChannel &Ch) {
  Ch.forEachStat([&](const char *Key, uint64_t N) { Stats.add(Key, N); });
  auto NoteImproved = [&] {
    if (D < RelPackImproved.size() && Pack < RelPackImproved[D].size())
      RelPackImproved[D][Pack] = 1;
  };
  if (Ch.isBottom()) {
    NoteImproved(); // Pruned an infeasible branch.
    Env.markBottom();
    return;
  }
  Ch.forEachFact([&](CellId C, const Interval &I) {
    // Bottom meets (transient inconsistencies) keep the cell value (sound).
    if (Env.meetCellInterval(C, I))
      NoteImproved();
  });
}

//===----------------------------------------------------------------------===//
// Channel-feeding pack sweeps
//===----------------------------------------------------------------------===//

Transfer::SweepResult
Transfer::runPackSweep(AbstractEnv &Env, size_t D,
                       const std::vector<PackId> &Touched, const SweepOp &Op,
                       bool StopOnBottom) {
  // These sweeps are *reduction chains*, not index spaces: each pack
  // evaluates under the cells already refined by the channels of the packs
  // before it, and that feed carries measurable precision on the program
  // family (overlapping octagon packs), so they run in slot order. Closure
  // stays the adapters' business: a state published by assignCell is
  // closed exactly once, on demand through the domain's cached entry point
  // (Octagon::close and its dirty-tracked incremental discipline), so this
  // layer never closes defensively between slots.
  TransferEvalContext Ctx(*this, Env);
  for (PackId Pack : Touched) {
    DomainState::Ptr S = Env.rel(D, Pack);
    if (!S)
      continue;
    ReductionChannel Ch;
    DomainState::Ptr N = Op(*S, Ctx, Ch);
    if (!N)
      continue;
    if (StopOnBottom && N->isBottom())
      return SweepResult::BottomState;
    Env.setRel(D, Pack, std::move(N));
    applyChannel(Env, D, Pack, Ch);
    if (StopOnBottom && Env.isBottom())
      return SweepResult::BottomEnv;
  }
  return SweepResult::Ok;
}

//===----------------------------------------------------------------------===//
// Relational assignment / invalidation
//===----------------------------------------------------------------------===//

void Transfer::relationalAssign(AbstractEnv &Env, CellId Target,
                                const LinearForm &Form, const Interval &V,
                                const Expr *Rhs) {
  RelAssign Req;
  Req.Target = Target;
  Req.Form = &Form;
  Req.Value = V;
  Req.Rhs = Rhs;
  for (size_t D = 0; D < Reg.size(); ++D)
    runPackSweep(
        Env, D, Reg.domain(D).packsOf(Target),
        [&](const DomainState &S, const DomainEvalContext &Ctx,
            ReductionChannel &Ch) { return S.assignCell(Req, Ctx, Ch); },
        /*StopOnBottom=*/false);
}

void Transfer::relationalForget(AbstractEnv &Env, CellId C,
                                const Interval &V) {
  // Each pack's forget reads only its own state and the cell map, which
  // setRel leaves untouched, so every result applies at once.
  TransferEvalContext Ctx(*this, Env);
  for (size_t D = 0; D < Reg.size(); ++D)
    for (PackId Pack : Reg.domain(D).packsOf(C))
      if (DomainState::Ptr S = Env.rel(D, Pack))
        if (DomainState::Ptr New = S->forget(C, V, Ctx))
          Env.setRel(D, Pack, std::move(New));
}

bool Transfer::exprReadsShared(const AbstractEnv &Env, const Expr *E) {
  if (!Conc || !E)
    return false;
  switch (E->Kind) {
  case ExprKind::Load: {
    for (const Access &Acc : E->Lv.Path)
      if (Acc.Index && exprReadsShared(Env, Acc.Index))
        return true;
    CellSel Sel = resolveLValue(Env, E->Lv, /*Report=*/false);
    for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C)
      if (Conc->isShared(C))
        return true;
    return false;
  }
  case ExprKind::Unary:
  case ExprKind::Cast:
    return exprReadsShared(Env, E->A);
  case ExprKind::Binary:
    return exprReadsShared(Env, E->A) || exprReadsShared(Env, E->B);
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Assignment
//===----------------------------------------------------------------------===//

AbstractEnv Transfer::assign(AbstractEnv Env, const LValue &Lhs,
                             const Expr *Rhs) {
  if (Env.isBottom())
    return Env;
  Stats.add("transfer.assignments");

  Interval V;
  LinearForm Form = LinearForm::invalid();
  bool RhsShared = false;
  if (!Rhs) {
    V = typeRange(Lhs.Ty); // Havoc: unknown value of the type.
  } else {
    V = evalExpr(Env, Rhs);
    if (V.isBottom())
      return AbstractEnv::bottom();
    Form = linearize(Env, Rhs);
    // Under interference semantics any cell the right-hand side reads
    // through a shared cell is only rival-joined in the evaluated value V;
    // the form's raw cell terms are thread-local. Meeting V with the form
    // would undo the interference join, so skip the refinement.
    RhsShared = exprReadsShared(Env, Rhs);
    if (Opts.EnableLinearization && Form.valid() && !RhsShared) {
      Interval FV = evalForm(Env, Form);
      Interval Meet = V.meet(FV);
      if (!Meet.isBottom()) {
        if (Meet != V)
          Stats.add("linearization.refinements");
        V = Meet;
      }
    }
  }
  V = V.meet(typeRange(Lhs.Ty));
  if (V.isBottom())
    return AbstractEnv::bottom();

  CellSel Sel = resolveLValue(Env, Lhs, /*Report=*/true);
  if (Sel.DefinitelyOutOfBounds)
    return AbstractEnv::bottom(); // No non-erroneous continuation.
  if (Sel.empty())
    return Env;

  bool Strong = Sel.Strong && Sel.Count == 1;
  for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C) {
    const ScalarAbs *OldAbs = Env.cell(C);
    ScalarAbs Old = OldAbs ? *OldAbs
                           : ScalarAbs{Exec.CellRange[C], Clocked::top()};
    Interval CellV = V.meet(Exec.CellRange[C]);
    if (CellV.isBottom())
      CellV = V; // Foreign-typed weak targets: keep the raw value.

    if (Conc && Conc->Out && Conc->isShared(C))
      Conc->Out->recordWrite(C, CellV, Rhs ? Rhs->Point : 0,
                             Rhs ? Rhs->Loc : Lhs.Loc);

    Clocked NewClk = Clocked::top();
    if (Opts.domainEnabled(DomainKind::Clocked) &&
        Layout.cell(C).Ty->isInt()) {
      // Counter pattern: x := x + [a, b] shifts the clock offsets.
      if (Strong && Form.valid() && Form.terms().size() == 1 &&
          Form.terms()[0].first == C &&
          Form.terms()[0].second == Interval::point(1.0) &&
          Form.constTerm().isFinite()) {
        NewClk = Old.Clk.shifted(Form.constTerm());
      } else {
        NewClk = Clocked::fromValue(CellV, Env.clock());
      }
    }

    ScalarAbs NewAbs{CellV, NewClk};
    if (Strong)
      Env.setCell(C, NewAbs);
    else
      Env.setCell(C, ScalarAbs{Old.Itv.join(NewAbs.Itv),
                               Old.Clk.join(NewAbs.Clk)});
  }

  if (Strong) {
    if (Conc && Conc->isShared(Sel.First)) {
      // Shared targets stay untracked relationally: any fact the packs
      // keep about them would outlive rival writes.
      relationalForget(Env, Sel.First, Exec.CellRange[Sel.First]);
    } else if (RhsShared) {
      // Keep the target's interval in its packs but sever the relation to
      // the shared operands (a `y := x` relation through shared x would
      // re-tighten y from the stale thread-local view of x).
      LinearForm CF = LinearForm::constant(V);
      relationalAssign(Env, Sel.First, CF, V, nullptr);
    } else {
      relationalAssign(Env, Sel.First, Form, V, Rhs);
    }
  } else {
    for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C)
      relationalForget(Env, C,
                       Conc && Conc->isShared(C) ? Exec.CellRange[C] : V);
  }
  return Env;
}

AbstractEnv Transfer::assignInterval(AbstractEnv Env, const LValue &Lhs,
                                     Interval V) {
  if (Env.isBottom())
    return Env;
  V = V.meet(typeRange(Lhs.Ty));
  if (V.isBottom())
    return AbstractEnv::bottom();
  CellSel Sel = resolveLValue(Env, Lhs, /*Report=*/false);
  if (Sel.empty())
    return Env;
  bool Strong = Sel.Strong && Sel.Count == 1;
  for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C) {
    const ScalarAbs *OldAbs = Env.cell(C);
    ScalarAbs Old = OldAbs ? *OldAbs
                           : ScalarAbs{Exec.CellRange[C], Clocked::top()};
    if (Conc && Conc->Out && Conc->isShared(C)) {
      Interval CellV = V.meet(Exec.CellRange[C]);
      Conc->Out->recordWrite(C, CellV.isBottom() ? V : CellV, 0, Lhs.Loc);
    }
    Clocked Clk = Opts.domainEnabled(DomainKind::Clocked) &&
                          Layout.cell(C).Ty->isInt()
                      ? Clocked::fromValue(V, Env.clock())
                      : Clocked::top();
    if (Strong)
      Env.setCell(C, ScalarAbs{V.meet(Exec.CellRange[C]), Clk});
    else
      Env.setCell(C, ScalarAbs{Old.Itv.join(V), Old.Clk.join(Clk)});
  }
  if (Strong) {
    if (Conc && Conc->isShared(Sel.First)) {
      relationalForget(Env, Sel.First, Exec.CellRange[Sel.First]);
    } else {
      LinearForm Form = LinearForm::constant(V);
      relationalAssign(Env, Sel.First, Form, V, nullptr);
    }
  } else {
    for (CellId C = Sel.First; C < Sel.First + Sel.Count; ++C)
      relationalForget(Env, C,
                       Conc && Conc->isShared(C) ? Exec.CellRange[C] : V);
  }
  return Env;
}

AbstractEnv Transfer::wait(AbstractEnv Env) {
  if (Env.isBottom())
    return Env;
  Stats.add("transfer.clock_ticks");
  Interval NewClock =
      Interval::iadd(Env.clock(), Interval::point(1))
          .meet(Interval(0, Opts.ClockMax));
  if (NewClock.isBottom())
    NewClock = Interval::point(Opts.ClockMax);
  Env.setClock(NewClock);
  if (!Opts.domainEnabled(DomainKind::Clocked))
    return Env;
  // Shift every tracked offset: x - clock decreases, x + clock increases;
  // then reduce it against the value and the new clock.
  std::vector<std::pair<CellId, ScalarAbs>> Updates;
  Env.forEachCell([&](CellId C, const ScalarAbs &S) {
    if (S.Clk.isTop())
      return;
    Updates.push_back(
        {C, ScalarAbs{S.Itv, S.Clk.afterTick().reduce(S.Itv, NewClock)}});
  });
  for (auto &[C, S] : Updates)
    Env.setCell(C, S);
  return Env;
}

//===----------------------------------------------------------------------===//
// Guards
//===----------------------------------------------------------------------===//

void Transfer::checkCond(const AbstractEnv &Env, const Expr *Cond) {
  if (!checkingNow() || !Cond)
    return;
  evalExpr(Env, Cond); // Evaluation reports the alarms.
}

AbstractEnv Transfer::guard(AbstractEnv Env, const Expr *Cond,
                            bool Positive) {
  if (Env.isBottom() || !Cond)
    return Env;
  switch (Cond->Kind) {
  case ExprKind::Binary:
    if (Cond->BO == BinOp::LogicalAnd) {
      if (Positive)
        return guard(guard(std::move(Env), Cond->A, true), Cond->B, true);
      AbstractEnv NotA = guard(Env, Cond->A, false);
      AbstractEnv AandNotB =
          guard(guard(std::move(Env), Cond->A, true), Cond->B, false);
      return join(NotA, AandNotB);
    }
    if (Cond->BO == BinOp::LogicalOr) {
      if (!Positive)
        return guard(guard(std::move(Env), Cond->A, false), Cond->B, false);
      AbstractEnv A = guard(Env, Cond->A, true);
      AbstractEnv NotAandB =
          guard(guard(std::move(Env), Cond->A, false), Cond->B, true);
      return join(A, NotAandB);
    }
    if (isComparison(Cond->BO))
      return guardCompare(std::move(Env), Cond->A, Cond->B,
                          Positive ? Cond->BO : negate(Cond->BO));
    break;
  case ExprKind::Unary:
    if (Cond->UO == UnOp::LogicalNot)
      return guard(std::move(Env), Cond->A, !Positive);
    break;
  case ExprKind::ConstInt:
    if ((Cond->IntVal != 0) != Positive)
      return AbstractEnv::bottom();
    return Env;
  default:
    break;
  }
  // Bare value condition: compare against zero.
  // Synthesize (e != 0) / (e == 0) without IR nodes.
  Interval V = evalNoCheck(Env, Cond);
  if (V.isBottom())
    return AbstractEnv::bottom();
  bool IsInt = Cond->Ty->isInt();
  if (Positive) {
    if (V == Interval::point(0))
      return AbstractEnv::bottom();
  } else {
    if (!V.containsZero())
      return AbstractEnv::bottom();
  }
  // Refine a single-cell load.
  if (Cond->is(ExprKind::Load)) {
    CellSel Sel = resolveLValue(Env, Cond->Lv, /*Report=*/false);
    if (Sel.Strong && Sel.Count == 1) {
      CellId C = Sel.First;
      bool SharedC = Conc && Conc->isShared(C);
      const ScalarAbs *S = Env.cell(C);
      if (S) {
        Interval Obs = S->Itv;
        // Shared cells: refine the rival-joined observation (see the
        // guardCompare RefineLoad rationale).
        if (SharedC && Conc->In)
          Obs = Obs.join(Conc->In->rivalWrites(Conc->ThreadIndex, C));
        Interval R = Positive ? Obs.meetNe(0, IsInt)
                              : Obs.meet(Interval::point(0));
        if (R.isBottom())
          return AbstractEnv::bottom();
        Env.setCell(C, ScalarAbs{R, S->Clk.reduce(R, Env.clock())});
      }
      // A shared cell seeds no relational facts (stale-relation leak).
      if (SharedC)
        return Env;
      // Registered domains: boolean guard + reduction (the B := X==0
      // example of Sect. 6.2.4; only domains tracking C react) — a
      // reduction chain like relationalAssign.
      for (size_t D = 0; D < Reg.size(); ++D) {
        SweepResult R = runPackSweep(
            Env, D, Reg.domain(D).packsOf(C),
            [&](const DomainState &S, const DomainEvalContext &,
                ReductionChannel &Ch) { return S.guardBool(C, Positive, Ch); },
            /*StopOnBottom=*/true);
        if (R == SweepResult::BottomState)
          return AbstractEnv::bottom();
        if (R == SweepResult::BottomEnv)
          return Env;
      }
    }
  }
  return Env;
}

AbstractEnv Transfer::guardCompare(AbstractEnv Env, const Expr *A,
                                   const Expr *B, BinOp Op) {
  Interval IA = evalNoCheck(Env, A);
  Interval IB = evalNoCheck(Env, B);
  if (IA.isBottom() || IB.isBottom())
    return AbstractEnv::bottom();
  bool IsInt = A->Ty->isInt() && B->Ty->isInt();

  if (!Interval::mayHold(Op, IA, IB))
    return AbstractEnv::bottom();

  // Interval refinement of single-cell loads on either side.
  auto RefineLoad = [&](const Expr *Side, const Interval &Other,
                        bool IsLeft) {
    if (!Side->is(ExprKind::Load))
      return;
    CellSel Sel = resolveLValue(Env, Side->Lv, /*Report=*/false);
    if (!(Sel.Strong && Sel.Count == 1))
      return;
    CellId C = Sel.First;
    const ScalarAbs *S = Env.cell(C);
    if (!S)
      return;
    Interval R = S->Itv;
    // A shared cell's observable value includes rival writes; refining the
    // raw thread-local component could drop reachable executions (e.g.
    // `if (s > 10)` infeasible locally but entered via a rival write of
    // 42). Refine the rival-joined observation instead.
    if (Conc && Conc->isShared(C) && Conc->In)
      R = R.join(Conc->In->rivalWrites(Conc->ThreadIndex, C));
    // B rel A with the mirrored operator.
    R = R.meetCompare(IsLeft ? Op : mirror(Op), Other, IsInt);
    if (R.isBottom()) {
      Env.markBottom();
      return;
    }
    if (R != S->Itv)
      Env.setCell(C, ScalarAbs{R, S->Clk.reduce(R, Env.clock())});
  };
  RefineLoad(A, IB, /*IsLeft=*/true);
  if (Env.isBottom())
    return Env;
  RefineLoad(B, IA, /*IsLeft=*/false);
  if (Env.isBottom())
    return Env;

  // Registered relational domains. Each adapter plans once — after the
  // reductions of the domains before it in registry order — selecting its
  // touched packs and preparing the request fields it consumes (linearized
  // difference forms for octagons, per Sect. 6.2.2; strongly-resolved load
  // cells for the per-leaf decision-tree feasibility of Sect. 6.2.4). The
  // per-pack refinements form a reduction chain (each pack's guard
  // evaluates under the channel facts of the packs before it); the sweep
  // runs it in slot order.
  // Comparisons reading shared cells must not seed relational facts (the
  // stale-relation leak); the interval refinements above already used the
  // rival-joined observations, which is all interference semantics allows.
  if (Conc && (exprReadsShared(Env, A) || exprReadsShared(Env, B)))
    return Env;

  TransferEvalContext Ctx(*this, Env);
  RelGuard G;
  G.A = A;
  G.B = B;
  G.Op = Op;
  G.IsInt = IsInt;
  for (size_t D = 0; D < Reg.size(); ++D) {
    const RelationalDomain &Dom = Reg.domain(D);
    SweepResult R = runPackSweep(
        Env, D, Dom.planGuard(G, Ctx),
        [&](const DomainState &S, const DomainEvalContext &C,
            ReductionChannel &Ch) { return S.guard(G, C, Ch); },
        /*StopOnBottom=*/true);
    if (R == SweepResult::BottomState)
      return AbstractEnv::bottom();
    if (R == SweepResult::BottomEnv)
      return Env;
  }

  return Env;
}

//===----------------------------------------------------------------------===//
// Reduced join
//===----------------------------------------------------------------------===//

AbstractEnv Transfer::join(AbstractEnv &A, AbstractEnv &B) {
  preJoinReduce(A, B);
  return AbstractEnv::join(A, B);
}

void Transfer::preJoinReduce(AbstractEnv &A, AbstractEnv &B) {
  if (A.isBottom() || B.isBottom())
    return;
  // Both directions of a pack read only the pack's two pre-states and the
  // cell maps, which setRel leaves untouched, so each pack's results apply
  // at once.
  TransferEvalContext CtxA(*this, A), CtxB(*this, B);
  for (size_t D = 0; D < Reg.size(); ++D) {
    const RelationalDomain &Dom = Reg.domain(D);
    if (!Dom.usesPreJoinReduction())
      continue;
    Dom.forEachPack([&](PackId Pack) {
      DomainState::Ptr SA = A.rel(D, Pack);
      DomainState::Ptr SB = B.rel(D, Pack);
      if (!SA || !SB || SA == SB)
        return;
      DomainState::Ptr NewA = SA->preJoinWith(*SB, CtxA);
      DomainState::Ptr NewB = SB->preJoinWith(*SA, CtxB);
      if (NewA)
        A.setRel(D, Pack, std::move(NewA));
      if (NewB)
        B.setRel(D, Pack, std::move(NewB));
    });
  }
}
