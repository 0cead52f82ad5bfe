//===- analyzer/DomainRegistry.cpp - Registered abstract domains ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/DomainRegistry.h"

#include "analyzer/InvariantStats.h"
#include "analyzer/Options.h"
#include "domains/Thresholds.h"
#include "ir/Ir.h"

#include <algorithm>

using namespace astral;
using namespace astral::ir;
using memory::PackId;

//===----------------------------------------------------------------------===//
// OctagonState
//===----------------------------------------------------------------------===//

DomainState::Ptr OctagonState::bottomLike() const {
  auto N = std::make_shared<OctagonState>(Oct);
  N->Oct.meetVarInterval(0, Interval::bottom());
  return N;
}

bool OctagonState::leq(const DomainState &O) const {
  // Closure is demanded through Octagon::close(), the cached entry point:
  // states published by the transfer functions are already closed, so the
  // common case compares in place. Only the deliberately non-closed
  // representations (widening/narrowing results) pay the copy — shared
  // states are immutable, so closure may not happen in place here.
  const Octagon &B = static_cast<const OctagonState &>(O).Oct;
  if (Oct.isClosed())
    return Oct.leq(B);
  Octagon AC(Oct);
  AC.close();
  return AC.leq(B);
}

bool OctagonState::equal(const DomainState &O) const {
  return Oct.equal(static_cast<const OctagonState &>(O).Oct);
}

DomainState::Ptr OctagonState::join(const DomainState &O) const {
  auto N = std::make_shared<OctagonState>(Oct);
  N->Oct.close();
  const Octagon &B = static_cast<const OctagonState &>(O).Oct;
  if (B.isClosed()) {
    N->Oct.joinWith(B);
  } else {
    Octagon BC(B);
    BC.close();
    N->Oct.joinWith(BC);
  }
  return N;
}

DomainState::Ptr OctagonState::widen(const DomainState &O, const Thresholds &T,
                                     bool WithThresholds) const {
  auto N = std::make_shared<OctagonState>(Oct);
  const Octagon &B = static_cast<const OctagonState &>(O).Oct;
  if (B.isClosed()) {
    N->Oct.widenWith(B, T, WithThresholds);
  } else {
    Octagon BC(B);
    BC.close();
    N->Oct.widenWith(BC, T, WithThresholds);
  }
  return N;
}

DomainState::Ptr OctagonState::narrow(const DomainState &O) const {
  auto N = std::make_shared<OctagonState>(Oct);
  N->Oct.narrowWith(static_cast<const OctagonState &>(O).Oct);
  return N;
}

DomainState::Ptr OctagonState::assignCell(const RelAssign &A,
                                          const DomainEvalContext &Ctx,
                                          ReductionChannel &Out) const {
  auto N = std::make_shared<OctagonState>(Oct);
  auto CellRange = [&Ctx](CellId C) { return Ctx.cellInterval(C); };
  int Idx = N->Oct.indexOf(A.Target);
  N->Oct.assign(Idx, *A.Form, CellRange);
  N->Oct.meetVarInterval(Idx, A.Value);
  N->Oct.close();
  N->refineOut(Out);
  Out.noteStat("octagon.assignments");
  return N;
}

DomainState::Ptr OctagonState::forget(CellId C, const Interval &,
                                      const DomainEvalContext &Ctx) const {
  auto N = std::make_shared<OctagonState>(Oct);
  int Idx = N->Oct.indexOf(C);
  N->Oct.forget(Idx);
  N->Oct.meetVarInterval(Idx, Ctx.cellInterval(C));
  return N;
}

DomainState::Ptr OctagonState::guard(const RelGuard &G,
                                     const DomainEvalContext &Ctx,
                                     ReductionChannel &Out) const {
  if (!G.Diff.valid() || !G.NegDiff.valid())
    return nullptr;
  auto N = std::make_shared<OctagonState>(Oct);
  auto CellRange = [&Ctx](CellId C) { return Ctx.cellInterval(C); };
  switch (G.Op) {
  case BinOp::Lt:
  case BinOp::Le:
    N->Oct.guardLe(G.Diff, CellRange);
    break;
  case BinOp::Gt:
  case BinOp::Ge:
    N->Oct.guardLe(G.NegDiff, CellRange);
    break;
  case BinOp::Eq:
    N->Oct.guardLe(G.Diff, CellRange);
    N->Oct.guardLe(G.NegDiff, CellRange);
    break;
  default:
    break;
  }
  if (N->Oct.isBottom())
    return N; // The caller prunes the whole environment.
  N->refineOut(Out);
  Out.noteStat("octagon.guards");
  return N;
}

void OctagonState::refineOut(ReductionChannel &Out) const {
  if (Oct.isBottom()) {
    Out.markBottom();
    return;
  }
  for (size_t I = 0; I < Oct.cells().size(); ++I)
    Out.publish(Oct.cells()[I], Oct.varInterval(static_cast<int>(I)));
}

//===----------------------------------------------------------------------===//
// Decision-tree helpers (per-leaf evaluation, moved out of Transfer)
//===----------------------------------------------------------------------===//

namespace {

/// Overlay substituting one leaf's valuation for the pack cells.
/// Scratch layout: [bools..., nums...] intervals for this leaf.
CellOverlay leafOverlay(const DecisionTree &Tree, size_t LeafIdx,
                        std::vector<Interval> &Scratch) {
  Scratch.clear();
  for (size_t B = 0; B < Tree.boolCells().size(); ++B)
    Scratch.push_back(Interval::point(
        DecisionTree::leafBool(LeafIdx, static_cast<int>(B)) ? 1 : 0));
  const DecisionTree::Leaf &L = Tree.leaf(LeafIdx);
  for (size_t N = 0; N < Tree.numCells().size(); ++N)
    Scratch.push_back(L.Nums[N]);
  const DecisionTree *TreePtr = &Tree;
  std::vector<Interval> *Data = &Scratch;
  return [TreePtr, Data](CellId C) -> const Interval * {
    int B = TreePtr->boolIndexOf(C);
    if (B >= 0)
      return &(*Data)[static_cast<size_t>(B)];
    int N = TreePtr->numIndexOf(C);
    if (N >= 0)
      return &(*Data)[TreePtr->boolCells().size() + static_cast<size_t>(N)];
    return nullptr;
  };
}

/// Per-leaf value of an expression.
std::vector<Interval> perLeafValue(const DomainEvalContext &Ctx,
                                   const DecisionTree &Tree, const Expr *E) {
  std::vector<Interval> Values(Tree.leafCount(), Interval::top());
  std::vector<Interval> Scratch;
  for (size_t L = 0; L < Tree.leafCount(); ++L) {
    if (!Tree.leaf(L).Reachable)
      continue;
    CellOverlay O = leafOverlay(Tree, L, Scratch);
    Values[L] = Ctx.eval(E, &O);
  }
  return Values;
}

/// Refines the numeric intervals of one decision-tree leaf under the
/// assumption that \p Cond evaluates to \p Positive (single-Load comparisons
/// and boolean structure only; anything else refines nothing, which is
/// sound). \p Nums is the leaf's numeric vector, updated in place.
void refineLeafNums(const DomainEvalContext &Ctx, const DecisionTree &Tree,
                    std::vector<Interval> &Nums, const CellOverlay &O,
                    const Expr *Cond, bool Positive) {
  if (!Cond)
    return;
  switch (Cond->Kind) {
  case ExprKind::Cast:
    // Integer-to-integer conversions (including the implicit _Bool cast
    // Sema wraps around comparisons) clamp rather than wrap, so they
    // preserve zero/nonzero-ness and the truth value.
    if (Cond->Ty->isInt() && Cond->A && Cond->A->Ty->isInt())
      refineLeafNums(Ctx, Tree, Nums, O, Cond->A, Positive);
    return;
  case ExprKind::Unary:
    if (Cond->UO == UnOp::LogicalNot)
      refineLeafNums(Ctx, Tree, Nums, O, Cond->A, !Positive);
    return;
  case ExprKind::Binary: {
    if (Cond->BO == BinOp::LogicalAnd && Positive) {
      refineLeafNums(Ctx, Tree, Nums, O, Cond->A, true);
      refineLeafNums(Ctx, Tree, Nums, O, Cond->B, true);
      return;
    }
    if (Cond->BO == BinOp::LogicalOr && !Positive) {
      refineLeafNums(Ctx, Tree, Nums, O, Cond->A, false);
      refineLeafNums(Ctx, Tree, Nums, O, Cond->B, false);
      return;
    }
    if (!isComparison(Cond->BO))
      return;
    BinOp Op = Cond->BO;
    if (!Positive) {
      switch (Cond->BO) {
      case BinOp::Lt: Op = BinOp::Ge; break;
      case BinOp::Le: Op = BinOp::Gt; break;
      case BinOp::Gt: Op = BinOp::Le; break;
      case BinOp::Ge: Op = BinOp::Lt; break;
      case BinOp::Eq: Op = BinOp::Ne; break;
      case BinOp::Ne: Op = BinOp::Eq; break;
      default: break;
      }
    }
    // Refine when one side is a Load of a pack numeric cell.
    auto TryRefine = [&](const Expr *Side, const Expr *Other, bool IsLeft) {
      CellId C = Ctx.strongLoadCell(Side);
      if (C == NoCellId)
        return;
      int N = Tree.numIndexOf(C);
      if (N < 0)
        return;
      Interval OtherV = Ctx.eval(Other, &O);
      if (OtherV.isBottom())
        return;
      bool IsInt = Side->Ty->isInt() && Other->Ty->isInt();
      Interval R = Nums[N];
      BinOp EffOp = Op;
      if (!IsLeft) {
        switch (Op) {
        case BinOp::Lt: EffOp = BinOp::Gt; break;
        case BinOp::Le: EffOp = BinOp::Ge; break;
        case BinOp::Gt: EffOp = BinOp::Lt; break;
        case BinOp::Ge: EffOp = BinOp::Le; break;
        default: break;
        }
      }
      switch (EffOp) {
      case BinOp::Lt: R = R.meetLt(OtherV.Hi, IsInt); break;
      case BinOp::Le: R = R.meetLe(OtherV.Hi); break;
      case BinOp::Gt: R = R.meetGt(OtherV.Lo, IsInt); break;
      case BinOp::Ge: R = R.meetGe(OtherV.Lo); break;
      case BinOp::Eq: R = R.meet(OtherV); break;
      case BinOp::Ne:
        if (OtherV.isPoint())
          R = R.meetNe(OtherV.Lo, IsInt);
        break;
      default: break;
      }
      Nums[N] = R;
    };
    TryRefine(Cond->A, Cond->B, /*IsLeft=*/true);
    TryRefine(Cond->B, Cond->A, /*IsLeft=*/false);
    return;
  }
  case ExprKind::Load: {
    // Bare value: (load != 0) when positive.
    CellId C = Ctx.strongLoadCell(Cond);
    if (C == NoCellId)
      return;
    int N = Tree.numIndexOf(C);
    if (N < 0)
      return;
    Nums[N] = Positive ? Nums[N].meetNe(0, Cond->Ty->isInt())
                       : Nums[N].meet(Interval::point(0));
    return;
  }
  default:
    return;
  }
}

/// b := cond with per-leaf refinement of the pack numerics by the
/// condition's truth (the B := (X == 0) idiom of Sect. 6.2.4).
void boolAssignRefined(const DomainEvalContext &Ctx, const DecisionTree &Old,
                       DecisionTree &New, int BoolIdx, const Expr *Rhs) {
  size_t Bit = size_t(1) << BoolIdx;
  size_t NumCount = Old.numCells().size();
  // Start from nothing; contributions join in.
  for (size_t L = 0; L < New.leafCount(); ++L) {
    DecisionTree::Leaf &Lf = New.leafMutable(L);
    Lf.Reachable = false;
    Lf.Nums.assign(NumCount, Interval::bottom());
  }
  std::vector<Interval> Scratch;
  for (size_t L = 0; L < Old.leafCount(); ++L) {
    if (!Old.leaf(L).Reachable)
      continue;
    CellOverlay O = leafOverlay(Old, L, Scratch);
    Interval V = Ctx.eval(Rhs, &O);
    if (V.isBottom())
      continue;
    for (int TruthVal = 0; TruthVal <= 1; ++TruthVal) {
      bool Feasible = TruthVal
                          ? !V.meetNe(0, Rhs->Ty->isInt()).isBottom()
                          : V.containsZero();
      if (!Feasible)
        continue;
      std::vector<Interval> Nums = Old.leaf(L).Nums;
      refineLeafNums(Ctx, Old, Nums, O, Rhs, TruthVal == 1);
      bool LeafDead = false;
      for (const Interval &I : Nums)
        if (I.isBottom())
          LeafDead = true;
      if (LeafDead)
        continue;
      size_t Target = (L & ~Bit) | (TruthVal ? Bit : 0);
      DecisionTree::Leaf &Dst = New.leafMutable(Target);
      if (!Dst.Reachable) {
        Dst.Reachable = true;
        Dst.Nums = std::move(Nums);
      } else {
        for (size_t J = 0; J < NumCount; ++J)
          Dst.Nums[J] = Dst.Nums[J].join(Nums[J]);
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// DecisionTreeState
//===----------------------------------------------------------------------===//

DomainState::Ptr DecisionTreeState::bottomLike() const {
  auto N = std::make_shared<DecisionTreeState>(Tree);
  for (size_t L = 0; L < N->Tree.leafCount(); ++L)
    N->Tree.leafMutable(L).Reachable = false;
  return N;
}

bool DecisionTreeState::leq(const DomainState &O) const {
  return Tree.leq(static_cast<const DecisionTreeState &>(O).Tree);
}

bool DecisionTreeState::equal(const DomainState &O) const {
  return Tree.equal(static_cast<const DecisionTreeState &>(O).Tree);
}

DomainState::Ptr DecisionTreeState::join(const DomainState &O) const {
  auto N = std::make_shared<DecisionTreeState>(Tree);
  N->Tree.joinWith(static_cast<const DecisionTreeState &>(O).Tree);
  return N;
}

DomainState::Ptr DecisionTreeState::widen(const DomainState &O,
                                          const Thresholds &T,
                                          bool WithThresholds) const {
  auto N = std::make_shared<DecisionTreeState>(Tree);
  N->Tree.widenWith(static_cast<const DecisionTreeState &>(O).Tree, T,
                    WithThresholds);
  return N;
}

DomainState::Ptr DecisionTreeState::narrow(const DomainState &O) const {
  auto N = std::make_shared<DecisionTreeState>(Tree);
  N->Tree.narrowWith(static_cast<const DecisionTreeState &>(O).Tree);
  return N;
}

DomainState::Ptr DecisionTreeState::assignCell(const RelAssign &A,
                                               const DomainEvalContext &Ctx,
                                               ReductionChannel &Out) const {
  if (!A.Rhs)
    return nullptr; // Interval-only stores carry no leaf information.
  auto N = std::make_shared<DecisionTreeState>(Tree);
  int B = N->Tree.boolIndexOf(A.Target);
  if (B >= 0) {
    boolAssignRefined(Ctx, Tree, N->Tree, B, A.Rhs);
  } else {
    int NI = N->Tree.numIndexOf(A.Target);
    if (NI >= 0)
      N->Tree.assignNum(NI, perLeafValue(Ctx, Tree, A.Rhs));
  }
  Out.noteStat("dtree.assignments");
  return N;
}

DomainState::Ptr DecisionTreeState::forget(CellId C, const Interval &V,
                                           const DomainEvalContext &) const {
  auto N = std::make_shared<DecisionTreeState>(Tree);
  int B = N->Tree.boolIndexOf(C);
  if (B >= 0) {
    N->Tree.forgetBool(B);
  } else {
    int NI = N->Tree.numIndexOf(C);
    if (NI >= 0) {
      std::vector<Interval> PerLeaf(N->Tree.leafCount());
      for (size_t L = 0; L < N->Tree.leafCount(); ++L)
        PerLeaf[L] = N->Tree.leaf(L).Nums[NI].join(V);
      N->Tree.assignNum(NI, PerLeaf);
    }
  }
  return N;
}

DomainState::Ptr DecisionTreeState::guard(const RelGuard &G,
                                          const DomainEvalContext &Ctx,
                                          ReductionChannel &Out) const {
  // Per-leaf feasibility of the comparison kills impossible valuations.
  auto N = std::make_shared<DecisionTreeState>(Tree);
  std::vector<Interval> Scratch;
  bool Changed = false;
  for (size_t L = 0; L < N->Tree.leafCount(); ++L) {
    if (!N->Tree.leaf(L).Reachable)
      continue;
    CellOverlay O = leafOverlay(Tree, L, Scratch);
    Interval LA = Ctx.eval(G.A, &O);
    Interval LB = Ctx.eval(G.B, &O);
    bool Feasible = true;
    switch (G.Op) {
    case BinOp::Lt: Feasible = LA.Lo < LB.Hi; break;
    case BinOp::Le: Feasible = LA.Lo <= LB.Hi; break;
    case BinOp::Gt: Feasible = LA.Hi > LB.Lo; break;
    case BinOp::Ge: Feasible = LA.Hi >= LB.Lo; break;
    case BinOp::Eq: Feasible = !LA.meet(LB).isBottom(); break;
    case BinOp::Ne:
      Feasible = !(LA.isPoint() && LB.isPoint() && LA.Lo == LB.Lo);
      break;
    default: break;
    }
    if (!Feasible && !LA.isBottom() && !LB.isBottom()) {
      N->Tree.leafMutable(L).Reachable = false;
      Changed = true;
    }
  }
  if (!Changed)
    return nullptr;
  if (N->Tree.isBottom())
    return N;
  N->refineOut(Out);
  return N;
}

DomainState::Ptr DecisionTreeState::guardBool(CellId C, bool Positive,
                                              ReductionChannel &Out) const {
  int B = Tree.boolIndexOf(C);
  if (B < 0)
    return nullptr;
  auto N = std::make_shared<DecisionTreeState>(Tree);
  N->Tree.guardBool(B, Positive);
  if (N->Tree.isBottom())
    return N;
  N->refineOut(Out);
  return N;
}

void DecisionTreeState::refineOut(ReductionChannel &Out) const {
  if (Tree.isBottom()) {
    Out.markBottom();
    return;
  }
  for (size_t N = 0; N < Tree.numCells().size(); ++N)
    Out.publish(Tree.numCells()[N], Tree.numInterval(static_cast<int>(N)));
}

//===----------------------------------------------------------------------===//
// EllipsoidPackState
//===----------------------------------------------------------------------===//

DomainState::Ptr EllipsoidPackState::bottomLike() const {
  return std::make_shared<EllipsoidPackState>(EllipsoidState{}, Params,
                                              /*Bottom=*/true);
}

bool EllipsoidPackState::leq(const DomainState &Other) const {
  const auto &O = static_cast<const EllipsoidPackState &>(Other);
  if (Bot)
    return true;
  if (O.Bot)
    return false;
  // A <= B iff every constraint of B is implied by A.
  for (const auto &[Pair, KB] : O.Map.K)
    if (!(Map.get(Pair.first, Pair.second) <= KB))
      return false;
  return true;
}

bool EllipsoidPackState::equal(const DomainState &Other) const {
  const auto &O = static_cast<const EllipsoidPackState &>(Other);
  return Bot == O.Bot && Map == O.Map;
}

DomainState::Ptr EllipsoidPackState::join(const DomainState &Other) const {
  const auto &O = static_cast<const EllipsoidPackState &>(Other);
  if (O.Bot)
    return nullptr;
  if (Bot)
    return std::make_shared<EllipsoidPackState>(O.Map, O.Params);
  // Join = pointwise max; a pair missing on one side is top (+inf),
  // so only pairs present on both sides survive.
  auto N = std::make_shared<EllipsoidPackState>(EllipsoidState{}, Params);
  for (const auto &[Pair, KA] : Map.K) {
    auto It = O.Map.K.find(Pair);
    if (It != O.Map.K.end())
      N->Map.K[Pair] = std::max(KA, It->second);
  }
  return N;
}

DomainState::Ptr EllipsoidPackState::widen(const DomainState &Other,
                                           const Thresholds &T,
                                           bool WithThresholds) const {
  const auto &O = static_cast<const EllipsoidPackState &>(Other);
  if (O.Bot)
    return nullptr;
  if (Bot)
    return std::make_shared<EllipsoidPackState>(O.Map, O.Params);
  auto N = std::make_shared<EllipsoidPackState>(EllipsoidState{}, Params);
  for (const auto &[Pair, KA] : Map.K) {
    auto It = O.Map.K.find(Pair);
    if (It == O.Map.K.end())
      continue;
    double KB = It->second;
    N->Map.K[Pair] = KB <= KA ? KA
                              : (WithThresholds ? T.nextAbove(KB)
                                                : INFINITY);
  }
  return N;
}

DomainState::Ptr EllipsoidPackState::narrow(const DomainState &) const {
  // Narrowing keeps the stable constraint set (the ellipsoid iterates are
  // monotone once the intervals are).
  return nullptr;
}

DomainState::Ptr
EllipsoidPackState::assignCell(const RelAssign &A,
                               const DomainEvalContext &Ctx,
                               ReductionChannel &Out) const {
  auto N = std::make_shared<EllipsoidPackState>(Map, Params);
  // Drop constraints involving the target.
  for (auto It = N->Map.K.begin(); It != N->Map.K.end();) {
    if (It->first.first == A.Target || It->first.second == A.Target)
      It = N->Map.K.erase(It);
    else
      ++It;
  }
  const LinearForm &Form = *A.Form;
  // Case 2: X := a*W1 - b*W2 + t with (a, b) matching the pack.
  bool Matched = false;
  if (Form.valid()) {
    CellId W1 = NoCellId, W2 = NoCellId;
    Interval Residual = Form.constTerm();
    bool Shape = true;
    for (const auto &[C, Coef] : Form.terms()) {
      if (C != A.Target && Coef.isPoint() &&
          std::fabs(Coef.Lo - Params.A) <
              1e-9 * std::fabs(Params.A) + 1e-300 &&
          W1 == NoCellId) {
        W1 = C;
      } else if (C != A.Target && Coef.isPoint() &&
                 std::fabs(Coef.Lo + Params.B) <
                     1e-9 * Params.B + 1e-300 &&
                 W2 == NoCellId) {
        W2 = C;
      } else {
        // Fold stray terms into the residual by interval evaluation.
        Interval CR = Ctx.cellInterval(C);
        Residual = Interval::fadd(Residual, Interval::fmul(Coef, CR));
        if (!Residual.isFinite())
          Shape = false;
      }
    }
    if (Shape && W1 != NoCellId && W2 != NoCellId) {
      double TM = Residual.magnitude();
      // Orientation-tolerant lookup: a state pair recorded under the
      // swapped role order still contributes a sound (derived) bound.
      Ellipsoid Prev{Map.get(W1, W2, Params)};
      // Reduction before the assignment (paper: "before an assignment
      // of the form X' := aX - bY + t, we refine the constraints").
      Interval IW1 = Ctx.cellInterval(W1);
      Interval IW2 = Ctx.cellInterval(W2);
      Prev = Prev.reduceFromIntervals(Params, IW1, IW2,
                                      /*Equal=*/false);
      Ellipsoid Next = Prev.afterFilterStep(Params, TM);
      if (!Next.isTop()) {
        N->Map.K[{A.Target, W1}] = Next.K;
        // Reduce the interval of the target from the new constraint.
        double Bound = Next.boundX(Params);
        if (std::isfinite(Bound))
          Out.publish(A.Target, Interval(-Bound, Bound));
        Matched = true;
        Out.noteStat("ellipsoid.filter_steps");
      }
    }
  }
  // Case 1: plain copy X := W with W in the pack.
  if (!Matched && Form.valid() && Form.terms().size() == 1 &&
      Form.terms()[0].second == Interval::point(1.0) &&
      Form.constTerm().magnitude() == 0.0) {
    CellId W = Form.terms()[0].first;
    for (const auto &[Pair, K] : Map.K) {
      auto [PX, PY] = Pair;
      CellId NX = PX == W ? A.Target : PX;
      CellId NY = PY == W ? A.Target : PY;
      if ((NX == A.Target || NY == A.Target) && NX != NY)
        N->Map.K[{NX, NY}] = std::min(N->Map.get(NX, NY), K);
    }
  }
  return N;
}

DomainState::Ptr EllipsoidPackState::forget(CellId C, const Interval &,
                                            const DomainEvalContext &) const {
  auto N = std::make_shared<EllipsoidPackState>(Map, Params);
  for (auto It = N->Map.K.begin(); It != N->Map.K.end();) {
    if (It->first.first == C || It->first.second == C)
      It = N->Map.K.erase(It);
    else
      ++It;
  }
  return N;
}

void EllipsoidPackState::refineOut(ReductionChannel &Out) const {
  if (Bot) {
    Out.markBottom();
    return;
  }
  for (const auto &[Pair, K] : Map.K) {
    if (!std::isfinite(K) || K < 0)
      continue;
    Ellipsoid E{K};
    double BX = E.boundX(Params);
    if (std::isfinite(BX))
      Out.publish(Pair.first, Interval(-BX, BX));
  }
}

DomainState::Ptr
EllipsoidPackState::preJoinWith(const DomainState &Other,
                                const DomainEvalContext &Ctx) const {
  // The paper's pre-union reduction: constraints finite on the other side
  // and absent here are filled from the local interval information, so the
  // pointwise-max join does not discard them.
  const auto &O = static_cast<const EllipsoidPackState &>(Other);
  std::shared_ptr<EllipsoidPackState> N;
  for (const auto &[Pair, KOther] : O.Map.K) {
    if (Map.K.count(Pair) || (N && N->Map.K.count(Pair)))
      continue;
    Interval IX = Ctx.cellInterval(Pair.first);
    Interval IY = Ctx.cellInterval(Pair.second);
    Ellipsoid Reduced = Ellipsoid::top().reduceFromIntervals(
        Params, IX, IY, /*Equal=*/false);
    if (Reduced.isTop())
      continue;
    if (!N)
      N = std::make_shared<EllipsoidPackState>(Map, Params);
    N->Map.K[Pair] = Reduced.K;
  }
  return N;
}

bool EllipsoidPackState::hasRelationalInfo() const {
  for (const auto &[Pair, K] : Map.K)
    if (std::isfinite(K))
      return true;
  return false;
}

std::string EllipsoidPackState::toString() const {
  if (Bot)
    return "_|_";
  std::string Out;
  for (const auto &[Pair, K] : Map.K) {
    if (!std::isfinite(K))
      continue;
    Out += " q(c" + std::to_string(Pair.first) + ",c" +
           std::to_string(Pair.second) + ")<=" + std::to_string(K) + ";";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Domain adapters
//===----------------------------------------------------------------------===//

RelationalDomain::~RelationalDomain() = default;

std::vector<PackId> RelationalDomain::planGuard(RelGuard &,
                                                const DomainEvalContext &)
    const {
  return {};
}

namespace {

const std::vector<PackId> &noPacks() {
  static const std::vector<PackId> Empty;
  return Empty;
}

std::vector<PackId> sortedUnique(std::vector<PackId> Touched) {
  std::sort(Touched.begin(), Touched.end());
  Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());
  return Touched;
}

class OctagonDomain final : public RelationalDomain {
public:
  explicit OctagonDomain(const Packing &Pk)
      : RelationalDomain(DomainKind::Octagon), Packs(Pk) {}

  size_t numPacks() const override { return Packs.OctPacks.size(); }
  const std::vector<PackId> &packsOf(CellId C) const override {
    return C < Packs.CellOct.size() ? Packs.CellOct[C] : noPacks();
  }
  size_t packCellCount(PackId P) const override {
    return Packs.OctPacks[P].Cells.size();
  }
  DomainState::Ptr topFor(PackId P) const override {
    return std::make_shared<OctagonState>(Octagon(Packs.OctPacks[P].Cells));
  }

  std::vector<PackId> planGuard(RelGuard &G,
                                const DomainEvalContext &Ctx) const override {
    if (G.Op == BinOp::Ne)
      return {};
    // Octagon guards via linearization (6.2.2): form = A - B, constraint
    // form <= 0 (with strict/equality variants).
    LinearForm FA = Ctx.linearize(G.A);
    LinearForm FB = Ctx.linearize(G.B);
    if (!FA.valid() || !FB.valid())
      return {};
    G.Diff = FA.sub(FB); // A - B.
    G.NegDiff = FB.sub(FA);
    if (G.IsInt) {
      // Strict integer comparisons sharpen by one.
      if (G.Op == BinOp::Lt)
        G.Diff.addConstant(Interval::point(1));
      if (G.Op == BinOp::Gt)
        G.NegDiff.addConstant(Interval::point(1));
    }
    std::vector<PackId> Touched;
    for (const auto &[C, Coef] : G.Diff.terms())
      for (PackId P : packsOf(C))
        Touched.push_back(P);
    return sortedUnique(std::move(Touched));
  }

  void census(const DomainState &S, InvariantCensus &C,
              const std::function<void(double)> &) const override {
    const Octagon &O = static_cast<const OctagonState &>(S).value();
    if (O.isBottom())
      return;
    uint64_t Add = 0, Sub = 0;
    O.countConstraints(Add, Sub);
    C.OctAdditive += Add;
    C.OctSubtractive += Sub;
  }

  void dump(const DomainState &S, PackId Id, std::string &Out) const override {
    const Octagon &O = static_cast<const OctagonState &>(S).value();
    if (O.isBottom() || !O.hasRelationalInfo())
      return;
    Out += "octagon#" + std::to_string(Id) + ": " + O.toString() + "\n";
  }

private:
  const Packing &Packs;
};

class DecisionTreeDomain final : public RelationalDomain {
public:
  explicit DecisionTreeDomain(const Packing &Pk)
      : RelationalDomain(DomainKind::DecisionTree), Packs(Pk) {}

  size_t numPacks() const override { return Packs.TreePacks.size(); }
  const std::vector<PackId> &packsOf(CellId C) const override {
    return C < Packs.CellTree.size() ? Packs.CellTree[C] : noPacks();
  }
  size_t packCellCount(PackId P) const override {
    const TreePack &Pack = Packs.TreePacks[P];
    return Pack.Bools.size() + Pack.Nums.size();
  }
  DomainState::Ptr topFor(PackId P) const override {
    const TreePack &Pack = Packs.TreePacks[P];
    return std::make_shared<DecisionTreeState>(
        DecisionTree(Pack.Bools, Pack.Nums));
  }

  std::vector<PackId> planGuard(RelGuard &G,
                                const DomainEvalContext &Ctx) const override {
    G.CellA = Ctx.strongLoadCell(G.A);
    G.CellB = Ctx.strongLoadCell(G.B);
    std::vector<PackId> Touched;
    for (CellId C : {G.CellA, G.CellB})
      if (C != NoCellId)
        for (PackId P : packsOf(C))
          Touched.push_back(P);
    return sortedUnique(std::move(Touched));
  }

  void census(const DomainState &S, InvariantCensus &C,
              const std::function<void(double)> &) const override {
    const DecisionTree &T = static_cast<const DecisionTreeState &>(S).value();
    if (!T.isBottom() && T.hasRelationalInfo())
      ++C.DecisionTrees;
  }

  void dump(const DomainState &S, PackId Id, std::string &Out) const override {
    const DecisionTree &T = static_cast<const DecisionTreeState &>(S).value();
    if (!T.hasRelationalInfo())
      return;
    Out += "dtree#" + std::to_string(Id) + ": " + T.toString() + "\n";
  }

private:
  const Packing &Packs;
};

class EllipsoidDomain final : public RelationalDomain {
public:
  explicit EllipsoidDomain(const Packing &Pk)
      : RelationalDomain(DomainKind::Ellipsoid), Packs(Pk) {}

  size_t numPacks() const override { return Packs.EllPacks.size(); }
  const std::vector<PackId> &packsOf(CellId C) const override {
    return C < Packs.CellEll.size() ? Packs.CellEll[C] : noPacks();
  }
  size_t packCellCount(PackId P) const override {
    return Packs.EllPacks[P].Cells.size();
  }
  DomainState::Ptr topFor(PackId P) const override {
    return std::make_shared<EllipsoidPackState>(EllipsoidState{},
                                                Packs.EllPacks[P].Params);
  }

  bool usesPreJoinReduction() const override { return true; }

  void census(const DomainState &S, InvariantCensus &C,
              const std::function<void(double)> &NoteConst) const override {
    const EllipsoidState &E =
        static_cast<const EllipsoidPackState &>(S).value();
    for (const auto &[Pair, K] : E.K) {
      if (std::isfinite(K)) {
        ++C.EllipsoidAssertions;
        NoteConst(K);
      }
    }
  }

  void dump(const DomainState &S, PackId Id, std::string &Out) const override {
    const EllipsoidState &E =
        static_cast<const EllipsoidPackState &>(S).value();
    if (E.K.empty())
      return;
    Out += "ellipsoid#" + std::to_string(Id) + ":" + S.toString() + "\n";
  }

private:
  const Packing &Packs;
};

} // namespace

//===----------------------------------------------------------------------===//
// DomainRegistry
//===----------------------------------------------------------------------===//

DomainRegistry::DomainRegistry(const Packing &Packs,
                               const AnalyzerOptions &Opts) {
  Index.fill(-1);
  auto Add = [&](std::unique_ptr<RelationalDomain> D) {
    Index[static_cast<size_t>(D->kind())] = static_cast<int>(Domains.size());
    Domains.push_back(std::move(D));
  };
  // Registration order is the reduction order (and the paper's presentation
  // order): octagons, decision trees, ellipsoids.
  if (Opts.domainEnabled(DomainKind::Octagon))
    Add(std::make_unique<OctagonDomain>(Packs));
  if (Opts.domainEnabled(DomainKind::DecisionTree))
    Add(std::make_unique<DecisionTreeDomain>(Packs));
  if (Opts.domainEnabled(DomainKind::Ellipsoid))
    Add(std::make_unique<EllipsoidDomain>(Packs));
}
