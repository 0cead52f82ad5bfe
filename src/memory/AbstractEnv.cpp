//===- memory/AbstractEnv.cpp - Abstract environments -----------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "memory/AbstractEnv.h"

#include "domains/Thresholds.h"

using namespace astral;
using namespace astral::memory;

const AbstractEnv::RelMap &AbstractEnv::relMapOrEmpty(const AbstractEnv &E,
                                                      size_t D) {
  static const RelMap Empty;
  return D < E.Rel.size() ? E.Rel[D] : Empty;
}

//===----------------------------------------------------------------------===//
// Relational combine engine
//===----------------------------------------------------------------------===//

std::vector<AbstractEnv::RelMap> AbstractEnv::combineRel(
    const AbstractEnv &A, const AbstractEnv &B,
    const std::function<DomainState::Ptr(const DomainState::Ptr &,
                                         const DomainState::Ptr &)> &Op) {
  size_t NumD = std::max(A.Rel.size(), B.Rel.size());
  std::vector<RelMap> Out(NumD);
  for (size_t D = 0; D < NumD; ++D)
    Out[D] = RelMap::combine(
        relMapOrEmpty(A, D), relMapOrEmpty(B, D),
        [&](PackId, const DomainState::Ptr *X, const DomainState::Ptr *Y)
            -> std::optional<DomainState::Ptr> {
          if (!X)
            return *Y;
          if (!Y)
            return *X;
          if (*X == *Y)
            return *X;
          DomainState::Ptr N = Op(*X, *Y);
          return N ? N : *X;
        });
  return Out;
}

//===----------------------------------------------------------------------===//
// Lattice operations
//===----------------------------------------------------------------------===//

AbstractEnv AbstractEnv::join(const AbstractEnv &A, const AbstractEnv &B) {
  if (A.IsBottom)
    return B;
  if (B.IsBottom)
    return A;
  AbstractEnv R = A;
  R.ClockItv = A.ClockItv.join(B.ClockItv);
  R.Cells = PersistentMap<ScalarAbs>::combine(
      A.Cells, B.Cells,
      [](CellId, const ScalarAbs *X, const ScalarAbs *Y)
          -> std::optional<ScalarAbs> {
        if (!X)
          return *Y;
        if (!Y)
          return *X;
        return ScalarAbs{X->Itv.join(Y->Itv), X->Clk.join(Y->Clk)};
      });
  R.Rel = combineRel(A, B,
                     [](const DomainState::Ptr &X, const DomainState::Ptr &Y) {
                       return X->join(*Y);
                     });
  return R;
}

AbstractEnv AbstractEnv::widen(const AbstractEnv &A, const AbstractEnv &B,
                               const Thresholds &T, bool WithThresholds,
                               const std::function<bool(CellId)> *FloatCell) {
  if (A.IsBottom)
    return B;
  if (B.IsBottom)
    return A;
  AbstractEnv R = A;
  // The clock must be widened like any cell: it advances every iteration
  // of the synchronous loop and a plain join would take ClockMax fixpoint
  // steps to stabilize. The threshold ladder contains ClockMax itself (the
  // Analyzer adds it), so the bound lands exactly there.
  R.ClockItv = WithThresholds ? A.ClockItv.widen(B.ClockItv, T)
                              : A.ClockItv.widen(B.ClockItv);
  R.Cells = PersistentMap<ScalarAbs>::combine(
      A.Cells, B.Cells,
      [&](CellId C, const ScalarAbs *X, const ScalarAbs *Y)
          -> std::optional<ScalarAbs> {
        if (!X)
          return *Y;
        if (!Y)
          return *X;
        bool Slack = FloatCell && (*FloatCell)(C);
        Interval WI = WithThresholds ? X->Itv.widen(Y->Itv, T, Slack)
                                     : X->Itv.widen(Y->Itv);
        return ScalarAbs{WI, X->Clk.widen(Y->Clk, T, WithThresholds)};
      });
  R.Rel = combineRel(A, B,
                     [&](const DomainState::Ptr &X, const DomainState::Ptr &Y) {
                       return X->widen(*Y, T, WithThresholds);
                     });
  return R;
}

AbstractEnv AbstractEnv::narrow(const AbstractEnv &A, const AbstractEnv &B) {
  if (A.IsBottom || B.IsBottom)
    return bottom();
  AbstractEnv R = A;
  R.ClockItv = A.ClockItv.meet(B.ClockItv);
  if (R.ClockItv.isBottom())
    R.ClockItv = A.ClockItv;
  R.Cells = PersistentMap<ScalarAbs>::combine(
      A.Cells, B.Cells,
      [](CellId, const ScalarAbs *X, const ScalarAbs *Y)
          -> std::optional<ScalarAbs> {
        if (!X)
          return *Y;
        if (!Y)
          return *X;
        return ScalarAbs{X->Itv.narrow(Y->Itv), X->Clk.narrow(Y->Clk)};
      });
  R.Rel = combineRel(A, B,
                     [](const DomainState::Ptr &X, const DomainState::Ptr &Y) {
                       return X->narrow(*Y);
                     });
  return R;
}

bool AbstractEnv::leq(const AbstractEnv &A, const AbstractEnv &B) {
  if (A.IsBottom)
    return true;
  if (B.IsBottom)
    return false;
  if (!A.ClockItv.leq(B.ClockItv))
    return false;
  bool Ok = true;
  static const ScalarAbs TopAbs{Interval::top(), Clocked::top()};
  PersistentMap<ScalarAbs>::forEachDiff(
      A.Cells, B.Cells, [&](CellId, const ScalarAbs *X, const ScalarAbs *Y) {
        if (!Ok)
          return;
        // A missing binding means the cell is unconstrained (top).
        const ScalarAbs &XV = X ? *X : TopAbs;
        const ScalarAbs &YV = Y ? *Y : TopAbs;
        if (!XV.leq(YV))
          Ok = false;
      });
  if (!Ok)
    return false;

  size_t NumD = std::max(A.Rel.size(), B.Rel.size());
  for (size_t D = 0; D < NumD && Ok; ++D)
    RelMap::forEachDiff(
        relMapOrEmpty(A, D), relMapOrEmpty(B, D),
        [&](PackId, const DomainState::Ptr *X, const DomainState::Ptr *Y) {
          // A state missing on either side is unconstrained on that side.
          if (!Ok || !X || !Y)
            return;
          if (!(*X)->leq(**Y))
            Ok = false;
        });
  return Ok;
}

bool AbstractEnv::equal(const AbstractEnv &A, const AbstractEnv &B) {
  if (A.IsBottom != B.IsBottom)
    return false;
  if (A.IsBottom)
    return true;
  if (A.ClockItv != B.ClockItv)
    return false;
  if (!PersistentMap<ScalarAbs>::equal(A.Cells, B.Cells))
    return false;
  bool Eq = true;
  size_t NumD = std::max(A.Rel.size(), B.Rel.size());
  for (size_t D = 0; D < NumD && Eq; ++D)
    RelMap::forEachDiff(
        relMapOrEmpty(A, D), relMapOrEmpty(B, D),
        [&](PackId, const DomainState::Ptr *X, const DomainState::Ptr *Y) {
          if (!X || !Y || !(*X)->equal(**Y))
            Eq = false;
        });
  return Eq;
}

void AbstractEnv::forEachChangedCell(const AbstractEnv &A,
                                     const AbstractEnv &B,
                                     const std::function<void(CellId)> &F) {
  PersistentMap<ScalarAbs>::forEachDiff(
      A.Cells, B.Cells,
      [&](CellId C, const ScalarAbs *, const ScalarAbs *) { F(C); });
}
