//===- memory/AbstractEnv.h - Abstract environments --------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract environments (Sect. 6.1): a map from cells to per-cell abstract
/// values (the reduction of the interval and clocked base components), the
/// hidden clock interval, and one generic pack-indexed map of DomainState
/// per registered relational domain. The environment knows nothing about
/// which relational domains exist — lattice operations dispatch through the
/// uniform DomainState signature and loop over the registered maps, so a new
/// domain plugs in without touching this file (the extensible reduced
/// product of Sect. 6).
///
/// All maps are persistent trees with physical-equality short-cuts
/// (Sect. 6.1.2), so join/widen/inclusion cost is proportional to the number
/// of differing entries. Relational states are held by shared_ptr and
/// cloned on write (copy-on-write).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_MEMORY_ABSTRACTENV_H
#define ASTRAL_MEMORY_ABSTRACTENV_H

#include "domains/Clocked.h"
#include "domains/Interval.h"
#include "domains/RelationalDomain.h"
#include "memory/Cell.h"
#include "support/PersistentMap.h"

#include <memory>
#include <vector>

namespace astral {

class Thresholds;

namespace memory {

/// Per-cell abstract value: the reduced product of the interval and clocked
/// components (Sect. 6.1: "an abstract value in an abstract cell is the
/// reduction of the abstract values provided by each basic abstract
/// domain").
struct ScalarAbs {
  Interval Itv;
  Clocked Clk = Clocked::top();

  bool operator==(const ScalarAbs &O) const {
    return Itv == O.Itv && Clk == O.Clk;
  }
  bool leq(const ScalarAbs &O) const {
    return Itv.leq(O.Itv) && Clk.leq(O.Clk);
  }
};

class AbstractEnv {
public:
  using RelMap = PersistentMap<DomainState::Ptr>;

  /// The bottom (unreachable) environment.
  static AbstractEnv bottom() {
    AbstractEnv E;
    E.IsBottom = true;
    return E;
  }

  bool isBottom() const { return IsBottom; }
  void markBottom() { IsBottom = true; }

  // -- Cells --------------------------------------------------------------
  const ScalarAbs *cell(CellId C) const { return Cells.get(C); }
  Interval cellInterval(CellId C) const {
    const ScalarAbs *S = Cells.get(C);
    return S ? S->Itv : Interval::top();
  }
  void setCell(CellId C, const ScalarAbs &V) { Cells = Cells.set(C, V); }
  /// Meets \p I into cell \p C's interval — the reduction-application rule
  /// shared by the channel folds of the transfer sweeps — and reduces the
  /// cell's clock offsets against the narrowed interval. Missing cells and
  /// bottom meets (transient inconsistencies between a domain's published
  /// fact and the cell value) keep the cell unchanged, which is sound.
  /// Returns true when the cell actually tightened.
  bool meetCellInterval(CellId C, const Interval &I) {
    const ScalarAbs *S = Cells.get(C);
    if (!S)
      return false;
    Interval Meet = S->Itv.meet(I);
    if (Meet.isBottom() || Meet == S->Itv)
      return false;
    setCell(C, ScalarAbs{Meet, S->Clk.reduce(Meet, ClockItv)});
    return true;
  }
  template <typename FnT> void forEachCell(FnT &&F) const {
    Cells.forEach(F);
  }

  // -- Clock ----------------------------------------------------------------
  Interval clock() const { return ClockItv; }
  void setClock(Interval I) { ClockItv = I; }

  // -- Relational components -------------------------------------------------
  /// Domains are addressed by their DomainRegistry index \p D; packs by the
  /// pack id within that domain.
  DomainState::Ptr rel(size_t D, PackId P) const {
    if (D >= Rel.size())
      return nullptr;
    const DomainState::Ptr *S = Rel[D].get(P);
    return S ? *S : nullptr;
  }
  void setRel(size_t D, PackId P, DomainState::Ptr S) {
    if (D >= Rel.size())
      Rel.resize(D + 1);
    Rel[D] = Rel[D].set(P, std::move(S));
  }
  template <typename FnT> void forEachRel(size_t D, FnT &&F) const {
    if (D < Rel.size())
      Rel[D].forEach(F);
  }

  // -- Lattice operations (short-cut evaluated) -----------------------------
  static AbstractEnv join(const AbstractEnv &A, const AbstractEnv &B);
  /// \p FloatCell tells which cells hold floating-point values: only those
  /// receive the F-hat slack of Sect. 7.1.4 (integer quantities would
  /// ratchet). Null means "no cell is float" (no slack).
  static AbstractEnv widen(const AbstractEnv &A, const AbstractEnv &B,
                           const Thresholds &T, bool WithThresholds,
                           const std::function<bool(CellId)> *FloatCell =
                               nullptr);
  static AbstractEnv narrow(const AbstractEnv &A, const AbstractEnv &B);
  /// Abstract inclusion A (= B.
  static bool leq(const AbstractEnv &A, const AbstractEnv &B);
  static bool equal(const AbstractEnv &A, const AbstractEnv &B);

  /// Cells whose abstraction differs between A and B (for the delayed
  /// widening bookkeeping of Sect. 7.1.3).
  static void forEachChangedCell(
      const AbstractEnv &A, const AbstractEnv &B,
      const std::function<void(CellId)> &F);

private:
  static const RelMap &relMapOrEmpty(const AbstractEnv &E, size_t D);

  /// Shared engine of join/widen/narrow on the relational component: for
  /// every (domain, pack) slot where both sides are present and physically
  /// different, computes Op(X, Y) in slot order; physically shared slots
  /// are kept as they are (Sect. 6.1.2).
  static std::vector<RelMap> combineRel(
      const AbstractEnv &A, const AbstractEnv &B,
      const std::function<DomainState::Ptr(const DomainState::Ptr &,
                                           const DomainState::Ptr &)> &Op);

  bool IsBottom = false;
  PersistentMap<ScalarAbs> Cells;
  Interval ClockItv = Interval::point(0);
  /// One persistent pack->state map per registered relational domain,
  /// indexed by the DomainRegistry's domain index.
  std::vector<RelMap> Rel;
};

} // namespace memory
} // namespace astral

#endif // ASTRAL_MEMORY_ABSTRACTENV_H
