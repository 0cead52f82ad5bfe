//===- domains/Clocked.h - Clocked abstract domain ---------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clocked abstract domain of Sect. 6.2.1: a value is abstracted by a
/// triple (v, v-, v+) of intervals with the meaning
///     x in gamma(v),  x - clock in gamma(v-),  x + clock in gamma(v+),
/// where `clock` is the hidden variable counting synchronous ticks, bounded
/// by the maximal continuous operating time of the system. Event counters
/// incremented at most once per tick keep a finite x - clock bound even when
/// plain interval widening would lose them; the reduction
///     v  ∩  (v- + clock)  ∩  (v+ - clock)
/// then bounds the counter by the clock bound (reduceValue, applied at every
/// load). The reduction also runs the other way (reduce):
///     v- ∩ (v - clock),   v+ ∩ (v + clock)
/// whenever a cell's interval narrows (guards, channel facts) or the clock
/// moves (the tick of `wait`). Without it a clamped cell keeps the
/// offsets of its unclamped assignment, and threshold widening climbs them
/// rung by rung to infinity; with it they stop one rung above v ± the
/// clock bound.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_DOMAINS_CLOCKED_H
#define ASTRAL_DOMAINS_CLOCKED_H

#include "domains/Interval.h"

namespace astral {

class Thresholds;

struct Clocked {
  Interval MinusClk = Interval::top(); ///< x - clock.
  Interval PlusClk = Interval::top();  ///< x + clock.

  static Clocked top() { return Clocked(); }
  static Clocked bottom() {
    return Clocked{Interval::bottom(), Interval::bottom()};
  }

  bool isTop() const { return MinusClk.isTop() && PlusClk.isTop(); }

  bool operator==(const Clocked &O) const {
    return MinusClk == O.MinusClk && PlusClk == O.PlusClk;
  }

  bool leq(const Clocked &O) const {
    return MinusClk.leq(O.MinusClk) && PlusClk.leq(O.PlusClk);
  }
  Clocked join(const Clocked &O) const {
    return Clocked{MinusClk.join(O.MinusClk), PlusClk.join(O.PlusClk)};
  }
  Clocked meet(const Clocked &O) const {
    return Clocked{MinusClk.meet(O.MinusClk), PlusClk.meet(O.PlusClk)};
  }
  /// Threshold widening; the offsets are integer-valued quantities, so the
  /// float F-hat slack never applies (it would ratchet with the integral
  /// rounding of shifted()/afterTick()).
  Clocked widen(const Clocked &O, const Thresholds &T,
                bool WithThresholds = true) const {
    if (!WithThresholds)
      return Clocked{MinusClk.widen(O.MinusClk), PlusClk.widen(O.PlusClk)};
    return Clocked{MinusClk.widen(O.MinusClk, T, /*AllowSlack=*/false),
                   PlusClk.widen(O.PlusClk, T, /*AllowSlack=*/false)};
  }
  Clocked narrow(const Clocked &O) const {
    return Clocked{MinusClk.narrow(O.MinusClk), PlusClk.narrow(O.PlusClk)};
  }

  /// Offsets after x := x + [a, b] (integer semantics).
  Clocked shifted(const Interval &Delta) const {
    return Clocked{Interval::iadd(MinusClk, Delta),
                   Interval::iadd(PlusClk, Delta)};
  }

  /// Triple for a freshly assigned unrelated value v: x - clock in
  /// v - clockItv, x + clock in v + clockItv.
  static Clocked fromValue(const Interval &V, const Interval &ClockItv) {
    return Clocked{Interval::isub(V, ClockItv), Interval::iadd(V, ClockItv)};
  }

  /// On a clock tick, clock increases by one: x - clock decreases by one,
  /// x + clock increases by one.
  Clocked afterTick() const {
    return Clocked{Interval::isub(MinusClk, Interval::point(1)),
                   Interval::iadd(PlusClk, Interval::point(1))};
  }

  /// The value interval implied by the offsets and the clock interval.
  Interval reduceValue(const Interval &V, const Interval &ClockItv) const {
    Interval R = V;
    R = R.meet(Interval::iadd(MinusClk, ClockItv));
    R = R.meet(Interval::isub(PlusClk, ClockItv));
    // An empty meet here means the offsets were inconsistent with the value
    // interval, which only happens transiently; keep V (sound).
    return R.isBottom() ? V : R;
  }

  /// The offsets implied by the value and the clock interval: the meet of
  /// (v-, v+) with (v - clock, v + clock). A top triple tracks nothing and
  /// stays top; an empty meet keeps the offsets, as in reduceValue.
  Clocked reduce(const Interval &V, const Interval &ClockItv) const {
    if (isTop())
      return *this;
    Clocked R = meet(fromValue(V, ClockItv));
    if (R.MinusClk.isBottom() || R.PlusClk.isBottom())
      return *this;
    return R;
  }
};

} // namespace astral

#endif // ASTRAL_DOMAINS_CLOCKED_H
