//===- domains/Interval.h - Interval abstract domain -------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval abstract domain of Sect. 6.2.1, for both integer and
/// floating-point values, with directed rounding on float operations.
///
/// Representation: [Lo, Hi] over doubles; bottom is canonically
/// [+inf, -inf]. Bounds may transiently be infinite while evaluating an
/// expression; the assignment transfer then checks the result against the
/// machine type's range (raising overflow alarms in checking mode) and clamps
/// to the "non-erroneous" values, following Sect. 5.3: "the analysis goes on
/// with the non-erroneous concrete results (overflowing integers are wiped
/// out and not considered modulo)". Consequently stored abstract values never
/// contain infinities or NaNs.
///
/// Integer intervals keep integral bounds; all int32 (and smaller) values are
/// exact in a double. For 64-bit integers the conversion of type bounds
/// rounds outward, which is sound.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_DOMAINS_INTERVAL_H
#define ASTRAL_DOMAINS_INTERVAL_H

#include "support/RoundedArith.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace astral {

class Thresholds;
namespace ir {
enum class BinOp : uint8_t;
}

struct Interval {
  double Lo = std::numeric_limits<double>::infinity();
  double Hi = -std::numeric_limits<double>::infinity();

  constexpr Interval() = default; // Bottom.
  constexpr Interval(double L, double H) : Lo(L), Hi(H) {}

  static constexpr Interval bottom() { return Interval(); }
  static constexpr Interval top() {
    return Interval(-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity());
  }
  static constexpr Interval point(double V) { return Interval(V, V); }

  bool isBottom() const { return Lo > Hi; }
  bool isTop() const { return Lo == -INFINITY && Hi == INFINITY; }
  bool isPoint() const { return Lo == Hi; }
  bool isFinite() const { return !isBottom() && std::isfinite(Lo) &&
                                 std::isfinite(Hi); }
  bool contains(double V) const { return !isBottom() && Lo <= V && V <= Hi; }
  bool containsZero() const { return contains(0.0); }
  /// Width of the interval (inf if unbounded; 0 for points and bottom).
  double width() const { return isBottom() ? 0.0 : Hi - Lo; }
  /// Largest magnitude contained.
  double magnitude() const {
    return isBottom() ? 0.0 : std::max(std::fabs(Lo), std::fabs(Hi));
  }

  bool operator==(const Interval &O) const {
    if (isBottom() && O.isBottom())
      return true;
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }

  /// Abstract inclusion.
  bool leq(const Interval &O) const {
    if (isBottom())
      return true;
    if (O.isBottom())
      return false;
    return O.Lo <= Lo && Hi <= O.Hi;
  }

  Interval join(const Interval &O) const {
    if (isBottom())
      return O;
    if (O.isBottom())
      return *this;
    return Interval(std::min(Lo, O.Lo), std::max(Hi, O.Hi));
  }
  Interval meet(const Interval &O) const {
    if (isBottom() || O.isBottom())
      return bottom();
    Interval R(std::max(Lo, O.Lo), std::min(Hi, O.Hi));
    return R.isBottom() ? bottom() : R;
  }

  /// Plain widening (jump to infinity on unstable bounds) [CC77].
  Interval widen(const Interval &Next) const;
  /// Widening with thresholds (Sect. 7.1.2). \p AllowSlack enables the
  /// F-hat in-place inflation of Sect. 7.1.4 — float cells only; integer
  /// quantities (counters, clock offsets) must not use it, or the integral
  /// rounding of their transfer functions ratchets the bound forever.
  Interval widen(const Interval &Next, const Thresholds &T,
                 bool AllowSlack = false) const;
  /// Narrowing: refine infinite/loose bounds from Next [CC77].
  Interval narrow(const Interval &Next) const;

  /// Clamps to [lo, hi] (machine-range wipe-out after checks).
  Interval clamp(double L, double H) const {
    return meet(Interval(L, H));
  }

  // -- Guard refinements -----------------------------------------------
  /// this ∩ {x | x <= c}.
  Interval meetLe(double C) const { return meet(Interval(-INFINITY, C)); }
  Interval meetGe(double C) const { return meet(Interval(C, INFINITY)); }
  /// Strict versions; \p IsInt sharpens x < c to x <= c-1.
  Interval meetLt(double C, bool IsInt) const {
    return meetLe(IsInt ? C - 1
                        : rounded::nudgeDown(C));
  }
  Interval meetGt(double C, bool IsInt) const {
    return meetGe(IsInt ? C + 1
                        : rounded::nudgeUp(C));
  }
  /// this ∩ {x | x != c}: only sharpens when c is an endpoint of an integer
  /// interval.
  Interval meetNe(double C, bool IsInt) const;

  // -- Comparisons (the ir::isComparison operators) --------------------
  /// Whether some a in \p A and b in \p B may satisfy `a Op b`: false only
  /// when no pair can (true for any other operator). Both intervals must be
  /// non-bottom.
  static bool mayHold(ir::BinOp Op, const Interval &A, const Interval &B);
  /// this refined by `x Op y` for some y in \p Other: keeps every x that
  /// has such a y. `!=` only sharpens against a point; any other operator
  /// refines nothing.
  Interval meetCompare(ir::BinOp Op, const Interval &Other, bool IsInt) const;

  // -- Float arithmetic (directed rounding, Sect. 6.2.1) ----------------
  static Interval fadd(const Interval &A, const Interval &B);
  static Interval fsub(const Interval &A, const Interval &B);
  static Interval fmul(const Interval &A, const Interval &B);
  /// Division; when B contains 0 the result covers both signed quotients of
  /// the nonzero parts (the zero divisor itself is an error, reported by the
  /// checker before this is used).
  static Interval fdiv(const Interval &A, const Interval &B);
  static Interval fneg(const Interval &A) {
    if (A.isBottom())
      return bottom();
    return Interval(-A.Hi, -A.Lo);
  }

  // -- Integer arithmetic (exact; bounds stay integral) ------------------
  static Interval iadd(const Interval &A, const Interval &B);
  static Interval isub(const Interval &A, const Interval &B);
  static Interval imul(const Interval &A, const Interval &B);
  /// C truncated division (divisor zero excluded by caller).
  static Interval idiv(const Interval &A, const Interval &B);
  /// C remainder.
  static Interval irem(const Interval &A, const Interval &B);
  static Interval ishl(const Interval &A, const Interval &B);
  static Interval ishr(const Interval &A, const Interval &B);
  /// Bitwise ops: precise on points, range-approximated otherwise.
  static Interval iand(const Interval &A, const Interval &B);
  static Interval ior(const Interval &A, const Interval &B);
  static Interval ixor(const Interval &A, const Interval &B);
  static Interval ibitnot(const Interval &A);

  std::string toString() const;
};

} // namespace astral

#endif // ASTRAL_DOMAINS_INTERVAL_H
