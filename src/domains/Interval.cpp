//===- domains/Interval.cpp - Interval abstract domain ---------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Interval.h"

#include "domains/Thresholds.h"
#include "ir/Ir.h"

#include <cstdio>

using namespace astral;
using ir::BinOp;

Interval Interval::widen(const Interval &Next) const {
  if (isBottom())
    return Next;
  if (Next.isBottom())
    return *this;
  double L = Next.Lo < Lo ? -INFINITY : Lo;
  double H = Next.Hi > Hi ? INFINITY : Hi;
  return Interval(L, H);
}

Interval Interval::widen(const Interval &Next, const Thresholds &T,
                         bool AllowSlack) const {
  if (isBottom())
    return Next;
  if (Next.isBottom())
    return *this;
  // The F-hat perturbation (Sect. 7.1.4): growth within eps*|bound| is
  // absorbed by inflating the bound in place (sound: the result covers
  // Next), so rounding dribble at a stable threshold does not escalate.
  double Eps = AllowSlack ? T.eps() : 0.0;
  double L = Lo, H = Hi;
  if (Next.Hi > Hi) {
    double Slack = Eps * std::max(std::fabs(Hi), 1.0);
    H = (Eps > 0 && std::isfinite(Hi) && Next.Hi <= Hi + Slack)
            ? Hi + Slack
            : T.nextAbove(Next.Hi);
  }
  if (Next.Lo < Lo) {
    double Slack = Eps * std::max(std::fabs(Lo), 1.0);
    L = (Eps > 0 && std::isfinite(Lo) && Next.Lo >= Lo - Slack)
            ? Lo - Slack
            : T.nextBelow(Next.Lo);
  }
  return Interval(L, H);
}

Interval Interval::narrow(const Interval &Next) const {
  if (isBottom())
    return bottom();
  if (Next.isBottom())
    return *this;
  // Decreasing iteration: with widening *thresholds* the blown-up bounds
  // are finite, so the classical "refine infinities only" narrowing would
  // keep them; taking the meet refines every bound. Soundness: the caller
  // narrows a post-fixpoint X with Next = E0 |_| F(X), and both are upper
  // bounds of the concrete invariant, so their meet is too. Termination
  // comes from the fixed narrowing-iteration budget (Sect. 5.5).
  Interval R = meet(Next);
  return R.isBottom() ? *this : R;
}

Interval Interval::meetNe(double C, bool IsInt) const {
  if (isBottom())
    return bottom();
  if (!IsInt)
    return *this; // Removing one float point never shrinks an interval.
  Interval R = *this;
  if (R.Lo == C)
    R.Lo = C + 1;
  if (R.Hi == C)
    R.Hi = C - 1;
  return R.isBottom() ? bottom() : R;
}

bool Interval::mayHold(BinOp Op, const Interval &A, const Interval &B) {
  switch (Op) {
  case BinOp::Lt: return A.Lo < B.Hi;
  case BinOp::Le: return A.Lo <= B.Hi;
  case BinOp::Gt: return A.Hi > B.Lo;
  case BinOp::Ge: return A.Hi >= B.Lo;
  case BinOp::Eq: return !A.meet(B).isBottom();
  case BinOp::Ne: return !(A.isPoint() && B.isPoint() && A.Lo == B.Lo);
  default: return true;
  }
}

Interval Interval::meetCompare(BinOp Op, const Interval &Other,
                               bool IsInt) const {
  switch (Op) {
  case BinOp::Lt: return meetLt(Other.Hi, IsInt);
  case BinOp::Le: return meetLe(Other.Hi);
  case BinOp::Gt: return meetGt(Other.Lo, IsInt);
  case BinOp::Ge: return meetGe(Other.Lo);
  case BinOp::Eq: return meet(Other);
  case BinOp::Ne: return Other.isPoint() ? meetNe(Other.Lo, IsInt) : *this;
  default: return *this;
  }
}

//===----------------------------------------------------------------------===//
// Float arithmetic
//===----------------------------------------------------------------------===//

Interval Interval::fadd(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  double L = rounded::addDown(A.Lo, B.Lo);
  double H = rounded::addUp(A.Hi, B.Hi);
  // inf + -inf = NaN: means the result is unconstrained on that side.
  if (std::isnan(L))
    L = -INFINITY;
  if (std::isnan(H))
    H = INFINITY;
  return Interval(L, H);
}

Interval Interval::fsub(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  double L = rounded::subDown(A.Lo, B.Hi);
  double H = rounded::subUp(A.Hi, B.Lo);
  if (std::isnan(L))
    L = -INFINITY;
  if (std::isnan(H))
    H = INFINITY;
  return Interval(L, H);
}

Interval Interval::fmul(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  double Cands[4][2] = {{A.Lo, B.Lo}, {A.Lo, B.Hi}, {A.Hi, B.Lo},
                        {A.Hi, B.Hi}};
  double L = INFINITY, H = -INFINITY;
  for (auto &C : Cands) {
    double X = C[0], Y = C[1];
    // 0 * inf = NaN in IEEE but 0 mathematically (bounds are exact reals
    // here, infinity only encodes unboundedness).
    double Down, Up;
    if ((X == 0.0 && std::isinf(Y)) || (Y == 0.0 && std::isinf(X))) {
      Down = Up = 0.0;
    } else {
      Down = rounded::mulDown(X, Y);
      Up = rounded::mulUp(X, Y);
    }
    L = std::min(L, Down);
    H = std::max(H, Up);
  }
  return Interval(L, H);
}

Interval Interval::fdiv(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  // Split the divisor at zero; the zero divisor itself is the checker's
  // business.
  Interval Pos = B.meet(Interval(rounded::AbsErrMin, INFINITY));
  Interval Neg = B.meet(Interval(-INFINITY, -rounded::AbsErrMin));
  // If B is exactly [0,0] the division is always an error; return bottom so
  // the result constrains nothing.
  Interval R = bottom();
  for (const Interval *D : {&Pos, &Neg}) {
    if (D->isBottom())
      continue;
    double Cands[4][2] = {{A.Lo, D->Lo}, {A.Lo, D->Hi}, {A.Hi, D->Lo},
                          {A.Hi, D->Hi}};
    double L = INFINITY, H = -INFINITY;
    for (auto &C : Cands) {
      double X = C[0], Y = C[1];
      double Down, Up;
      if (std::isinf(X) && std::isinf(Y)) {
        Down = -INFINITY;
        Up = INFINITY;
      } else {
        Down = rounded::divDown(X, Y);
        Up = rounded::divUp(X, Y);
      }
      L = std::min(L, Down);
      H = std::max(H, Up);
    }
    R = R.join(Interval(L, H));
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Integer arithmetic
//===----------------------------------------------------------------------===//

// Integer bounds are integral doubles; int32 arithmetic is exact. Addition
// of two < 2^53 magnitudes stays exact; where exactness could be lost (only
// for 64-bit extremes) the directed rounding keeps the result sound.

Interval Interval::iadd(const Interval &A, const Interval &B) {
  Interval R = fadd(A, B);
  if (R.isBottom())
    return R;
  return Interval(std::floor(R.Lo), std::ceil(R.Hi));
}

Interval Interval::isub(const Interval &A, const Interval &B) {
  Interval R = fsub(A, B);
  if (R.isBottom())
    return R;
  return Interval(std::floor(R.Lo), std::ceil(R.Hi));
}

Interval Interval::imul(const Interval &A, const Interval &B) {
  Interval R = fmul(A, B);
  if (R.isBottom())
    return R;
  return Interval(std::floor(R.Lo), std::ceil(R.Hi));
}

Interval Interval::idiv(const Interval &A, const Interval &B) {
  Interval R = fdiv(A, B);
  if (R.isBottom())
    return R;
  // C division truncates toward zero.
  double L = R.Lo < 0 ? -std::floor(-R.Lo) : std::floor(R.Lo);
  double H = R.Hi < 0 ? -std::floor(-R.Hi) : std::floor(R.Hi);
  if (std::isinf(R.Lo))
    L = -INFINITY;
  if (std::isinf(R.Hi))
    H = INFINITY;
  return Interval(std::min(L, H), std::max(L, H)).join(
      // Truncation can reach 0 from either side when A spans small values.
      A.containsZero() ? Interval::point(0) : Interval::bottom());
}

Interval Interval::irem(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  // |a % b| < |b| and a % b has the sign of a (C99).
  double M = std::max(std::fabs(B.Lo), std::fabs(B.Hi));
  if (std::isinf(M))
    return A.Lo >= 0 ? Interval(0, INFINITY)
                     : (A.Hi <= 0 ? Interval(-INFINITY, 0) : top());
  double Bound = M - 1;
  double L = A.Lo >= 0 ? 0 : -Bound;
  double H = A.Hi <= 0 ? 0 : Bound;
  // A point % point is exact.
  if (A.isPoint() && B.isPoint() && B.Lo != 0 && std::isfinite(A.Lo)) {
    double Rm = std::fmod(A.Lo, B.Lo);
    return point(Rm);
  }
  return Interval(L, H);
}

Interval Interval::ishl(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  if (B.Lo < 0 || B.Hi > 63)
    return top(); // Invalid shifts are flagged by the checker.
  double Cands[4] = {A.Lo * std::exp2(B.Lo), A.Lo * std::exp2(B.Hi),
                     A.Hi * std::exp2(B.Lo), A.Hi * std::exp2(B.Hi)};
  double L = INFINITY, H = -INFINITY;
  for (double C : Cands) {
    L = std::min(L, C);
    H = std::max(H, C);
  }
  return Interval(std::floor(L), std::ceil(H));
}

Interval Interval::ishr(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  if (B.Lo < 0 || B.Hi > 63)
    return top();
  double Cands[4] = {A.Lo / std::exp2(B.Lo), A.Lo / std::exp2(B.Hi),
                     A.Hi / std::exp2(B.Lo), A.Hi / std::exp2(B.Hi)};
  double L = INFINITY, H = -INFINITY;
  for (double C : Cands) {
    L = std::min(L, std::floor(C));
    H = std::max(H, std::floor(C));
  }
  return Interval(L, H);
}

Interval Interval::iand(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  if (A.isPoint() && B.isPoint() && A.isFinite() && B.isFinite())
    return point(static_cast<double>(static_cast<int64_t>(A.Lo) &
                                     static_cast<int64_t>(B.Lo)));
  // For nonnegative operands, and is bounded by min of the maxima.
  if (A.Lo >= 0 && B.Lo >= 0)
    return Interval(0, std::min(A.Hi, B.Hi));
  return top();
}

Interval Interval::ior(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  if (A.isPoint() && B.isPoint() && A.isFinite() && B.isFinite())
    return point(static_cast<double>(static_cast<int64_t>(A.Lo) |
                                     static_cast<int64_t>(B.Lo)));
  if (A.Lo >= 0 && B.Lo >= 0 && A.isFinite() && B.isFinite()) {
    // or(a, b) < 2^ceil(log2(max+1)+1).
    double M = std::max(A.Hi, B.Hi);
    double Cap = std::exp2(std::ceil(std::log2(M + 1))) * 2 - 1;
    return Interval(0, Cap);
  }
  return top();
}

Interval Interval::ixor(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isBottom())
    return bottom();
  if (A.isPoint() && B.isPoint() && A.isFinite() && B.isFinite())
    return point(static_cast<double>(static_cast<int64_t>(A.Lo) ^
                                     static_cast<int64_t>(B.Lo)));
  if (A.Lo >= 0 && B.Lo >= 0 && A.isFinite() && B.isFinite()) {
    double M = std::max(A.Hi, B.Hi);
    double Cap = std::exp2(std::ceil(std::log2(M + 1))) * 2 - 1;
    return Interval(0, Cap);
  }
  return top();
}

Interval Interval::ibitnot(const Interval &A) {
  if (A.isBottom())
    return bottom();
  // ~x = -x - 1.
  return isub(fneg(A), point(1));
}

std::string Interval::toString() const {
  if (isBottom())
    return "_|_";
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf), "[%.17g, %.17g]", Lo, Hi);
  return Buf;
}
