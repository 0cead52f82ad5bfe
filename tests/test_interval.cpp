//===- tests/test_interval.cpp - Interval domain tests ----------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Interval.h"

#include "domains/Thresholds.h"
#include "ir/Ir.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace astral;

TEST(Interval, BottomAndTop) {
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_FALSE(Interval::point(3).isBottom());
  EXPECT_TRUE(Interval::point(3).isPoint());
}

TEST(Interval, LatticeBasics) {
  Interval A(0, 10), B(5, 20);
  EXPECT_EQ(A.join(B), Interval(0, 20));
  EXPECT_EQ(A.meet(B), Interval(5, 10));
  EXPECT_TRUE(A.meet(Interval(50, 60)).isBottom());
  EXPECT_TRUE(A.leq(Interval(0, 10)));
  EXPECT_TRUE(A.leq(Interval(-1, 11)));
  EXPECT_FALSE(A.leq(B));
  EXPECT_TRUE(Interval::bottom().leq(A));
  EXPECT_FALSE(A.leq(Interval::bottom()));
}

TEST(Interval, JoinWithBottomIsIdentity) {
  Interval A(1, 2);
  EXPECT_EQ(A.join(Interval::bottom()), A);
  EXPECT_EQ(Interval::bottom().join(A), A);
}

TEST(Interval, PlainWideningJumpsToInfinity) {
  Interval A(0, 10), B(0, 11);
  Interval W = A.widen(B);
  EXPECT_EQ(W.Lo, 0);
  EXPECT_TRUE(std::isinf(W.Hi));
  // Stable bound stays.
  Interval W2 = A.widen(Interval(1, 10));
  EXPECT_EQ(W2, A);
}

TEST(Interval, ThresholdWideningStopsAtLadder) {
  Thresholds T = Thresholds::geometric(1.0, 10.0, 5);
  Interval A(0, 10), B(0, 11);
  Interval W = A.widen(B, T);
  EXPECT_EQ(W.Hi, 100.0); // Next rung above 11.
  Interval W2 = Interval(-1, 10).widen(Interval(-15, 10), T);
  EXPECT_EQ(W2.Lo, -100.0);
}

TEST(Interval, NarrowRefinesBounds) {
  Interval X(0, INFINITY);
  Interval N = X.narrow(Interval(0, 42));
  EXPECT_EQ(N, Interval(0, 42));
  // Finite over-widened bounds (thresholds!) are refined too.
  Interval Y(0, 100);
  EXPECT_EQ(Y.narrow(Interval(5, 42)), Interval(5, 42));
  // Inconsistent refinements are ignored (soundness guard).
  EXPECT_EQ(Y.narrow(Interval(500, 600)), Y);
  EXPECT_EQ(Y.narrow(Interval::bottom()), Y);
}

TEST(Interval, GuardMeets) {
  Interval A(0, 10);
  EXPECT_EQ(A.meetLe(5), Interval(0, 5));
  EXPECT_EQ(A.meetGe(5), Interval(5, 10));
  EXPECT_EQ(A.meetLt(5, /*IsInt=*/true), Interval(0, 4));
  EXPECT_EQ(A.meetGt(5, /*IsInt=*/true), Interval(6, 10));
  EXPECT_TRUE(A.meetLt(0, true).isBottom());
  EXPECT_EQ(A.meetNe(0, true), Interval(1, 10));
  EXPECT_EQ(A.meetNe(10, true), Interval(0, 9));
  EXPECT_EQ(A.meetNe(5, true), A); // Interior points do not split.
}

TEST(Interval, FloatGuardStrictness) {
  Interval A(0.0, 1.0);
  Interval Lt = A.meetLt(1.0, /*IsInt=*/false);
  EXPECT_LT(Lt.Hi, 1.0);
  EXPECT_GT(Lt.Hi, 0.999);
}

namespace {

constexpr ir::BinOp Comparisons[] = {ir::BinOp::Lt, ir::BinOp::Le,
                                     ir::BinOp::Gt, ir::BinOp::Ge,
                                     ir::BinOp::Eq, ir::BinOp::Ne};

/// The concrete truth of `A Op B`.
bool holds(ir::BinOp Op, int A, int B) {
  switch (Op) {
  case ir::BinOp::Lt: return A < B;
  case ir::BinOp::Le: return A <= B;
  case ir::BinOp::Gt: return A > B;
  case ir::BinOp::Ge: return A >= B;
  case ir::BinOp::Eq: return A == B;
  default: return A != B;
  }
}

} // namespace

TEST(Interval, NegateAndMirrorMatchEnumeration) {
  for (ir::BinOp Op : Comparisons)
    for (int A = -2; A <= 2; ++A)
      for (int B = -2; B <= 2; ++B) {
        EXPECT_NE(holds(ir::negate(Op), A, B), holds(Op, A, B));
        EXPECT_EQ(holds(ir::mirror(Op), B, A), holds(Op, A, B));
      }
}

TEST(Interval, ComparisonPairMatchesEnumeration) {
  // Every integer interval within [-3, 3] against every other: mayHold is
  // exact, and the refinement keeps every a of A that has a witness b in B
  // with `a Op b`, and nothing outside A.
  std::vector<Interval> Itvs;
  for (int Lo = -3; Lo <= 3; ++Lo)
    for (int Hi = Lo; Hi <= 3; ++Hi)
      Itvs.push_back(Interval(Lo, Hi));
  for (ir::BinOp Op : Comparisons)
    for (const Interval &A : Itvs)
      for (const Interval &B : Itvs) {
        const std::string Case = "op " + std::to_string(int(Op)) + ", A " +
                                 A.toString() + ", B " + B.toString();
        bool AnyPair = false;
        for (int X = int(A.Lo); X <= int(A.Hi); ++X) {
          bool Witness = false;
          for (int Y = int(B.Lo); Y <= int(B.Hi); ++Y)
            Witness |= holds(Op, X, Y);
          AnyPair |= Witness;
          for (bool IsInt : {true, false}) {
            Interval R = A.meetCompare(Op, B, IsInt);
            EXPECT_TRUE(R.leq(A)) << Case;
            if (Witness)
              EXPECT_TRUE(R.contains(X)) << Case << ", a " << X;
          }
        }
        EXPECT_EQ(Interval::mayHold(Op, A, B), AnyPair) << Case;
      }
}

TEST(Interval, FloatArithmeticBasics) {
  Interval A(1, 2), B(10, 20);
  Interval Sum = Interval::fadd(A, B);
  EXPECT_LE(Sum.Lo, 11.0);
  EXPECT_GE(Sum.Hi, 22.0);
  Interval Diff = Interval::fsub(B, A);
  EXPECT_LE(Diff.Lo, 8.0);
  EXPECT_GE(Diff.Hi, 19.0);
  Interval Prod = Interval::fmul(Interval(-2, 3), Interval(4, 5));
  EXPECT_LE(Prod.Lo, -10.0);
  EXPECT_GE(Prod.Hi, 15.0);
}

TEST(Interval, DivisionSplitsZeroDivisor) {
  Interval Q = Interval::fdiv(Interval(1, 1), Interval(-2, 2));
  // 1/[-2,0) = (-inf,-0.5], 1/(0,2] = [0.5,inf).
  EXPECT_LE(Q.Lo, -0.5);
  EXPECT_GE(Q.Hi, 0.5);
  Interval ByZero = Interval::fdiv(Interval(1, 1), Interval(0, 0));
  EXPECT_TRUE(ByZero.isBottom()); // No non-erroneous result.
}

TEST(Interval, IntegerDivisionTruncates) {
  EXPECT_EQ(Interval::idiv(Interval(7, 7), Interval(2, 2)),
            Interval(3, 3));
  EXPECT_EQ(Interval::idiv(Interval(-7, -7), Interval(2, 2)),
            Interval(-3, -3));
  Interval Q = Interval::idiv(Interval(-7, 7), Interval(2, 3));
  EXPECT_LE(Q.Lo, -3.0);
  EXPECT_GE(Q.Hi, 3.0);
}

TEST(Interval, Remainder) {
  EXPECT_EQ(Interval::irem(Interval(7, 7), Interval(3, 3)),
            Interval(1, 1));
  EXPECT_EQ(Interval::irem(Interval(-7, -7), Interval(3, 3)),
            Interval(-1, -1));
  Interval R = Interval::irem(Interval(0, 100), Interval(1, 10));
  EXPECT_GE(R.Lo, 0.0);
  EXPECT_LE(R.Hi, 9.0);
}

TEST(Interval, Shifts) {
  EXPECT_EQ(Interval::ishl(Interval(1, 1), Interval(4, 4)),
            Interval(16, 16));
  EXPECT_EQ(Interval::ishr(Interval(256, 256), Interval(4, 4)),
            Interval(16, 16));
  Interval S = Interval::ishl(Interval(1, 3), Interval(0, 2));
  EXPECT_EQ(S.Lo, 1.0);
  EXPECT_EQ(S.Hi, 12.0);
}

TEST(Interval, BitwisePointsExact) {
  EXPECT_EQ(Interval::iand(Interval(12, 12), Interval(10, 10)),
            Interval(8, 8));
  EXPECT_EQ(Interval::ior(Interval(12, 12), Interval(10, 10)),
            Interval(14, 14));
  EXPECT_EQ(Interval::ixor(Interval(12, 12), Interval(10, 10)),
            Interval(6, 6));
  EXPECT_EQ(Interval::ibitnot(Interval(0, 0)), Interval(-1, -1));
}

TEST(Interval, BitwiseRangesSound) {
  Interval A(0, 12), B(0, 10);
  Interval And = Interval::iand(A, B);
  for (int X : {0, 5, 12})
    for (int Y : {0, 7, 10})
      EXPECT_TRUE(And.contains(X & Y));
}

TEST(Interval, ClampMachineRange) {
  Interval Huge(-1e300, 1e300);
  Interval Clamped = Huge.clamp(-3.4e38, 3.4e38);
  EXPECT_EQ(Clamped, Interval(-3.4e38, 3.4e38));
}

// Property: interval operations over-approximate concrete execution.
class IntervalSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSoundness, OpsContainConcreteResults) {
  std::mt19937_64 Rng(GetParam());
  auto RandItv = [&](double Span) {
    std::uniform_real_distribution<double> D(-Span, Span);
    double A = D(Rng), B = D(Rng);
    return Interval(std::min(A, B), std::max(A, B));
  };
  auto Sample = [&](const Interval &I) {
    std::uniform_real_distribution<double> D(0.0, 1.0);
    return I.Lo + (I.Hi - I.Lo) * D(Rng);
  };
  for (int Case = 0; Case < 3000; ++Case) {
    Interval A = RandItv(1e6), B = RandItv(1e6);
    double X = Sample(A), Y = Sample(B);
    ASSERT_TRUE(Interval::fadd(A, B).contains(X + Y));
    ASSERT_TRUE(Interval::fsub(A, B).contains(X - Y));
    ASSERT_TRUE(Interval::fmul(A, B).contains(X * Y));
    if (!B.containsZero())
      ASSERT_TRUE(Interval::fdiv(A, B).contains(X / Y));

    // Integer flavors.
    int64_t XI = static_cast<int64_t>(X), YI = static_cast<int64_t>(Y);
    Interval AI(std::floor(A.Lo), std::ceil(A.Hi));
    Interval BI(std::floor(B.Lo), std::ceil(B.Hi));
    ASSERT_TRUE(Interval::iadd(AI, BI).contains(
        static_cast<double>(XI + YI)));
    ASSERT_TRUE(Interval::isub(AI, BI).contains(
        static_cast<double>(XI - YI)));
    if (YI != 0) {
      ASSERT_TRUE(Interval::idiv(AI, BI).contains(
          static_cast<double>(XI / YI)));
      ASSERT_TRUE(Interval::irem(AI, BI).contains(
          static_cast<double>(XI % YI)));
    }
  }
}

TEST_P(IntervalSoundness, WideningTerminates) {
  std::mt19937_64 Rng(GetParam());
  Thresholds T = Thresholds::geometric(1.0, 4.0, 32);
  std::uniform_real_distribution<double> D(-1e30, 1e30);
  Interval X(0, 0);
  int Steps = 0;
  for (;; ++Steps) {
    ASSERT_LT(Steps, 200) << "widening chain too long";
    double A = D(Rng), B = D(Rng);
    Interval Next = X.join(Interval(std::min(A, B), std::max(A, B)));
    if (Next.leq(X))
      break;
    Interval W = X.widen(Next, T);
    ASSERT_TRUE(X.leq(W));
    ASSERT_TRUE(Next.leq(W));
    if (W == X)
      break;
    X = W;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundness,
                         ::testing::Values(3, 1337, 42424242));
