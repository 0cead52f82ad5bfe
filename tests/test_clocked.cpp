//===- tests/test_clocked.cpp - Clocked domain tests -------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Clocked.h"

#include "domains/Thresholds.h"

#include <gtest/gtest.h>

using namespace astral;

TEST(Clocked, TopAndLattice) {
  Clocked T = Clocked::top();
  EXPECT_TRUE(T.isTop());
  Clocked A{Interval(-5, 0), Interval(0, 10)};
  EXPECT_TRUE(A.leq(T));
  EXPECT_FALSE(T.leq(A));
  EXPECT_TRUE(A.leq(A));
  Clocked J = A.join(T);
  EXPECT_TRUE(J.isTop());
  Clocked M = A.meet(T);
  EXPECT_EQ(M.MinusClk, A.MinusClk);
}

TEST(Clocked, FromValueAndReduce) {
  // x = 5 at clock in [0, 10]: x-clock in [-5, 5], x+clock in [5, 15].
  Clocked C = Clocked::fromValue(Interval::point(5), Interval(0, 10));
  EXPECT_EQ(C.MinusClk, Interval(-5, 5));
  EXPECT_EQ(C.PlusClk, Interval(5, 15));
  // Reduction recovers the value bound from the offsets.
  Interval V = C.reduceValue(Interval(-100, 100), Interval(0, 10));
  EXPECT_LE(V.Hi, 15.0);
  EXPECT_GE(V.Lo, -5.0);
}

TEST(Clocked, ReduceMeetsOffsetsWithValueAndClock) {
  // A clamped cell x in [-500, 500] whose offsets still hold the unclamped
  // assignment: x - clock in v - clock, x + clock in v + clock.
  Clocked C{Interval(-1e9, 1e9), Interval(-1e9, 1e9)};
  Clocked R = C.reduce(Interval(-500, 500), Interval(1, 1e6));
  EXPECT_EQ(R.MinusClk, Interval(-500 - 1e6, 499));
  EXPECT_EQ(R.PlusClk, Interval(-499, 500 + 1e6));
  // Already tighter offsets stay as they are.
  Clocked Tight{Interval(0, 0), Interval(2, 2)};
  EXPECT_EQ(Tight.reduce(Interval(1, 1), Interval(1, 1)), Tight);
}

TEST(Clocked, ReduceKeepsTopTop) {
  // A top triple tracks nothing (floats, cells the domain never saw).
  Clocked R = Clocked::top().reduce(Interval(0, 1), Interval(0, 10));
  EXPECT_TRUE(R.isTop());
}

TEST(Clocked, ReduceKeepsOffsetsOnEmptyMeet) {
  // Offsets inconsistent with the value: keep them, as reduceValue keeps
  // the value.
  Clocked C{Interval(100, 200), Interval(100, 200)};
  Clocked R = C.reduce(Interval::point(0), Interval::point(0));
  EXPECT_EQ(R, C);
}

TEST(Clocked, AfterTick) {
  Clocked C{Interval(0, 0), Interval(0, 0)};
  Clocked T = C.afterTick();
  EXPECT_EQ(T.MinusClk, Interval(-1, -1));
  EXPECT_EQ(T.PlusClk, Interval(1, 1));
}

TEST(Clocked, ShiftOnIncrement) {
  Clocked C{Interval(-3, 0), Interval(0, 7)};
  Clocked S = C.shifted(Interval::point(1));
  EXPECT_EQ(S.MinusClk, Interval(-2, 1));
  EXPECT_EQ(S.PlusClk, Interval(1, 8));
}

TEST(Clocked, CounterScenarioStaysBounded) {
  // Simulate the Sect. 6.2.1 counter: incremented at most once per tick.
  // Invariant: counter - clock <= 0 regardless of how many ticks happen.
  Clocked C = Clocked::fromValue(Interval::point(0), Interval::point(0));
  Interval Clock = Interval::point(0);
  for (int Tick = 0; Tick < 100; ++Tick) {
    // Maybe increment (join of increment and no-increment paths).
    Clocked Incremented = C.shifted(Interval::point(1));
    C = C.join(Incremented);
    // Clock tick.
    C = C.afterTick();
    Clock = Interval::iadd(Clock, Interval::point(1));
    ASSERT_LE(C.MinusClk.Hi, 0.0) << "counter may exceed the clock";
  }
  // With clock <= 100, the counter value is recovered as <= 100.
  Interval V = C.reduceValue(Interval(0, 1e9), Clock);
  EXPECT_LE(V.Hi, 100.0);
}

TEST(Clocked, WidenWithThresholdsTerminates) {
  Thresholds T = Thresholds::geometric(1.0, 4.0, 20);
  Clocked X{Interval(0, 0), Interval(0, 0)};
  for (int I = 0; I < 100; ++I) {
    Clocked Next = X.shifted(Interval(0, 1)).afterTick();
    Clocked W = X.widen(X.join(Next), T);
    if (W == X)
      break;
    X = W;
    ASSERT_LT(I, 99) << "clocked widening did not stabilize";
  }
  // The minus-clock component must have stabilized at a finite upper bound
  // (counter <= clock).
  EXPECT_TRUE(std::isfinite(X.MinusClk.Hi));
}

TEST(Clocked, NarrowKeepsFiniteBounds) {
  Clocked X{Interval(-INFINITY, 0), Interval(0, INFINITY)};
  Clocked N = X.narrow(Clocked{Interval(-50, 0), Interval(0, 50)});
  EXPECT_EQ(N.MinusClk.Lo, -50.0);
  EXPECT_EQ(N.PlusClk.Hi, 50.0);
}
