//===- tests/test_octagon.cpp - Octagon domain tests --------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Octagon.h"

#include "domains/Thresholds.h"

#include <gtest/gtest.h>

#include <random>

using namespace astral;

namespace {
std::function<Interval(CellId)> topRange() {
  return [](CellId) { return Interval::top(); };
}
std::function<Interval(CellId)> mapRange(std::map<CellId, Interval> M) {
  return [M = std::move(M)](CellId C) {
    auto It = M.find(C);
    return It == M.end() ? Interval::top() : It->second;
  };
}
} // namespace

TEST(Octagon, TopIsNotBottom) {
  Octagon O({1, 2, 3});
  EXPECT_FALSE(O.isBottom());
  EXPECT_TRUE(O.varInterval(0).isTop());
}

TEST(Octagon, AssignConstant) {
  Octagon O({1, 2});
  O.assign(0, LinearForm::constant(Interval::point(5)), topRange());
  EXPECT_EQ(O.varInterval(0), Interval(5, 5));
  EXPECT_TRUE(O.varInterval(1).isTop());
}

TEST(Octagon, AssignVarPlusConst) {
  Octagon O({1, 2});
  O.assign(0, LinearForm::constant(Interval::point(5)), topRange());
  // v2 := v1 + [1, 2].
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(Interval(1, 2)));
  O.assign(1, F, topRange());
  O.close();
  Interval V2 = O.varInterval(1);
  EXPECT_LE(V2.Lo, 6.0);
  EXPECT_GE(V2.Hi, 7.0);
  EXPECT_LE(V2.Hi, 7.001);
}

TEST(Octagon, SelfShift) {
  Octagon O({1});
  O.meetVarInterval(0, Interval(0, 10));
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(
      Interval::point(3)));
  O.assign(0, F, topRange());
  Interval V = O.varInterval(0);
  EXPECT_LE(V.Lo, 3.0);
  EXPECT_GE(V.Hi, 13.0);
  EXPECT_LE(V.Hi, 13.001);
}

TEST(Octagon, GuardDifference) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 100));
  O.meetVarInterval(1, Interval(0, 100));
  // v1 - v2 <= -5  (i.e. v1 + 5 <= v2).
  LinearForm F = LinearForm::var(1).sub(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(5)));
  O.guardLe(F, topRange());
  O.close();
  // v1 in [0, 95].
  EXPECT_LE(O.varInterval(0).Hi, 95.001);
  // v2 in [5, 100].
  EXPECT_GE(O.varInterval(1).Lo, 4.999);
}

TEST(Octagon, GuardSum) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 100));
  O.meetVarInterval(1, Interval(0, 100));
  // v1 + v2 <= 10.
  LinearForm F = LinearForm::var(1).add(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-10)));
  O.guardLe(F, topRange());
  O.close();
  EXPECT_LE(O.varInterval(0).Hi, 10.001);
  EXPECT_LE(O.varInterval(1).Hi, 10.001);
}

TEST(Octagon, InfeasibleGuardGivesBottom) {
  Octagon O({1});
  O.meetVarInterval(0, Interval(10, 20));
  // v1 <= 5 contradicts v1 >= 10.
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(
      Interval::point(-5)));
  O.guardLe(F, topRange());
  O.close();
  EXPECT_TRUE(O.isBottom());
}

TEST(Octagon, RateLimiterClosureArgument) {
  // The paper's octagon showcase, abstracted: from u2 - y = R and
  // u - y >= R, closure must derive u2 - u <= 0 (so u2 <= max(u)).
  Octagon O({/*u=*/1, /*y=*/2, /*u2=*/3});
  O.meetVarInterval(0, Interval(-100, 100));
  // Guard: u - y > 8  (as u - y >= 8 for reals: y - u + 8 <= 0).
  LinearForm G = LinearForm::var(2).sub(LinearForm::var(1)).add(
      LinearForm::constant(Interval::point(8)));
  O.guardLe(G, topRange());
  // Assignment u2 := y + 8.
  LinearForm A = LinearForm::var(2).add(LinearForm::constant(
      Interval::point(8)));
  O.assign(2, A, topRange());
  O.close();
  // u2 <= u <= 100.
  EXPECT_LE(O.varInterval(2).Hi, 100.001);
}

TEST(Octagon, JoinIsUpperBound) {
  Octagon A({1, 2});
  A.meetVarInterval(0, Interval(0, 1));
  A.meetVarInterval(1, Interval(0, 1));
  A.close();
  Octagon B({1, 2});
  B.meetVarInterval(0, Interval(5, 6));
  B.meetVarInterval(1, Interval(5, 6));
  B.close();
  Octagon J(A);
  J.joinWith(B);
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
  EXPECT_LE(J.varInterval(0).Lo, 0.0);
  EXPECT_GE(J.varInterval(0).Hi, 6.0);
}

TEST(Octagon, JoinWithBottom) {
  Octagon A({1});
  A.meetVarInterval(0, Interval(1, 2));
  A.close();
  Octagon B({1});
  B.meetVarInterval(0, Interval(5, 4)); // Empty.
  B.close();
  EXPECT_TRUE(B.isBottom());
  Octagon J(A);
  Octagon BC(B);
  BC.close();
  J.joinWith(BC);
  EXPECT_EQ(J.varInterval(0).Lo, A.varInterval(0).Lo);
}

TEST(Octagon, ForgetRemovesOnlyOneVar) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 1));
  O.meetVarInterval(1, Interval(2, 3));
  O.close();
  O.forget(0);
  EXPECT_TRUE(O.varInterval(0).isTop());
  EXPECT_EQ(O.varInterval(1), Interval(2, 3));
}

TEST(Octagon, WideningWithThresholds) {
  Thresholds T = Thresholds::geometric(1.0, 10.0, 6);
  Octagon X({1});
  X.meetVarInterval(0, Interval(0, 1));
  X.close();
  Octagon Y({1});
  Y.meetVarInterval(0, Interval(0, 2));
  Y.close();
  X.widenWith(Y, T);
  X.close();
  EXPECT_LE(X.varInterval(0).Hi, 10.0); // Next rung, not infinity.
  EXPECT_GE(X.varInterval(0).Hi, 2.0);
}

TEST(Octagon, NarrowRefinesInfinities) {
  Octagon X({1});
  X.close();
  Octagon Y({1});
  Y.meetVarInterval(0, Interval(0, 5));
  Y.close();
  X.narrowWith(Y);
  X.close();
  EXPECT_LE(X.varInterval(0).Hi, 5.001);
}

TEST(Octagon, FormUpperBoundUsesPairs) {
  Octagon O({1, 2});
  // v1 - v2 <= 3, both vars unbounded individually.
  LinearForm G = LinearForm::var(1).sub(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-3)));
  O.guardLe(G, topRange());
  O.close();
  LinearForm F = LinearForm::var(1).sub(LinearForm::var(2));
  double Hi = O.formUpperBound(F, topRange());
  EXPECT_LE(Hi, 3.001);
  // With external ranges only, the sum needs the callback.
  LinearForm Sum = LinearForm::var(1).add(LinearForm::var(2));
  double SumHi = O.formUpperBound(
      Sum, mapRange({{1u, Interval(0, 1)}, {2u, Interval(0, 2)}}));
  EXPECT_LE(SumHi, 3.001);
}

TEST(Octagon, HasRelationalInfo) {
  Octagon O({1, 2});
  EXPECT_FALSE(O.hasRelationalInfo());
  LinearForm G = LinearForm::var(1).sub(LinearForm::var(2));
  O.guardLe(G, topRange());
  EXPECT_TRUE(O.hasRelationalInfo());
}

TEST(Octagon, CountConstraints) {
  Octagon O({1, 2});
  LinearForm Sub = LinearForm::var(1).sub(LinearForm::var(2));
  LinearForm Add = LinearForm::var(1).add(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-7)));
  O.guardLe(Sub, topRange());
  O.guardLe(Add, topRange());
  O.close();
  uint64_t NAdd = 0, NSub = 0;
  O.countConstraints(NAdd, NSub);
  EXPECT_GE(NAdd, 1u);
  EXPECT_GE(NSub, 1u);
}

// Property: transfer functions over-approximate concrete executions.
class OctagonSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctagonSoundness, RandomProgramsSound) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_real_distribution<double> D(-10.0, 10.0);
  // Concrete state of three variables, tracked alongside the octagon.
  double X[3] = {D(Rng), D(Rng), D(Rng)};
  Octagon O({0, 1, 2});
  for (int V = 0; V < 3; ++V)
    O.meetVarInterval(V, Interval(X[V], X[V]));
  O.close();

  auto Contains = [&]() {
    O.close();
    for (int V = 0; V < 3; ++V) {
      Interval I = O.varInterval(V);
      if (!(I.Lo <= X[V] + 1e-9 && X[V] - 1e-9 <= I.Hi))
        return false;
    }
    return true;
  };

  for (int Step = 0; Step < 300; ++Step) {
    int Target = static_cast<int>(Rng() % 3);
    int Src = static_cast<int>(Rng() % 3);
    double C = D(Rng);
    switch (Rng() % 3) {
    case 0: { // v := c.
      O.assign(Target, LinearForm::constant(Interval::point(C)),
               topRange());
      X[Target] = C;
      break;
    }
    case 1: { // v := w + c.
      LinearForm F = LinearForm::var(static_cast<CellId>(Src))
                         .add(LinearForm::constant(Interval::point(C)));
      O.assign(Target, F, topRange());
      X[Target] = X[Src] + C;
      break;
    }
    default: { // v := -w + c.
      LinearForm F = LinearForm::var(static_cast<CellId>(Src))
                         .negate()
                         .add(LinearForm::constant(Interval::point(C)));
      O.assign(Target, F, topRange());
      X[Target] = -X[Src] + C;
      break;
    }
    }
    ASSERT_TRUE(Contains()) << "octagon lost the concrete state at step "
                            << Step;
  }
}

TEST_P(OctagonSoundness, CloseIsIdempotentAndSound) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_real_distribution<double> D(-5.0, 5.0);
  Octagon O({0, 1, 2, 3});
  for (int I = 0; I < 6; ++I) {
    CellId A = static_cast<CellId>(Rng() % 4);
    CellId B = static_cast<CellId>(Rng() % 4);
    if (A == B)
      continue;
    LinearForm F = LinearForm::var(A).sub(LinearForm::var(B)).add(
        LinearForm::constant(Interval::point(D(Rng))));
    O.guardLe(F, topRange());
  }
  O.close();
  Octagon O2(O);
  O2.close();
  EXPECT_TRUE(O.equal(O2)) << "closure is not idempotent";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonSoundness,
                         ::testing::Values(11, 222, 3333, 44444));

//===----------------------------------------------------------------------===//
// Closure discipline
//===----------------------------------------------------------------------===//

TEST(Octagon, EqualIgnoresRepresentation) {
  // A closed and a non-closed DBM of the same set must compare equal:
  // raw-matrix comparison would see the closure-derived entries on one
  // side only and cost spurious extra fixpoint iterations.
  auto Build = [] {
    Octagon O({1, 2});
    LinearForm Le = LinearForm::var(1).sub(LinearForm::var(2));
    LinearForm Ge = LinearForm::var(2).sub(LinearForm::var(1));
    O.guardLe(Le, topRange()); // v1 == v2.
    O.guardLe(Ge, topRange());
    return O;
  };
  Octagon Closed = Build();
  Closed.meetVarInterval(0, Interval(0, 1));
  Closed.close(); // Derives v2 in [0, 1].
  Octagon Raw = Build();
  Raw.meetVarInterval(0, Interval(0, 1)); // Same set, no closure.
  EXPECT_FALSE(Raw.isClosed());
  EXPECT_NE(Raw.varInterval(1), Closed.varInterval(1))
      << "representations should differ for the test to mean anything";
  EXPECT_TRUE(Closed.equal(Raw));
  EXPECT_TRUE(Raw.equal(Closed));
  // And genuinely different sets still compare unequal.
  Octagon Other = Build();
  Other.meetVarInterval(0, Interval(0, 2));
  EXPECT_FALSE(Closed.equal(Other));
}

TEST(Octagon, EqualDistinguishesFlaggedBottomFromTop) {
  // An Empty-flagged octagon can carry an untouched matrix (bottomLike,
  // meetVarInterval with a bottom interval): raw-matrix equality must not
  // make it compare equal to top.
  Octagon Top({1, 2});
  Octagon Bot({1, 2});
  Bot.meetVarInterval(0, Interval::bottom());
  EXPECT_TRUE(Bot.isBottom());
  EXPECT_FALSE(Top.equal(Bot));
  EXPECT_FALSE(Bot.equal(Top));
}

TEST(Octagon, EqualBottomRepresentations) {
  Octagon A({1});
  A.meetVarInterval(0, Interval::bottom()); // Empty flag.
  Octagon B({1});
  B.meetVarInterval(0, Interval(3, 4));
  LinearForm TooSmall =
      LinearForm::var(1).add(LinearForm::constant(Interval::point(-1)));
  B.guardLe(TooSmall, topRange()); // v1 <= 1 contradicts v1 >= 3.
  EXPECT_TRUE(A.equal(B));
  EXPECT_TRUE(B.equal(A));
}

TEST(Octagon, IndexOfFlatLookup) {
  // Non-contiguous, non-sorted cells, as real packings produce.
  Octagon O({42, 7, 19, 3});
  EXPECT_EQ(O.indexOf(42), 0);
  EXPECT_EQ(O.indexOf(7), 1);
  EXPECT_EQ(O.indexOf(19), 2);
  EXPECT_EQ(O.indexOf(3), 3);
  EXPECT_EQ(O.indexOf(4), -1);
  EXPECT_EQ(O.indexOf(0), -1);
  EXPECT_EQ(O.indexOf(1000), -1);
}

TEST(Octagon, ClosureStatsSinkSplitsFullAndIncremental) {
  // Closures meter into the calling thread's ambient work meter.
  memtrack::Counter Sink;
  {
    memtrack::CounterScope Scope(&Sink);
    Octagon O({1, 2, 3, 4}, OctClosureMode::Incremental);
    O.meetVarInterval(0, Interval(0, 5)); // Dirty: one variable.
    O.close();
  }
  EXPECT_EQ(Sink.closuresIncremental(), 1u);
  EXPECT_EQ(Sink.closuresFull(), 0u);

  memtrack::Counter FullSink;
  {
    memtrack::CounterScope Scope(&FullSink);
    Octagon F({1, 2, 3, 4}, OctClosureMode::Full);
    F.meetVarInterval(0, Interval(0, 5));
    F.close();
  }
  EXPECT_EQ(FullSink.closuresIncremental(), 0u);
  EXPECT_EQ(FullSink.closuresFull(), 1u);
}

// Differential property: the incremental closure discipline computes the
// same DBM as the full Floyd-Warshall sweep — same variable intervals,
// same emptiness verdict, representation-equal, idempotent — across pack
// sizes 1-16 and random op sequences of assign/guard/forget/shift.
// Constants are dyadic (k/8), so every path sum is exact in double and
// the comparison can demand bitwise equality.
class OctagonClosureDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OctagonClosureDifferential, IncrementalEqualsFullClosure) {
  std::mt19937_64 Rng(GetParam());
  auto Top = [](CellId) { return Interval::top(); };
  for (int Pack = 1; Pack <= 16; ++Pack) {
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::vector<CellId> Cells;
      for (int I = 0; I < Pack; ++I)
        Cells.push_back(static_cast<CellId>(3 * I + 1));
      Octagon Full(Cells, OctClosureMode::Full);
      Octagon Inc(Cells, OctClosureMode::Incremental);
      auto Dyadic = [&]() {
        return static_cast<double>(static_cast<int64_t>(Rng() % 161) - 80) /
               8.0;
      };
      for (int Step = 0; Step < 40; ++Step) {
        int V = static_cast<int>(Rng() % Pack);
        int W = static_cast<int>(Rng() % Pack);
        double C = Dyadic();
        switch (Rng() % 7) {
        case 0: { // Unary meet.
          Interval I(C - std::fabs(Dyadic()), C);
          Full.meetVarInterval(V, I);
          Inc.meetVarInterval(V, I);
          break;
        }
        case 1: { // Binary guard v - w + c <= 0.
          LinearForm G = LinearForm::var(Cells[V])
                             .sub(LinearForm::var(Cells[W]))
                             .add(LinearForm::constant(Interval::point(C)));
          Full.guardLe(G, Top);
          Inc.guardLe(G, Top);
          break;
        }
        case 2: { // Exact assign v := w + c.
          LinearForm A = LinearForm::var(Cells[W]).add(
              LinearForm::constant(Interval::point(C)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        case 3: { // Forget.
          Full.forget(V);
          Inc.forget(V);
          break;
        }
        case 4: { // Shift v := v + [c, c+1].
          LinearForm A = LinearForm::var(Cells[V]).add(
              LinearForm::constant(Interval(C, C + 1)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        default: { // Smart fallback v := w1 + w2 + c (star closure).
          int W2 = static_cast<int>(Rng() % Pack);
          LinearForm A = LinearForm::var(Cells[W])
                             .add(LinearForm::var(Cells[W2]))
                             .add(LinearForm::constant(Interval::point(C)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        }
        bool FullEmpty = !Full.close();
        bool IncEmpty = !Inc.close();
        ASSERT_EQ(FullEmpty, IncEmpty)
            << "emptiness diverged: pack=" << Pack << " trial=" << Trial
            << " step=" << Step;
        if (FullEmpty)
          break;
        for (int I = 0; I < Pack; ++I) {
          Interval FI = Full.varInterval(I);
          Interval NI = Inc.varInterval(I);
          ASSERT_EQ(FI.Lo, NI.Lo) << "pack=" << Pack << " trial=" << Trial
                                  << " step=" << Step << " var=" << I;
          ASSERT_EQ(FI.Hi, NI.Hi) << "pack=" << Pack << " trial=" << Trial
                                  << " step=" << Step << " var=" << I;
        }
        ASSERT_TRUE(Full.equal(Inc)) << "pack=" << Pack << " trial=" << Trial
                                     << " step=" << Step;
        // Idempotence: a second close must be a cached no-op.
        Octagon IncAgain(Inc);
        IncAgain.close();
        ASSERT_TRUE(Inc.equal(IncAgain));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonClosureDifferential,
                         ::testing::Values(1, 77, 4096, 900913));
