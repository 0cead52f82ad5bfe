//===- tests/test_abstract_env.cpp - Abstract environment tests ---------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "memory/AbstractEnv.h"

#include "analyzer/DomainRegistry.h"
#include "domains/Thresholds.h"

#include <gtest/gtest.h>

using namespace astral;
using namespace astral::memory;

namespace {
/// Arbitrary registry slots for the hand-built environments below; the
/// environment itself attaches no meaning to the index.
constexpr size_t OctD = 0, TreeD = 1, EllD = 2;
} // namespace

namespace {
AbstractEnv envWithCells(std::initializer_list<std::pair<CellId, Interval>>
                             Cells) {
  AbstractEnv E;
  for (auto &[C, I] : Cells)
    E.setCell(C, ScalarAbs{I, Clocked::top()});
  return E;
}
} // namespace

TEST(AbstractEnv, BottomBasics) {
  AbstractEnv B = AbstractEnv::bottom();
  EXPECT_TRUE(B.isBottom());
  AbstractEnv E = envWithCells({{0, Interval(0, 1)}});
  EXPECT_TRUE(AbstractEnv::leq(B, E));
  EXPECT_FALSE(AbstractEnv::leq(E, B));
  AbstractEnv J = AbstractEnv::join(B, E);
  EXPECT_FALSE(J.isBottom());
  EXPECT_EQ(J.cellInterval(0), Interval(0, 1));
}

TEST(AbstractEnv, JoinCellwise) {
  AbstractEnv A = envWithCells({{0, Interval(0, 1)}, {1, Interval(5, 6)}});
  AbstractEnv B = envWithCells({{0, Interval(2, 3)}, {1, Interval(5, 6)}});
  AbstractEnv J = AbstractEnv::join(A, B);
  EXPECT_EQ(J.cellInterval(0), Interval(0, 3));
  EXPECT_EQ(J.cellInterval(1), Interval(5, 6));
}

TEST(AbstractEnv, LeqAndEqual) {
  AbstractEnv A = envWithCells({{0, Interval(0, 1)}});
  AbstractEnv B = envWithCells({{0, Interval(-1, 2)}});
  EXPECT_TRUE(AbstractEnv::leq(A, B));
  EXPECT_FALSE(AbstractEnv::leq(B, A));
  EXPECT_FALSE(AbstractEnv::equal(A, B));
  EXPECT_TRUE(AbstractEnv::equal(A, A));
}

TEST(AbstractEnv, WidenWithThresholds) {
  Thresholds T = Thresholds::geometric(1.0, 10.0, 4);
  AbstractEnv A = envWithCells({{0, Interval(0, 1)}});
  AbstractEnv B = envWithCells({{0, Interval(0, 2)}});
  AbstractEnv W = AbstractEnv::widen(A, B, T, /*WithThresholds=*/true);
  EXPECT_EQ(W.cellInterval(0).Hi, 10.0);
  AbstractEnv WP = AbstractEnv::widen(A, B, T, /*WithThresholds=*/false);
  EXPECT_TRUE(std::isinf(WP.cellInterval(0).Hi));
}

TEST(AbstractEnv, NarrowRefinesInfinity) {
  Thresholds T = Thresholds::geometric(1.0, 10.0, 4);
  AbstractEnv X = envWithCells({{0, Interval(0, INFINITY)}});
  AbstractEnv F = envWithCells({{0, Interval(0, 7)}});
  AbstractEnv N = AbstractEnv::narrow(X, F);
  EXPECT_EQ(N.cellInterval(0), Interval(0, 7));
}

TEST(AbstractEnv, ClockJoinsAndTicks) {
  AbstractEnv A;
  A.setClock(Interval(0, 5));
  AbstractEnv B;
  B.setClock(Interval(2, 9));
  AbstractEnv J = AbstractEnv::join(A, B);
  EXPECT_EQ(J.clock(), Interval(0, 9));
}

TEST(AbstractEnv, RelationalSharingShortcut) {
  AbstractEnv A;
  auto O = std::make_shared<const OctagonState>(
      Octagon(std::vector<CellId>{1, 2}));
  A.setRel(OctD, 0, O);
  AbstractEnv B = A; // Shares the state pointer.
  AbstractEnv J = AbstractEnv::join(A, B);
  EXPECT_EQ(J.rel(OctD, 0).get(), O.get())
      << "physically equal states must not be cloned on join";
}

TEST(AbstractEnv, OctagonJoinCombines) {
  std::vector<CellId> Pack{1, 2};
  Octagon OA(Pack);
  OA.meetVarInterval(0, Interval(0, 1));
  OA.close();
  Octagon OB(Pack);
  OB.meetVarInterval(0, Interval(5, 6));
  OB.close();
  AbstractEnv A, B;
  A.setRel(OctD, 0, std::make_shared<OctagonState>(OA));
  B.setRel(OctD, 0, std::make_shared<OctagonState>(OB));
  AbstractEnv J = AbstractEnv::join(A, B);
  auto OJ = std::dynamic_pointer_cast<const OctagonState>(J.rel(OctD, 0));
  ASSERT_NE(OJ, nullptr);
  Interval V = OJ->value().varInterval(0);
  EXPECT_LE(V.Lo, 0.0);
  EXPECT_GE(V.Hi, 6.0);
}

TEST(AbstractEnv, TreeJoinLeafwise) {
  std::vector<CellId> Bools{1};
  std::vector<CellId> Nums{10};
  DecisionTree TA(Bools, Nums);
  TA.guardBool(0, true);
  DecisionTree TB(Bools, Nums);
  TB.guardBool(0, false);
  AbstractEnv A, B;
  A.setRel(TreeD, 0, std::make_shared<DecisionTreeState>(TA));
  B.setRel(TreeD, 0, std::make_shared<DecisionTreeState>(TB));
  AbstractEnv J = AbstractEnv::join(A, B);
  auto TJ =
      std::dynamic_pointer_cast<const DecisionTreeState>(J.rel(TreeD, 0));
  ASSERT_NE(TJ, nullptr);
  EXPECT_EQ(TJ->value().boolValues(0), 2);
}

TEST(AbstractEnv, EllipsoidJoinKeepsCommonPairs) {
  FilterParams P;
  P.A = 1.5;
  P.B = 0.7;
  EllipsoidState EA;
  EA.K[{1, 2}] = 10.0;
  EA.K[{3, 4}] = 5.0;
  EllipsoidState EB;
  EB.K[{1, 2}] = 20.0;
  AbstractEnv A, B;
  A.setRel(EllD, 0, std::make_shared<EllipsoidPackState>(EA, P));
  B.setRel(EllD, 0, std::make_shared<EllipsoidPackState>(EB, P));
  AbstractEnv J = AbstractEnv::join(A, B);
  auto EJ =
      std::dynamic_pointer_cast<const EllipsoidPackState>(J.rel(EllD, 0));
  ASSERT_NE(EJ, nullptr);
  EXPECT_EQ(EJ->value().get(1, 2), 20.0);          // Pointwise max.
  EXPECT_TRUE(std::isinf(EJ->value().get(3, 4))); // Missing on one side.
}

TEST(AbstractEnv, ChangedCellsDetected) {
  AbstractEnv A = envWithCells(
      {{0, Interval(0, 1)}, {1, Interval(2, 3)}, {2, Interval(4, 5)}});
  AbstractEnv B = A;
  B.setCell(1, ScalarAbs{Interval(2, 9), Clocked::top()});
  std::vector<CellId> Changed;
  AbstractEnv::forEachChangedCell(A, B,
                                  [&](CellId C) { Changed.push_back(C); });
  EXPECT_EQ(Changed, std::vector<CellId>{1});
}
