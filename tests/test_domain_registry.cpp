//===- tests/test_domain_registry.cpp - Pluggable-domain API tests ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the uniform RelationalDomain
// signature: lattice laws run over every registered domain through the
// DomainRegistry, reduction-channel exchanges, the DomainSet selection
// model, and the EllipsoidState ordered-pair lookup regression.
//
//===----------------------------------------------------------------------===//

#include "analyzer/DomainRegistry.h"

#include "analyzer/Options.h"
#include "analyzer/SpecDirectives.h"
#include "domains/Thresholds.h"
#include "ir/Ir.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace astral;
using testutil::lowerSource;

namespace {

/// A program exercising all three pack-based domains: an octagon pack (the
/// linear block over u/v/w), a confirmed decision-tree pack (b guards the
/// division by s), and an ellipsoid pack (the second-order filter on x/y).
const char *AllDomainsSrc =
    "volatile float in; volatile int sens; volatile int rst;\n"
    "float x; float y; float t;\n"
    "_Bool b; int q;\n"
    "float u; float v; float w;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    int s = sens;\n"
    "    b = (s == 0);\n"
    "    if (!b) { q = 1000 / s; } else { q = 0; }\n"
    "    u = v + w;\n"
    "    if (u - v > 1.0f) { w = u - 1.0f; }\n"
    "    if (rst) { x = 0.0f; y = 0.0f; }\n"
    "    else { t = 1.5f * x - 0.7f * y + in; y = x; x = t; }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

struct RegistryFixture {
  std::unique_ptr<AstContext> Ast;
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<memory::CellLayout> Layout;
  Packing Packs;
  AnalyzerOptions Opts;
  std::unique_ptr<DomainRegistry> Reg;
};

RegistryFixture makeRegistry(const char *Src = AllDomainsSrc) {
  RegistryFixture F;
  F.P = lowerSource(Src, F.Ast);
  EXPECT_NE(F.P, nullptr);
  F.Layout = std::make_unique<memory::CellLayout>(*F.P,
                                                  F.Opts.ArrayExpandLimit);
  F.Packs = Packing::build(*F.P, *F.Layout, F.Opts);
  F.Reg = std::make_unique<DomainRegistry>(F.Packs, F.Opts);
  return F;
}

/// Minimal evaluation context for driving domain transfer functions
/// directly: cell intervals come from a map (top when absent), expression
/// services are inert.
class FakeCtx final : public DomainEvalContext {
public:
  std::map<CellId, Interval> Cells;
  Interval cellInterval(CellId C) const override {
    auto It = Cells.find(C);
    return It == Cells.end() ? Interval::top() : It->second;
  }
  Interval eval(const ir::Expr *, const CellOverlay *) const override {
    return Interval::top();
  }
  LinearForm linearize(const ir::Expr *) const override {
    return LinearForm::invalid();
  }
  CellId strongLoadCell(const ir::Expr *) const override { return NoCellId; }
};

DomainState::Ptr joinOf(const DomainState::Ptr &A, const DomainState::Ptr &B) {
  DomainState::Ptr N = A->join(*B);
  return N ? N : A;
}

DomainState::Ptr widenOf(const DomainState::Ptr &A, const DomainState::Ptr &B,
                         const Thresholds &T) {
  DomainState::Ptr N = A->widen(*B, T, /*WithThresholds=*/true);
  return N ? N : A;
}

/// Sample states of one registered domain's first pack: top, bottom, and
/// two distinct non-trivial values (guardBool and refineNum for trees).
std::vector<DomainState::Ptr> sampleStates(const RelationalDomain &Dom) {
  EXPECT_GT(Dom.numPacks(), 0u) << Dom.name();
  DomainState::Ptr Top = Dom.topFor(0);
  std::vector<DomainState::Ptr> S{Top, Top->bottomLike()};
  switch (Dom.kind()) {
  case DomainKind::Octagon: {
    const Octagon &O =
        static_cast<const OctagonState &>(*Top).value();
    Octagon O1(O.cells());
    O1.meetVarInterval(0, Interval(0, 10));
    O1.close();
    S.push_back(std::make_shared<OctagonState>(O1));
    Octagon O2(O.cells());
    O2.meetVarInterval(0, Interval(5, 20));
    if (O.cells().size() > 1)
      O2.meetVarInterval(1, Interval(-3, 3));
    O2.close();
    S.push_back(std::make_shared<OctagonState>(O2));
    break;
  }
  case DomainKind::DecisionTree: {
    const DecisionTree &T =
        static_cast<const DecisionTreeState &>(*Top).value();
    ReductionChannel Scratch;
    if (!T.boolCells().empty()) {
      if (DomainState::Ptr G = Top->guardBool(T.boolCells()[0], true, Scratch))
        S.push_back(G);
      if (DomainState::Ptr G =
              Top->guardBool(T.boolCells()[0], false, Scratch))
        S.push_back(G);
    }
    if (!T.numCells().empty()) {
      DecisionTree R = T;
      R.refineNum(0, std::vector<Interval>(R.leafCount(), Interval(0, 7)));
      S.push_back(std::make_shared<DecisionTreeState>(R));
    }
    break;
  }
  case DomainKind::Ellipsoid: {
    const auto &E = static_cast<const EllipsoidPackState &>(*Top);
    EllipsoidState M1;
    M1.K[{1, 2}] = 10.0;
    S.push_back(std::make_shared<EllipsoidPackState>(M1, E.params()));
    EllipsoidState M2;
    M2.K[{1, 2}] = 25.0;
    M2.K[{3, 4}] = 4.0;
    S.push_back(std::make_shared<EllipsoidPackState>(M2, E.params()));
    break;
  }
  default:
    break;
  }
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry construction
//===----------------------------------------------------------------------===//

TEST(DomainRegistry, RegistersEnabledDomainsInOrder) {
  RegistryFixture F = makeRegistry();
  ASSERT_EQ(F.Reg->size(), 3u);
  EXPECT_EQ(F.Reg->domain(0).kind(), DomainKind::Octagon);
  EXPECT_EQ(F.Reg->domain(1).kind(), DomainKind::DecisionTree);
  EXPECT_EQ(F.Reg->domain(2).kind(), DomainKind::Ellipsoid);
  EXPECT_EQ(F.Reg->indexOf(DomainKind::Octagon), 0);
  EXPECT_EQ(F.Reg->indexOf(DomainKind::DecisionTree), 1);
  EXPECT_EQ(F.Reg->indexOf(DomainKind::Ellipsoid), 2);
}

TEST(DomainRegistry, DisabledDomainsAreAbsent) {
  RegistryFixture F;
  F.P = lowerSource(AllDomainsSrc, F.Ast);
  ASSERT_NE(F.P, nullptr);
  F.Opts.Domains = DomainSet::intervalOnly();
  F.Opts.Domains.enable(DomainKind::DecisionTree);
  F.Layout = std::make_unique<memory::CellLayout>(*F.P,
                                                  F.Opts.ArrayExpandLimit);
  F.Packs = Packing::build(*F.P, *F.Layout, F.Opts);
  DomainRegistry Reg(F.Packs, F.Opts);
  ASSERT_EQ(Reg.size(), 1u);
  EXPECT_EQ(Reg.domain(0).kind(), DomainKind::DecisionTree);
  EXPECT_EQ(Reg.indexOf(DomainKind::Octagon), -1);
  EXPECT_EQ(Reg.indexOf(DomainKind::Ellipsoid), -1);
}

TEST(DomainRegistry, AllThreePackKindsDetected) {
  RegistryFixture F = makeRegistry();
  for (size_t D = 0; D < F.Reg->size(); ++D)
    EXPECT_GT(F.Reg->domain(D).numPacks(), 0u)
        << F.Reg->domain(D).name() << " found no packs in the test program";
}

//===----------------------------------------------------------------------===//
// Lattice laws, uniformly over every registered domain
//===----------------------------------------------------------------------===//

TEST(DomainLattice, JoinCommutesOnSamples) {
  RegistryFixture F = makeRegistry();
  for (size_t D = 0; D < F.Reg->size(); ++D) {
    const RelationalDomain &Dom = F.Reg->domain(D);
    std::vector<DomainState::Ptr> S = sampleStates(Dom);
    for (const auto &A : S)
      for (const auto &B : S) {
        DomainState::Ptr AB = joinOf(A, B);
        DomainState::Ptr BA = joinOf(B, A);
        EXPECT_TRUE(AB->equal(*BA))
            << Dom.name() << ": join must commute\n  A|B: " << AB->toString()
            << "\n  B|A: " << BA->toString();
      }
  }
}

TEST(DomainLattice, JoinIsUpperBound) {
  RegistryFixture F = makeRegistry();
  for (size_t D = 0; D < F.Reg->size(); ++D) {
    const RelationalDomain &Dom = F.Reg->domain(D);
    std::vector<DomainState::Ptr> S = sampleStates(Dom);
    for (const auto &A : S)
      for (const auto &B : S) {
        DomainState::Ptr J = joinOf(A, B);
        EXPECT_TRUE(A->leq(*J)) << Dom.name() << ": A <= A|B";
        EXPECT_TRUE(B->leq(*J)) << Dom.name() << ": B <= A|B";
      }
  }
}

TEST(DomainLattice, LeqReflexiveAndAntisymmetricOnSamples) {
  RegistryFixture F = makeRegistry();
  for (size_t D = 0; D < F.Reg->size(); ++D) {
    const RelationalDomain &Dom = F.Reg->domain(D);
    std::vector<DomainState::Ptr> S = sampleStates(Dom);
    for (const auto &A : S) {
      EXPECT_TRUE(A->leq(*A)) << Dom.name() << ": leq must be reflexive";
      for (const auto &B : S)
        if (A->leq(*B) && B->leq(*A))
          EXPECT_TRUE(A->equal(*B))
              << Dom.name() << ": leq must be antisymmetric on samples";
    }
  }
}

TEST(DomainLattice, BottomAbsorbs) {
  RegistryFixture F = makeRegistry();
  for (size_t D = 0; D < F.Reg->size(); ++D) {
    const RelationalDomain &Dom = F.Reg->domain(D);
    std::vector<DomainState::Ptr> S = sampleStates(Dom);
    DomainState::Ptr Bottom = S[0]->bottomLike();
    EXPECT_TRUE(Bottom->isBottom()) << Dom.name();
    for (const auto &A : S) {
      EXPECT_TRUE(Bottom->leq(*A)) << Dom.name() << ": bottom <= A";
      DomainState::Ptr J1 = joinOf(Bottom, A);
      DomainState::Ptr J2 = joinOf(A, Bottom);
      EXPECT_TRUE(J1->equal(*A))
          << Dom.name() << ": bottom | A must equal A";
      EXPECT_TRUE(J2->equal(*A))
          << Dom.name() << ": A | bottom must equal A";
    }
  }
}

TEST(DomainLattice, WideningStabilizes) {
  RegistryFixture F = makeRegistry();
  Thresholds T = Thresholds::geometric(1.0, 10.0, 8);
  for (size_t D = 0; D < F.Reg->size(); ++D) {
    const RelationalDomain &Dom = F.Reg->domain(D);
    std::vector<DomainState::Ptr> S = sampleStates(Dom);
    for (const auto &A : S)
      for (const auto &B : S) {
        if (A->isBottom() || B->isBottom())
          continue;
        DomainState::Ptr W = widenOf(A, B, T);
        EXPECT_TRUE(B->leq(*W)) << Dom.name() << ": B <= widen(A, B)";
        // One more round with the same target must be a fixpoint.
        DomainState::Ptr W2 = widenOf(W, B, T);
        EXPECT_TRUE(W2->equal(*W))
            << Dom.name() << ": widening must stabilize\n  W:  "
            << W->toString() << "\n  W2: " << W2->toString();
      }
  }
}

//===----------------------------------------------------------------------===//
// Reduction channels
//===----------------------------------------------------------------------===//

/// The octagon -> interval reduction through the channel must publish
/// exactly the per-variable intervals of the (closed) octagon — the same
/// quantities the old hand-wired reduceFromOctagon met into the cells.
TEST(ReductionChannel, OctagonRefineOutMatchesVarIntervals) {
  std::vector<CellId> Cells{4, 9};
  Octagon O(Cells);
  O.meetVarInterval(0, Interval(0, 10));
  O.meetVarInterval(1, Interval(3, 5));
  // x - y <= 0.
  LinearForm Diff = LinearForm::var(4).sub(LinearForm::var(9));
  O.guardLe(Diff, [](CellId) { return Interval::top(); });
  O.close();
  OctagonState S(O);

  ReductionChannel Ch;
  S.refineOut(Ch);
  ASSERT_FALSE(Ch.isBottom());
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Interval *Fact = Ch.fact(Cells[I]);
    ASSERT_NE(Fact, nullptr);
    EXPECT_EQ(*Fact, S.value().varInterval(static_cast<int>(I)))
        << "fact for pack variable " << I;
  }
  // The relational constraint actually tightened x: x <= y <= 5.
  const Interval *FactX = Ch.fact(4);
  EXPECT_EQ(*FactX, Interval(0, 5));
  // Old-style reduction: cell interval meet fact — same result.
  Interval CellX = Interval(0, 10).meet(*FactX);
  EXPECT_EQ(CellX, Interval(0, 5));
}

TEST(ReductionChannel, BottomOctagonMarksChannelBottom) {
  Octagon O(std::vector<CellId>{1, 2});
  O.meetVarInterval(0, Interval::bottom());
  OctagonState S(O);
  ReductionChannel Ch;
  S.refineOut(Ch);
  EXPECT_TRUE(Ch.isBottom());
}

TEST(ReductionChannel, TreeRefineOutPublishesNumJoins) {
  std::vector<CellId> Bools{3};
  std::vector<CellId> Nums{11};
  DecisionTree T(Bools, Nums);
  T.refineNum(0, {Interval(0, 1), Interval(5, 9)});
  DecisionTreeState S(T);
  ReductionChannel Ch;
  S.refineOut(Ch);
  const Interval *Fact = Ch.fact(11);
  ASSERT_NE(Fact, nullptr);
  EXPECT_EQ(*Fact, Interval(0, 9)) << "join of the per-leaf intervals";
}

TEST(ReductionChannel, StatNotesAccumulate) {
  ReductionChannel Ch;
  Ch.noteStat("octagon.assignments");
  Ch.noteStat("octagon.assignments");
  uint64_t Total = 0;
  Ch.forEachStat([&](const char *Key, uint64_t N) {
    EXPECT_STREQ(Key, "octagon.assignments");
    Total += N;
  });
  EXPECT_EQ(Total, 2u);
}

//===----------------------------------------------------------------------===//
// EllipsoidState ordered-pair lookup (regression: swapped cell ids)
//===----------------------------------------------------------------------===//

TEST(EllipsoidState, ExactLookupIsOrdered) {
  EllipsoidState S;
  S.K[{1, 2}] = 9.0;
  EXPECT_EQ(S.get(1, 2), 9.0);
  EXPECT_TRUE(std::isinf(S.get(2, 1))) << "plain get stays orientation-exact";
}

TEST(EllipsoidState, SwappedLookupDerivesSoundBound) {
  FilterParams P;
  P.A = 1.5;
  P.B = 0.7;
  ASSERT_TRUE(P.stable());
  EllipsoidState S;
  S.K[{1, 2}] = 9.0;
  // Exact orientation: unchanged.
  EXPECT_EQ(S.get(1, 2, P), 9.0);
  // Swapped orientation: a finite, sound bound instead of a silent miss.
  double Derived = S.get(2, 1, P);
  EXPECT_TRUE(std::isfinite(Derived));
  // The derived bound encloses the swapped ellipse's box: with D = 4b - a^2,
  // |u| <= 2*sqrt(b*k/D) and |v| <= 2*sqrt(k/D); the (2,1)-oriented form
  // evaluated at the box corner is a lower bound for the sup.
  double D = 4 * P.B - P.A * P.A;
  double MU = 2 * std::sqrt(P.B * 9.0 / D);
  double MV = 2 * std::sqrt(9.0 / D);
  double Corner = MV * MV - P.A * MV * -MU + P.B * MU * MU;
  EXPECT_GE(Derived, 0.999 * Corner);
}

TEST(EllipsoidState, FilterStepSurvivesSwappedStatePair) {
  FilterParams P;
  P.A = 1.5;
  P.B = 0.7;
  // The running filter state was recorded under the swapped role order
  // (W2, W1); the next filter step X' := a*W1 - b*W2 + t must still find
  // a finite invariant instead of silently starting from top.
  EllipsoidState M;
  M.K[{2, 1}] = 9.0;
  EllipsoidPackState S(M, P);

  LinearForm Form = LinearForm::var(1).scale(Interval::point(1.5)).add(
      LinearForm::var(2).scale(Interval::point(-0.7)));
  RelAssign A;
  A.Target = 3;
  A.Form = &Form;
  A.Value = Interval::top();

  FakeCtx Ctx; // Unbounded cell intervals: the only finite source is the
               // stored (swapped) constraint.
  ReductionChannel Out;
  DomainState::Ptr N = S.assignCell(A, Ctx, Out);
  ASSERT_NE(N, nullptr);
  const EllipsoidState &NewMap =
      static_cast<const EllipsoidPackState &>(*N).value();
  double NewK = NewMap.get(3, 1);
  EXPECT_TRUE(std::isfinite(NewK))
      << "filter step lost the invariant on a swapped state pair";
  // The filter-step reduction must also have published a bound for the
  // target on the channel.
  EXPECT_NE(Out.fact(3), nullptr);
}

//===----------------------------------------------------------------------===//
// Domain selection plumbing
//===----------------------------------------------------------------------===//

TEST(DomainSet, ParseAndRender) {
  auto Full = DomainSet::parse("interval,clocked,octagon,tree,ellipsoid");
  ASSERT_TRUE(Full.has_value());
  EXPECT_EQ(*Full, DomainSet::all());
  EXPECT_EQ(Full->toString(), "interval,clocked,octagon,tree,ellipsoid");

  auto Sub = DomainSet::parse("octagon,tree");
  ASSERT_TRUE(Sub.has_value());
  EXPECT_TRUE(Sub->has(DomainKind::Interval)) << "interval is always on";
  EXPECT_TRUE(Sub->has(DomainKind::Octagon));
  EXPECT_TRUE(Sub->has(DomainKind::DecisionTree));
  EXPECT_FALSE(Sub->has(DomainKind::Clocked));
  EXPECT_FALSE(Sub->has(DomainKind::Ellipsoid));

  EXPECT_FALSE(DomainSet::parse("bogus").has_value());
  EXPECT_FALSE(DomainSet::parse("").has_value());
}

TEST(DomainSet, IntervalCannotBeDisabled) {
  DomainSet S = DomainSet::all();
  S.enable(DomainKind::Interval, false);
  EXPECT_TRUE(S.has(DomainKind::Interval));
}

TEST(DomainSet, SpecDirectiveSetsDomainList) {
  AnalyzerOptions O;
  auto W = applySpecDirectives("/* @astral domains interval,octagon */", O);
  EXPECT_TRUE(W.empty());
  EXPECT_TRUE(O.domainEnabled(DomainKind::Octagon));
  EXPECT_FALSE(O.domainEnabled(DomainKind::DecisionTree));
  EXPECT_FALSE(O.domainEnabled(DomainKind::Ellipsoid));
  EXPECT_FALSE(O.domainEnabled(DomainKind::Clocked));

  AnalyzerOptions O2;
  auto W2 = applySpecDirectives("/* @astral domains nonsense */", O2);
  ASSERT_EQ(W2.size(), 1u);
  EXPECT_EQ(O2.Domains, DomainSet::all()) << "malformed directive not applied";

  // A space inside the list must warn, not silently drop domains.
  AnalyzerOptions O3;
  auto W3 = applySpecDirectives("/* @astral domains interval, octagon */", O3);
  ASSERT_EQ(W3.size(), 1u);
  EXPECT_EQ(O3.Domains, DomainSet::all())
      << "truncated domain list must not be applied";
}

/// End-to-end: the registry-driven octagon -> interval reduction proves the
/// same rate-limiter property the hand-wired reduceFromOctagon proved (the
/// array stays in bounds only when the octagon relates the limiter state),
/// and ablating the domain via DomainSet reintroduces the alarm.
TEST(DomainSet, OctagonAblationChangesPrecision) {
  const char *Src =
      "volatile int in;\nint t[8]; int x; int prev; int out;\n"
      "int main(void) {\n"
      "  while (1) {\n"
      "    int v = in;\n"
      "    int d = v - prev;\n"
      "    if (d > 3) { v = prev + 3; }\n"
      "    if (d < -3) { v = prev - 3; }\n"
      "    prev = v;\n"
      "    __astral_wait();\n"
      "  }\n"
      "  return 0;\n"
      "}";
  auto Full = testutil::analyzeSource(Src, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
  });
  ASSERT_TRUE(Full.FrontendOk) << Full.FrontendErrors;
  auto NoOct = testutil::analyzeSource(Src, [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-100, 100);
    O.Domains.enable(DomainKind::Octagon, false);
  });
  EXPECT_GT(NoOct.packCount(DomainKind::Octagon) + Full.packCount(DomainKind::Octagon), 0u);
  EXPECT_EQ(NoOct.packCount(DomainKind::Octagon), 0u) << "ablated domain must build no packs";
}
