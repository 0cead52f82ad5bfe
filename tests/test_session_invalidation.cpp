//===- tests/test_session_invalidation.cpp - setOptions() staleness matrix ------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Table-driven coverage of the
// re-parametrization contract: setOptions() must invalidate exactly the
// phases whose option subset changed — nothing more (artifact reuse is the
// whole point of the phased API and the service cache), nothing less
// (stale artifacts would silently leak the previous parametrization into
// the report). The same per-phase option subsets define the service's
// content-hash cache keys, so the matrix also pins key coherence: two
// inputs agree on a phase key iff the phase's fingerprint agrees.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace astral;

namespace {

const char *Src =
    "volatile float in;\nfloat y;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    float u = in;\n"
    "    if (u - y > 8.0f) { y = y + 8.0f; }\n"
    "    else { if (y - u > 8.0f) { y = y - 8.0f; } else { y = u; } }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

AnalysisInput input() {
  AnalysisInput In;
  In.Source = Src;
  In.Options.VolatileRanges["in"] = Interval(-100, 100);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// Which artifacts must survive a given option mutation. Phases are
/// cumulative: invalidating an early phase invalidates everything after it,
/// so the table only records the first stale phase.
enum class StaleFrom { Nothing, Frontend, Layout, Packing, Execution };

struct MatrixCase {
  const char *Name;
  std::function<void(AnalyzerOptions &)> Mutate;
  StaleFrom Expected;
};

const std::vector<MatrixCase> &matrix() {
  static const std::vector<MatrixCase> Cases = {
      {"identical options", [](AnalyzerOptions &) {}, StaleFrom::Nothing},
      {"entry function",
       [](AnalyzerOptions &O) { O.EntryFunction = "other_entry"; },
       StaleFrom::Frontend},
      {"array expand limit",
       [](AnalyzerOptions &O) { O.ArrayExpandLimit += 16; },
       StaleFrom::Layout},
      {"domain set",
       [](AnalyzerOptions &O) { O.Domains.enable(DomainKind::Octagon, false); },
       StaleFrom::Packing},
      {"max oct pack size",
       [](AnalyzerOptions &O) { O.MaxOctPackSize += 1; },
       StaleFrom::Packing},
      {"tree pack shape",
       [](AnalyzerOptions &O) { O.MaxBoolsPerTreePack += 1; },
       StaleFrom::Packing},
      {"restricted packs",
       [](AnalyzerOptions &O) {
         // Unrestricted -> restricted to no pack: an empty but engaged set.
         O.RestrictOctPacks = std::set<uint32_t>{};
       },
       StaleFrom::Packing},
      {"jobs", [](AnalyzerOptions &O) { O.Jobs = O.Jobs == 4 ? 2 : 4; },
       StaleFrom::Execution},
      {"extra threshold",
       [](AnalyzerOptions &O) { O.ExtraThresholds.push_back(123.5); },
       StaleFrom::Execution},
      {"clock max", [](AnalyzerOptions &O) { O.ClockMax *= 2; },
       StaleFrom::Execution},
      {"volatile range",
       [](AnalyzerOptions &O) {
         O.VolatileRanges["in"] = Interval(-50, 50);
       },
       StaleFrom::Execution},
      {"default unroll",
       [](AnalyzerOptions &O) { O.DefaultUnroll += 1; },
       StaleFrom::Execution},
  };
  return Cases;
}

} // namespace

TEST(SessionInvalidation, SetOptionsInvalidatesExactlyTheStalePhases) {
  for (const MatrixCase &C : matrix()) {
    AnalysisSession S(input());
    ASSERT_TRUE(S.report().FrontendOk) << C.Name;
    ASSERT_TRUE(S.hasFrontendArtifact());
    ASSERT_TRUE(S.hasLayoutArtifact());
    ASSERT_TRUE(S.hasPackingArtifact());
    ASSERT_TRUE(S.hasExecutionArtifact());

    AnalyzerOptions O = S.options();
    C.Mutate(O);
    S.setOptions(O);

    EXPECT_EQ(S.hasFrontendArtifact(), C.Expected != StaleFrom::Frontend)
        << C.Name;
    EXPECT_EQ(S.hasLayoutArtifact(), C.Expected != StaleFrom::Frontend &&
                                         C.Expected != StaleFrom::Layout)
        << C.Name;
    EXPECT_EQ(S.hasPackingArtifact(), C.Expected == StaleFrom::Nothing ||
                                          C.Expected == StaleFrom::Execution)
        << C.Name;
    EXPECT_EQ(S.hasExecutionArtifact(), C.Expected == StaleFrom::Nothing)
        << C.Name;

    // The surviving artifacts must be the *same* objects, and the report
    // after re-running must still be coherent (no half-stale pipeline).
    if (C.Expected != StaleFrom::Frontend) {
      const ir::Program *Prog = S.runFrontend().Program.get();
      AnalysisResult R = S.report();
      EXPECT_TRUE(R.FrontendOk) << C.Name;
      EXPECT_EQ(S.runFrontend().Program.get(), Prog)
          << C.Name << ": report() must reuse the retained frontend";
    }
  }
}

TEST(SessionInvalidation, FingerprintsAreCumulativeAcrossPhases) {
  // A frontend-level change must show up in every later phase's
  // fingerprint; an execution-level change in none but execution's.
  using Phase = AnalysisSession::Phase;
  AnalyzerOptions Base = input().Options;

  AnalyzerOptions Entry = Base;
  Entry.EntryFunction = "other_entry";
  AnalyzerOptions Jobs = Base;
  Jobs.Jobs = 7;

  for (Phase P :
       {Phase::Frontend, Phase::Layout, Phase::Packing, Phase::Execution}) {
    EXPECT_NE(AnalysisSession::optionsFingerprint(Base, P),
              AnalysisSession::optionsFingerprint(Entry, P))
        << "entry change invisible at phase " << int(P);
    if (P == Phase::Execution)
      EXPECT_NE(AnalysisSession::optionsFingerprint(Base, P),
                AnalysisSession::optionsFingerprint(Jobs, P));
    else
      EXPECT_EQ(AnalysisSession::optionsFingerprint(Base, P),
                AnalysisSession::optionsFingerprint(Jobs, P))
          << "jobs must not leak into phase " << int(P);
  }
}

TEST(SessionInvalidation, CacheKeysFollowTheFingerprints) {
  AnalysisInput A = input();

  // Execution-only differences share both artifact keys: this is what lets
  // the daemon reuse a frontend across --jobs or threshold sweeps.
  AnalysisInput B = input();
  B.Options.Jobs = 7;
  B.Options.ExtraThresholds.push_back(42.0);
  EXPECT_EQ(AnalysisSession::frontendCacheKey(A),
            AnalysisSession::frontendCacheKey(B));
  EXPECT_EQ(AnalysisSession::packingCacheKey(A),
            AnalysisSession::packingCacheKey(B));

  // Packing-level differences split the packing key but keep the frontend.
  AnalysisInput C = input();
  C.Options.MaxOctPackSize += 1;
  EXPECT_EQ(AnalysisSession::frontendCacheKey(A),
            AnalysisSession::frontendCacheKey(C));
  EXPECT_NE(AnalysisSession::packingCacheKey(A),
            AnalysisSession::packingCacheKey(C));

  // Source or name changes split everything (content-hash keys).
  AnalysisInput D = input();
  D.Source = std::string(Src) + "\n";
  EXPECT_NE(AnalysisSession::frontendCacheKey(A),
            AnalysisSession::frontendCacheKey(D));
  AnalysisInput E = input();
  E.FileName = "renamed.c";
  EXPECT_NE(AnalysisSession::frontendCacheKey(A),
            AnalysisSession::frontendCacheKey(E));

  // Headers participate, and in a content-addressed way: the same header
  // map must key identically however it was built.
  AnalysisInput F = input();
  F.Headers["defs.h"] = "#define LIMIT 8\n";
  EXPECT_NE(AnalysisSession::frontendCacheKey(A),
            AnalysisSession::frontendCacheKey(F));
  AnalysisInput G = input();
  G.Headers["defs.h"] = "#define LIMIT 8\n";
  EXPECT_EQ(AnalysisSession::frontendCacheKey(F),
            AnalysisSession::frontendCacheKey(G));
}

TEST(SessionInvalidation, AdoptedArtifactsBehaveLikeComputedOnes) {
  // Donor session computes, recipient adopts — the recipient's report must
  // be identical and a later re-parametrization must drop the adopted
  // artifacts exactly like home-grown ones.
  AnalysisSession Donor(input());
  AnalysisResult Direct = Donor.report();
  ASSERT_TRUE(Direct.FrontendOk);

  AnalysisSession Recipient(input());
  Recipient.adoptFrontend(Donor.shareFrontend());
  Recipient.adoptPacking(Donor.shareLayout(), Donor.sharePacking());
  AnalysisResult Adopted = Recipient.report();
  EXPECT_EQ(Adopted.NumCells, Direct.NumCells);
  ASSERT_EQ(Adopted.VariableRanges.size(), Direct.VariableRanges.size());
  for (size_t I = 0; I < Adopted.VariableRanges.size(); ++I)
    EXPECT_EQ(Adopted.VariableRanges[I].second,
              Direct.VariableRanges[I].second);
  EXPECT_EQ(Adopted.Alarms.size(), Direct.Alarms.size());

  AnalyzerOptions O = Recipient.options();
  O.MaxOctPackSize += 1;
  Recipient.setOptions(O);
  EXPECT_TRUE(Recipient.hasFrontendArtifact());
  EXPECT_FALSE(Recipient.hasPackingArtifact());
  EXPECT_TRUE(Recipient.report().FrontendOk);

  // Adoption is a pre-run seam only: a session that already ran refuses.
  AnalysisSession Late(input());
  (void)Late.report();
  EXPECT_THROW(Late.adoptFrontend(Donor.shareFrontend()), std::logic_error);
  EXPECT_THROW(Late.adoptPacking(Donor.shareLayout(), Donor.sharePacking()),
               std::logic_error);
}
