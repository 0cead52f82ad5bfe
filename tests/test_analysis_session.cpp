//===- tests/test_analysis_session.cpp - Phased-pipeline API tests --------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Exercises the AnalysisSession
// seam: separately-invokable phases with memoized artifacts, frontend reuse
// across re-parametrizations, batch analysis over a shared pool, and the
// `--jobs=N` determinism guarantee at the API level.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace astral;
using testutil::rangeOf;

namespace {

const char *LimiterSrc =
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

AnalysisInput limiterInput() {
  AnalysisInput In;
  In.Source = LimiterSrc;
  In.Options.VolatileRanges["in"] = Interval(-100, 100);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// The report fields the determinism guarantee covers (everything except
/// wall-clock and memory-peak measurements).
void expectSameReport(const AnalysisResult &A, const AnalysisResult &B) {
  EXPECT_EQ(A.FrontendOk, B.FrontendOk);
  EXPECT_EQ(A.NumCells, B.NumCells);
  EXPECT_EQ(A.PackStats.size(), B.PackStats.size());
  ASSERT_EQ(A.Alarms.size(), B.Alarms.size());
  for (size_t I = 0; I < A.Alarms.size(); ++I) {
    EXPECT_EQ(A.Alarms[I].Kind, B.Alarms[I].Kind);
    EXPECT_EQ(A.Alarms[I].Loc.Line, B.Alarms[I].Loc.Line);
    EXPECT_EQ(A.Alarms[I].Message, B.Alarms[I].Message);
  }
  ASSERT_EQ(A.VariableRanges.size(), B.VariableRanges.size());
  for (size_t I = 0; I < A.VariableRanges.size(); ++I) {
    EXPECT_EQ(A.VariableRanges[I].first, B.VariableRanges[I].first);
    EXPECT_EQ(A.VariableRanges[I].second, B.VariableRanges[I].second);
  }
  EXPECT_EQ(A.MainLoopInvariant, B.MainLoopInvariant);
  EXPECT_EQ(A.UsefulOctPacks, B.UsefulOctPacks);
}

/// The octagon closure counters of \p R: (full, incremental).
std::pair<uint64_t, uint64_t> closures(const AnalysisResult &R) {
  return {R.Stats.get("analysis.octagon_closures_full"),
          R.Stats.get("analysis.octagon_closures_incremental")};
}

/// Two cell-disjoint octagon clusters and a cross-cluster comparison whose
/// own block pack exceeds MaxOctPackSize (= 3 below): the guard's reduction
/// chain spans packs of both clusters, and the clusters exchange facts
/// through the folded out-of-pack intervals.
AnalysisInput crossClusterGuardInput() {
  AnalysisInput In;
  In.Source = "volatile float ina; volatile float inb;\n"
              "float a; float x; float b; float y; float z1; float z2;\n"
              "int main(void) {\n"
              "  while (1) {\n"
              "    if (ina > 0.5f) { a = ina; x = a + 1.0f; }\n"
              "    if (inb > 0.5f) { b = inb; y = b + 2.0f; }\n"
              "    if (x + y < 10.0f) { z1 = x; z2 = y; }\n"
              "    __astral_wait();\n"
              "  }\n"
              "  return 0;\n"
              "}\n";
  In.Options.MaxOctPackSize = 3; // Drops the cross block, keeps clusters.
  In.Options.VolatileRanges["ina"] = Interval(0, 100);
  In.Options.VolatileRanges["inb"] = Interval(0, 100);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// Randomized pack topologies: 2-4 independent octagon clusters with a
/// confirmed decision-tree pack each, and on odd seeds a cross-cluster
/// comparison in a block too large for one pack.
AnalysisInput clusterTopologyInput(unsigned Seed) {
  std::mt19937 Rng(Seed);
  unsigned K = 2 + Seed % 3;
  std::ostringstream Src;
  for (unsigned C = 0; C < K; ++C)
    Src << "volatile float in" << C << "; float a" << C << "; float x" << C
        << "; int b" << C << "; float t" << C << ";\n";
  Src << "int main(void) {\n  while (1) {\n";
  for (unsigned C = 0; C < K; ++C) {
    double Step = 1.0 + (Rng() % 8);
    Src << "    if (in" << C << " > 0.5f) { a" << C << " = in" << C << "; x"
        << C << " = a" << C << " + " << Step << "f; }\n";
    Src << "    if (x" << C << " - a" << C << " < " << (Step + 2.0) << "f) { a"
        << C << " = x" << C << " * 0.5f; }\n";
    Src << "    b" << C << " = x" << C << " > 2.0f;\n";
    Src << "    if (b" << C << ") { t" << C << " = x" << C << "; }\n";
  }
  if (Seed % 2 == 1)
    Src << "    if (x0 + x1 < 9.0f) { t0 = x0; t1 = x1; }\n";
  Src << "    __astral_wait();\n  }\n  return 0;\n}\n";

  AnalysisInput In;
  In.Source = Src.str();
  In.Options.MaxOctPackSize = 3;
  for (unsigned C = 0; C < K; ++C)
    In.Options.VolatileRanges["in" + std::to_string(C)] = Interval(0, 50);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// The --jobs=1 report of \p In must be reproduced at --jobs=2 and 8.
void expectJobsDeterministic(const AnalysisInput &In) {
  AnalysisInput Seq = In;
  Seq.Options.Jobs = 1;
  AnalysisResult RSeq = Analyzer::analyze(Seq);
  ASSERT_TRUE(RSeq.FrontendOk) << RSeq.FrontendErrors;
  for (unsigned Jobs : {2u, 8u}) {
    AnalysisInput Par = In;
    Par.Options.Jobs = Jobs;
    AnalysisResult RPar = Analyzer::analyze(Par);
    expectSameReport(RSeq, RPar);
  }
}

} // namespace

TEST(AnalysisSession, PhasesProduceTypedArtifacts) {
  AnalysisSession S(limiterInput());

  const AnalysisSession::FrontendPhase &F = S.runFrontend();
  ASSERT_TRUE(F.Ok) << F.Errors;
  EXPECT_NE(F.Program, nullptr);
  EXPECT_GT(F.NumVariables, 0u);

  const AnalysisSession::LayoutPhase &L = S.layoutCells();
  EXPECT_GT(L.NumCells, 0u);

  const AnalysisSession::PackingPhase &P = S.buildPacks();
  ASSERT_NE(P.Registry, nullptr);
  EXPECT_GE(P.Registry->size(), 1u);
  auto It = P.PackCensus.find(DomainKind::Octagon);
  ASSERT_NE(It, P.PackCensus.end());
  EXPECT_GE(It->second.Count, 1u);
  EXPECT_GT(It->second.AvgCells, 1.0);

  const AnalysisSession::ExecutionPhase &E = S.runAbstractExecution();
  EXPECT_GT(E.Stats.get("fixpoint.iterations"), 0u);

  AnalysisResult R = S.report();
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(R.NumCells, L.NumCells);
  EXPECT_EQ(R.packCount(DomainKind::Octagon), It->second.Count);
}

TEST(AnalysisSession, ReportMatchesOneShotAnalyzer) {
  AnalysisResult OneShot = Analyzer::analyze(limiterInput());
  AnalysisSession S(limiterInput());
  AnalysisResult Phased = S.report();
  expectSameReport(OneShot, Phased);
}

TEST(AnalysisSession, FrontendSharedAcrossDomainSweep) {
  AnalysisSession S(limiterInput());
  ASSERT_TRUE(S.runFrontend().Ok);
  const ir::Program *Prog = S.runFrontend().Program.get();

  // Ablate the octagons: analysis phases re-run, the frontend must not.
  AnalyzerOptions Ablated = S.options();
  Ablated.Domains.enable(DomainKind::Octagon, false);
  S.setOptions(Ablated);
  EXPECT_EQ(S.runFrontend().Program.get(), Prog)
      << "re-parametrization must keep the frontend artifact";
  AnalysisResult NoOct = S.report();
  EXPECT_EQ(NoOct.packCount(DomainKind::Octagon), 0u);
  EXPECT_GT(rangeOf(NoOct, "y").Hi, 1.0e6)
      << "without octagons the limiter state is essentially unbounded";

  // Back to the full stack: same shared frontend, octagons bound y again.
  AnalyzerOptions Full = S.options();
  Full.Domains.enable(DomainKind::Octagon, true);
  S.setOptions(Full);
  EXPECT_EQ(S.runFrontend().Program.get(), Prog);
  AnalysisResult WithOct = S.report();
  EXPECT_GE(WithOct.packCount(DomainKind::Octagon), 1u);
  EXPECT_LE(rangeOf(WithOct, "y").Hi, 1000.0)
      << "octagons must bound the limiter to a threshold-ladder value";
}

TEST(AnalysisSession, FrontendFailureDegradesGracefully) {
  AnalysisInput In;
  In.Source = "int main(void) { goto x; }";
  AnalysisSession S(In);
  EXPECT_FALSE(S.runFrontend().Ok);
  EXPECT_THROW(S.layoutCells(), std::logic_error);
  AnalysisResult R = S.report();
  EXPECT_FALSE(R.FrontendOk);
  EXPECT_FALSE(R.FrontendErrors.empty());
}

TEST(AnalysisSession, JobsAreByteDeterministic) {
  // Above --jobs=1 the execution phase runs with the pool installed. These
  // inputs partition no function, so nothing within the file fans out: the
  // pool must leave no trace in the report, whatever the pack topology.
  expectJobsDeterministic(limiterInput());
  expectJobsDeterministic(crossClusterGuardInput());
  for (unsigned Seed = 1; Seed <= 5; ++Seed)
    expectJobsDeterministic(clusterTopologyInput(Seed));
}

TEST(AnalysisSession, AnalyzeBatchMatchesIndividualRuns) {
  std::vector<AnalysisInput> Inputs;
  Inputs.push_back(limiterInput());
  AnalysisInput Bad;
  Bad.Source = "int main(void) { goto x; }";
  Inputs.push_back(Bad);
  AnalysisInput Parallel = limiterInput();
  Parallel.Options.Jobs = 4;
  Inputs.push_back(Parallel);

  std::vector<AnalysisResult> Batch = AnalysisSession::analyzeBatch(Inputs);
  ASSERT_EQ(Batch.size(), 3u);
  EXPECT_TRUE(Batch[0].FrontendOk);
  EXPECT_FALSE(Batch[1].FrontendOk) << "the bad file must fail alone";
  EXPECT_TRUE(Batch[2].FrontendOk);

  AnalysisResult Alone = Analyzer::analyze(Inputs[0]);
  expectSameReport(Alone, Batch[0]);
  expectSameReport(Alone, Batch[2]);
}

TEST(AnalysisSession, ClosureCountersArePerSession) {
  // The closure counters used to be a process-global atomic, so a second
  // run (or a batch) reported the accumulated total of every run before
  // it. Per-session counters must report identical work for identical
  // inputs, run after run and across a batch.
  AnalysisResult First = Analyzer::analyze(limiterInput());
  AnalysisResult Second = Analyzer::analyze(limiterInput());
  EXPECT_GT(closures(First).first + closures(First).second, 0u);
  EXPECT_EQ(closures(Second), closures(First));

  std::vector<AnalysisInput> Inputs(3, limiterInput());
  Inputs[1].Options.Jobs = 4; // Concurrent batch must not cross-meter.
  std::vector<AnalysisResult> Batch = AnalysisSession::analyzeBatch(Inputs);
  ASSERT_EQ(Batch.size(), 3u);
  // The limiter partitions no function, so the jobs=4 member runs the
  // jobs=1 path too: every member meters exactly one file's work.
  for (const AnalysisResult &R : Batch)
    EXPECT_EQ(closures(R), closures(First));
}

TEST(AnalysisSession, ReExecutionMetersOnlyItsOwnClosures) {
  // The meter restarts with every execution attempt: a session re-run
  // after an execution-only change reports what a fresh session reports,
  // not the sum of both runs.
  std::pair<uint64_t, uint64_t> Fresh =
      closures(Analyzer::analyze(limiterInput()));
  AnalysisSession S(limiterInput());
  EXPECT_EQ(closures(S.report()), Fresh);

  AnalyzerOptions O = S.options();
  O.Jobs = 2;
  S.setOptions(O);
  ASSERT_TRUE(S.hasPackingArtifact());
  ASSERT_FALSE(S.hasExecutionArtifact());
  EXPECT_EQ(closures(S.report()), Fresh);
}

TEST(AnalysisSession, AdoptedPackingSharesTheDonorRegistry) {
  // A daemon packing hit hands the whole packing phase over: recipients
  // use the donor's registry and build none, and recipients running
  // concurrently on one pool still meter only their own closures.
  AnalysisSession Donor(limiterInput());
  AnalysisResult Solo = Donor.report();
  const DomainRegistry *Shared = Donor.buildPacks().Registry.get();

  constexpr size_t N = 2;
  std::vector<std::unique_ptr<AnalysisSession>> Recipients;
  for (size_t I = 0; I < N; ++I) {
    auto S = std::make_unique<AnalysisSession>(limiterInput());
    S->adoptFrontend(Donor.shareFrontend());
    S->adoptPacking(Donor.shareLayout(), Donor.sharePacking());
    EXPECT_EQ(S->buildPacks().Registry.get(), Shared);
    Recipients.push_back(std::move(S));
  }

  std::shared_ptr<Scheduler> Pool = Scheduler::create(2);
  std::vector<AnalysisResult> Results(N);
  Pool->parallelFor(N, [&](size_t I) {
    Recipients[I]->setScheduler(Pool);
    Results[I] = Recipients[I]->report();
  });
  for (const AnalysisResult &R : Results) {
    expectSameReport(Solo, R);
    EXPECT_EQ(closures(R), closures(Solo));
  }
}

TEST(AnalysisSession, PeakAbstractBytesArePerSession) {
  // The peak-memory figure used to read the process-wide high-water mark,
  // so any earlier run (or a concurrent batch member) inflated it. A
  // session must meter its own abstract state: identical sequential inputs
  // report the identical peak, alone or as batch members.
  AnalysisResult Alone = Analyzer::analyze(limiterInput());
  EXPECT_GT(Alone.PeakAbstractBytes, 0u);
  AnalysisResult Again = Analyzer::analyze(limiterInput());
  EXPECT_EQ(Alone.PeakAbstractBytes, Again.PeakAbstractBytes)
      << "a second identical run must not see the first run's watermark";

  std::vector<AnalysisInput> Inputs(3, limiterInput());
  std::vector<AnalysisResult> Batch = AnalysisSession::analyzeBatch(Inputs);
  ASSERT_EQ(Batch.size(), 3u);
  for (const AnalysisResult &R : Batch)
    EXPECT_EQ(R.PeakAbstractBytes, Alone.PeakAbstractBytes)
        << "batch members must meter only their own file";
}

TEST(AnalysisSession, BatchOfManyFilesCompletes) {
  // More files than pool workers: the queue must drain and preserve order.
  std::vector<AnalysisInput> Inputs;
  for (int I = 0; I < 12; ++I) {
    AnalysisInput In = limiterInput();
    In.Options.Jobs = 3;
    In.FileName = "copy" + std::to_string(I) + ".c";
    Inputs.push_back(In);
  }
  std::vector<AnalysisResult> Batch = AnalysisSession::analyzeBatch(Inputs);
  ASSERT_EQ(Batch.size(), 12u);
  for (size_t I = 1; I < Batch.size(); ++I)
    expectSameReport(Batch[0], Batch[I]);
}
