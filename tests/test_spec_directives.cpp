//===- tests/test_spec_directives.cpp - @astral directive parsing -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/SpecDirectives.h"

#include "analyzer/CliOptions.h"
#include "analyzer/Scheduler.h"

#include <gtest/gtest.h>

#include <thread>

using namespace astral;

TEST(SpecDirectives, ParsesAllKinds) {
  AnalyzerOptions Opts;
  std::vector<std::string> W = applySpecDirectives(
      R"(/* @astral volatile speed 0 300
            @astral volatile brake 0 1
            @astral clock-max 1e6
            @astral partition select_gain
            @astral threshold 500
            @astral unroll 2
            @astral jobs 4
            @astral entry tick */)",
      Opts);
  EXPECT_TRUE(W.empty()) << W.front();
  ASSERT_EQ(Opts.VolatileRanges.count("speed"), 1u);
  EXPECT_EQ(Opts.VolatileRanges["speed"], Interval(0, 300));
  EXPECT_EQ(Opts.VolatileRanges["brake"], Interval(0, 1));
  EXPECT_EQ(Opts.ClockMax, 1e6);
  EXPECT_EQ(Opts.PartitionFunctions.count("select_gain"), 1u);
  ASSERT_EQ(Opts.ExtraThresholds.size(), 1u);
  EXPECT_EQ(Opts.ExtraThresholds[0], 500.0);
  EXPECT_EQ(Opts.DefaultUnroll, 2u);
  EXPECT_EQ(Opts.Jobs, 4u);
  EXPECT_EQ(Opts.EntryFunction, "tick");
}

TEST(SpecDirectives, MalformedJobsWarns) {
  for (const char *Bad :
       {"/* @astral jobs many */", "/* @astral jobs -1 */",
        "/* @astral jobs 99999999 */"}) {
    AnalyzerOptions Opts;
    std::vector<std::string> W = applySpecDirectives(Bad, Opts);
    ASSERT_EQ(W.size(), 1u) << Bad;
    EXPECT_NE(W[0].find("jobs"), std::string::npos);
    EXPECT_EQ(Opts.Jobs, 1u)
        << Bad << ": a malformed or out-of-range directive must not apply";
  }
}

TEST(SpecDirectives, TrailingCommentCloserIsTolerated) {
  AnalyzerOptions Opts;
  std::vector<std::string> W =
      applySpecDirectives("/* @astral clock-max 3.6e6 */", Opts);
  EXPECT_TRUE(W.empty());
  EXPECT_EQ(Opts.ClockMax, 3.6e6);
}

TEST(SpecDirectives, MalformedDirectivesWarnAndDoNotApply) {
  AnalyzerOptions Defaults;
  AnalyzerOptions Opts;
  std::vector<std::string> W = applySpecDirectives(
      "/* @astral clock-max 3,6e6 */\n"   // half-parsable number
      "/* @astral clock-max -5 */\n"      // non-positive
      "/* @astral volatile speed 300 0 */\n" // inverted range
      "/* @astral volatile speed */\n"    // missing bounds
      "/* @astral unroll two */\n"        // non-numeric
      "/* @astral frobnicate 1 */\n"      // unknown kind
      // Deleted execution options are unknown kinds too.
      "/* @astral call-memo off */\n"
      "/* @astral call-dispatch seq */\n"
      "/* @astral pack-dispatch seq */\n"
      "/* @astral octagon-closure full */\n"
      "/* @astral partition-dispatch seq */\n",
      Opts);
  EXPECT_EQ(W.size(), 11u);
  // Nothing was applied.
  EXPECT_EQ(Opts.ClockMax, Defaults.ClockMax);
  EXPECT_TRUE(Opts.VolatileRanges.empty());
  EXPECT_EQ(Opts.DefaultUnroll, Defaults.DefaultUnroll);
  // Warnings carry the line number and the expected shape.
  EXPECT_NE(W[0].find("line 1"), std::string::npos);
  EXPECT_NE(W[0].find("clock-max"), std::string::npos);
  EXPECT_NE(W[5].find("frobnicate"), std::string::npos);
  for (size_t I = 5; I < W.size(); ++I)
    EXPECT_NE(W[I].find("unknown @astral directive"), std::string::npos)
        << W[I];
}

TEST(SpecDirectives, NonDirectiveTextIsIgnored) {
  AnalyzerOptions Defaults;
  AnalyzerOptions Opts;
  std::vector<std::string> W = applySpecDirectives(
      "int main(void) { return 0; } /* no directives here */", Opts);
  EXPECT_TRUE(W.empty());
  EXPECT_TRUE(Opts.VolatileRanges.empty());
  EXPECT_EQ(Opts.ClockMax, Defaults.ClockMax);
}

TEST(SpecDirectives, MultipleDirectivesOnOneLine) {
  AnalyzerOptions Opts;
  std::vector<std::string> W = applySpecDirectives(
      "/* @astral volatile a 0 1  @astral clock-max 1e6 */", Opts);
  EXPECT_TRUE(W.empty()) << W.front();
  EXPECT_EQ(Opts.VolatileRanges["a"], Interval(0, 1));
  EXPECT_EQ(Opts.ClockMax, 1e6);
}

TEST(SpecDirectives, NegativeRangesParse) {
  AnalyzerOptions Opts;
  std::vector<std::string> W =
      applySpecDirectives("/* @astral volatile stick -1 1 */", Opts);
  EXPECT_TRUE(W.empty());
  EXPECT_EQ(Opts.VolatileRanges["stick"], Interval(-1, 1));
}

TEST(SpecDirectives, JobsZeroMeansHardwareConcurrency) {
  // `@astral jobs 0` (and --jobs=0) is the documented "one worker per
  // hardware thread" request, resolved in exactly one place.
  AnalyzerOptions Opts;
  std::vector<std::string> W =
      applySpecDirectives("/* @astral jobs 0 */", Opts);
  EXPECT_TRUE(W.empty()) << W.front();
  EXPECT_EQ(Opts.Jobs, 0u);
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(Scheduler::effectiveJobs(0), std::min(HW, Scheduler::MaxThreads));
  // The resolved scheduler really carries that concurrency.
  EXPECT_EQ(Scheduler::create(0)->concurrency(),
            Scheduler::effectiveJobs(0));
  // 0 is a hardware-sized request, never an oversubscription.
  EXPECT_FALSE(Scheduler::oversubscribes(0));
}

TEST(SpecDirectives, JobsAboveHardwareWarnsOnce) {
  // Explicit requests above the hardware thread count are honored (the
  // determinism suites deliberately run --jobs=8 on small hosts) but meet
  // the warn condition; hardware-sized requests do not.
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_FALSE(Scheduler::oversubscribes(HW));
  EXPECT_FALSE(Scheduler::oversubscribes(1));
  if (HW < Scheduler::MaxThreads) {
    EXPECT_TRUE(Scheduler::oversubscribes(HW + 1));
    // Honored, not clamped.
    EXPECT_EQ(Scheduler::effectiveJobs(HW + 1), HW + 1);
  }
}

TEST(CliFlags, RemovedFlagsAndAliasesAreUnknown) {
  for (const char *Gone :
       {"--call-memo=off", "--call-dispatch=seq", "--pack-dispatch=seq",
        "--octagon-closure=full", "--partition-dispatch=seq", "--octagons",
        "--no-octagons", "--no-ellipsoids", "--no-trees", "--no-clock",
        "--no-packing"}) {
    cli::CliOptions Cli;
    cli::ParseOutcome P = cli::parseArgs({Gone, "prog.c"}, Cli);
    EXPECT_FALSE(P.Ok) << Gone;
    EXPECT_NE(P.Error.find("unknown flag"), std::string::npos) << Gone;
  }
}
