//===- tests/test_spec_directives.cpp - @astral directive parsing -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/SpecDirectives.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"
#include "analyzer/Scheduler.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
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

TEST(SpecDirectives, NegativeUnrollWarnsAndDoesNotApply) {
  // Read as a wrapping unsigned, "-1" would ask for 4294967295 unrolls.
  AnalyzerOptions Opts;
  std::vector<std::string> W =
      applySpecDirectives("/* @astral unroll -1 */", Opts);
  ASSERT_EQ(W.size(), 1u);
  EXPECT_NE(W[0].find("malformed @astral unroll"), std::string::npos) << W[0];
  EXPECT_EQ(Opts.DefaultUnroll, 1u);
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
      "/* @astral partition f g */\n"     // extra argument
      "/* @astral frobnicate 1 */\n"      // unknown kind
      // Deleted execution options are unknown kinds too.
      "/* @astral call-memo off */\n"
      "/* @astral call-dispatch seq */\n"
      "/* @astral pack-dispatch seq */\n"
      "/* @astral octagon-closure full */\n"
      "/* @astral partition-dispatch seq */\n",
      Opts);
  EXPECT_EQ(W.size(), 12u);
  // Nothing was applied.
  EXPECT_EQ(Opts.ClockMax, Defaults.ClockMax);
  EXPECT_TRUE(Opts.VolatileRanges.empty());
  EXPECT_EQ(Opts.DefaultUnroll, Defaults.DefaultUnroll);
  EXPECT_TRUE(Opts.PartitionFunctions.empty());
  // Warnings carry the line number and the expected shape.
  EXPECT_NE(W[0].find("line 1"), std::string::npos);
  EXPECT_NE(W[0].find("clock-max"), std::string::npos);
  EXPECT_NE(W[0].find("expects a positive number"), std::string::npos);
  EXPECT_NE(W[6].find("frobnicate"), std::string::npos);
  for (size_t I = 6; I < W.size(); ++I)
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
        "--no-packing", "--memory-budget-mb=1"}) {
    cli::CliOptions Cli;
    cli::ParseOutcome P = cli::parseArgs({Gone, "prog.c"}, Cli);
    EXPECT_FALSE(P.Ok) << Gone;
    EXPECT_NE(P.Error.find("unknown flag"), std::string::npos) << Gone;
  }
}

TEST(CliFlags, NanIsRefused) {
  // NaN fails every comparison, so a range check cannot catch it; taken as
  // a volatile bound, a clock maximum or a threshold, it can keep the
  // analysis running without end.
  for (std::vector<std::string> Args :
       {std::vector<std::string>{"--volatile", "speed=nan:10"},
        {"--clock-max", "nan"},
        {"--threshold", "nan"}}) {
    Args.push_back("prog.c");
    cli::CliOptions Cli;
    cli::ParseOutcome P = cli::parseArgs(Args, Cli);
    EXPECT_FALSE(P.Ok) << Args[0];
    EXPECT_NE(P.Error.find(Args[0] + " expects"), std::string::npos)
        << P.Error;
  }
}

TEST(CliFlags, UnrollTakesAnEqualsValue) {
  cli::CliOptions Cli;
  cli::ParseOutcome P = cli::parseArgs({"--unroll=2", "prog.c"}, Cli);
  ASSERT_TRUE(P.Ok) << P.Error;
  std::vector<std::string> W;
  EXPECT_EQ(cli::assembleOptions(Cli, "prog.c", "", W).DefaultUnroll, 2u);
}

namespace {

std::string fingerprint(const AnalyzerOptions &O) {
  return AnalysisSession::optionsFingerprint(
      O, AnalysisSession::Phase::Execution);
}

/// The options a one-shot run assembles from \p Flags for an input without
/// directives; \p Error receives parseArgs' error.
AnalyzerOptions flagOptions(std::vector<std::string> Flags,
                            std::string &Error) {
  Flags.push_back("prog.c");
  cli::CliOptions Cli;
  Error = cli::parseArgs(Flags, Cli).Error;
  std::vector<std::string> Warnings;
  return cli::assembleOptions(Cli, "prog.c", "", Warnings);
}

/// One value written for both surfaces: `@astral Directive Args` and
/// `--Flag=Value`.
struct SurfacePair {
  const char *Directive, *Args, *Flag, *Value;
};

/// The flag of the table entry that declares \p Directive.
std::string flagOf(const std::string &Directive) {
  for (const cli::Option &O : cli::options())
    if (O.Directive == Directive)
      return O.Flag;
  return "";
}

} // namespace

TEST(OptionTable, DirectiveAndFlagGiveTheSameOptions) {
  const SurfacePair Pairs[] = {
      {"volatile", "speed -5 300", "volatile", "speed=-5:300"},
      {"clock-max", "1e6", "clock-max", "1e6"},
      {"partition", "select_gain", "partition", "select_gain"},
      {"threshold", "500", "threshold", "500"},
      {"domains", "interval,octagon", "domains", "interval,octagon"},
      {"thread", "t1 worker", "threads", "t1:worker"},
      {"entry", "tick", "entry", "tick"},
      {"unroll", "2", "unroll", "2"},
      {"jobs", "4", "jobs", "4"},
  };
  std::set<std::string> Uncovered;
  for (const cli::Option &O : cli::options())
    if (!O.Directive.empty())
      Uncovered.insert(O.Directive);
  const std::string Default = fingerprint(AnalyzerOptions());
  for (const SurfacePair &P : Pairs) {
    Uncovered.erase(P.Directive);
    EXPECT_EQ(flagOf(P.Directive), P.Flag);
    AnalyzerOptions ByDirective;
    std::vector<std::string> W = applySpecDirectives(
        std::string("/* @astral ") + P.Directive + " " + P.Args + " */",
        ByDirective);
    EXPECT_TRUE(W.empty()) << W.front();
    EXPECT_NE(fingerprint(ByDirective), Default)
        << P.Directive << ": the value must take effect";
    std::string Flag = std::string("--") + P.Flag;
    for (const std::vector<std::string> &Flags :
         {std::vector<std::string>{Flag + "=" + P.Value},
          std::vector<std::string>{Flag, P.Value}}) {
      std::string Error;
      AnalyzerOptions ByFlag = flagOptions(Flags, Error);
      EXPECT_EQ(Error, "");
      EXPECT_EQ(fingerprint(ByFlag), fingerprint(ByDirective))
          << Flags.front();
    }
  }
  EXPECT_TRUE(Uncovered.empty())
      << "directive without a case: @astral " << *Uncovered.begin();
}

TEST(OptionTable, MalformedValuesAreRefusedByBothSurfaces) {
  const SurfacePair Malformed[] = {
      {"volatile", "speed nan 10", "volatile", "speed=nan:10"},
      {"volatile", "speed 300 0", "volatile", "speed=300:0"},
      {"volatile", "speed 0", "volatile", "speed=0"},
      {"volatile", "speed 0 300 extra", "volatile", "speed=0:300 extra"},
      {"clock-max", "nan", "clock-max", "nan"},
      {"clock-max", "-5", "clock-max", "-5"},
      {"clock-max", "0", "clock-max", "0"},
      {"clock-max", "3,6e6", "clock-max", "3,6e6"},
      {"clock-max", "1e999", "clock-max", "1e999"},
      {"partition", "", "partition", ""},
      {"partition", "f g", "partition", "f g"},
      {"threshold", "nan", "threshold", "nan"},
      {"threshold", "five", "threshold", "five"},
      {"domains", "nonsense", "domains", "nonsense"},
      {"domains", "interval, octagon", "domains", "interval, octagon"},
      // The alternate spellings of the deleted per-domain flags.
      {"domains", "intervals", "domains", "intervals"},
      {"domains", "clock", "domains", "clock"},
      {"domains", "octagons", "domains", "octagons"},
      {"domains", "trees", "domains", "trees"},
      {"domains", "decision-tree", "domains", "decision-tree"},
      {"domains", "ellipsoids", "domains", "ellipsoids"},
      {"thread", "t1", "threads", "t1"},
      {"thread", "t1 a b", "threads", "t1:a b"},
      {"entry", "", "entry", ""},
      {"unroll", "-1", "unroll", "-1"},
      {"unroll", "two", "unroll", "two"},
      {"unroll", "2.5", "unroll", "2.5"},
      {"unroll", "4294967296", "unroll", "4294967296"},
      {"unroll", "1001", "unroll", "1001"},
      {"jobs", "-1", "jobs", "-1"},
      {"jobs", "many", "jobs", "many"},
      {"jobs", "99999999", "jobs", "99999999"},
  };
  const std::string Default = fingerprint(AnalyzerOptions());
  for (const SurfacePair &P : Malformed) {
    EXPECT_EQ(flagOf(P.Directive), P.Flag);
    AnalyzerOptions ByDirective;
    std::vector<std::string> W = applySpecDirectives(
        std::string("/* @astral ") + P.Directive + " " + P.Args + " */",
        ByDirective);
    ASSERT_EQ(W.size(), 1u) << P.Directive << " " << P.Args;
    EXPECT_NE(W[0].find(std::string("malformed @astral ") + P.Directive),
              std::string::npos)
        << W[0];
    EXPECT_EQ(fingerprint(ByDirective), Default)
        << P.Directive << " " << P.Args << " must not apply";
    std::string Flag = std::string("--") + P.Flag;
    for (const std::vector<std::string> &Flags :
         {std::vector<std::string>{Flag + "=" + P.Value},
          std::vector<std::string>{Flag, P.Value}}) {
      std::string Error;
      flagOptions(Flags, Error);
      EXPECT_NE(Error.find(Flag + " expects"), std::string::npos)
          << Flags.front() << ": " << Error;
    }
  }
}

TEST(OptionTable, EveryValueFlagTakesBothForms) {
  const std::map<std::string, std::string> Samples = {
      {"jobs", "2"},          {"domains", "interval"},
      {"threshold", "5"},     {"unroll", "2"},
      {"max-iterations", "9"}, {"volatile", "x=0:1"},
      {"clock-max", "100"},   {"partition", "f"},
      {"entry", "f"},         {"threads", "t:f"},
      {"deadline-ms", "5"},   {"memory-budget-bytes", "100"},
      {"on-budget", "fail"},
  };
  const std::string Default = fingerprint(AnalyzerOptions());
  for (const cli::Option &O : cli::options()) {
    if (O.Expect.empty())
      continue;
    auto Sample = Samples.find(O.Flag);
    ASSERT_NE(Sample, Samples.end()) << "no sample value for --" << O.Flag;
    std::string Flag = "--" + O.Flag, Error;
    AnalyzerOptions Joined = flagOptions({Flag + "=" + Sample->second}, Error);
    EXPECT_EQ(Error, "");
    AnalyzerOptions Split = flagOptions({Flag, Sample->second}, Error);
    EXPECT_EQ(Error, "");
    EXPECT_NE(fingerprint(Joined), Default) << Flag;
    EXPECT_EQ(fingerprint(Joined), fingerprint(Split)) << Flag;
    // The client forwards the tokens verbatim, in the form they came in.
    cli::CliOptions Cli;
    ASSERT_TRUE(cli::parseArgs({"a.c", Flag, Sample->second, "b.c"}, Cli).Ok);
    EXPECT_EQ(Cli.FlagArgs,
              (std::vector<std::string>{Flag, Sample->second}));
    EXPECT_EQ(Cli.InputPaths, (std::vector<std::string>{"a.c", "b.c"}));
  }
}

TEST(OptionTable, EveryFlagIsInTheHelp) {
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *Out = open_memstream(&Buf, &Len);
  ASSERT_NE(Out, nullptr);
  cli::printUsage(Out);
  std::fclose(Out);
  std::string Help(Buf, Len);
  std::free(Buf);
  for (const cli::Option &O : cli::options()) {
    // The name must stand alone, not as the prefix of a longer flag.
    std::string Flag = "--" + O.Flag;
    size_t At = Help.find(Flag);
    while (At != std::string::npos &&
           (std::isalnum(static_cast<unsigned char>(Help[At + Flag.size()])) ||
            Help[At + Flag.size()] == '-'))
      At = Help.find(Flag, At + 1);
    EXPECT_NE(At, std::string::npos) << Flag << " is missing from --help";
  }
}
