//===- e2ebench/SelfTest.cpp - Checks of the harness's own pieces ---------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Modes.h"
#include "Harness.h"

#include <cmath>
#include <cstdio>

namespace {

unsigned Checks = 0, Failures = 0;

void check(bool Cond, const char *What) {
  ++Checks;
  if (!Cond) {
    ++Failures;
    std::printf("self-test FAILED: %s\n", What);
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> range(int From, int To) {
  std::vector<double> V;
  for (int I = From; I <= To; ++I)
    V.push_back(I);
  return V;
}

/// A family report as astral-cli --json renders it, with the given alarms.
std::string familyReport(const std::string &Alarms) {
  return "{\n  \"file\": \"m.c\",\n  \"frontend_ok\": true,\n"
         "  \"analysis_seconds\": 1.250000,\n  \"alarm_count\": 1,\n"
         "  \"alarms\": [\n" +
         Alarms + "\n  ]\n}\n";
}

} // namespace

int e2e::runSelfTest() {
  // Percentiles: nearest rank, and the ten-beyond rule. 1008 samples leave
  // exactly 10 beyond p99; 999 leave only 9.
  Percentile P = percentile(range(1, 1008), 99);
  check(near(P.Value, 998) && P.Beyond == 10, "p99 of 1..1008");
  check(percentile(range(1, 999), 99).Beyond == 9, "p99 of 1..999");
  check(near(percentile(range(1, 10), 50).Value, 5), "p50 nearest rank");
  check(near(percentile({7}, 99).Value, 7), "p99 of one sample");

  // Medians and quartiles as Python's statistics module computes them:
  // quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
  // quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
  check(near(median(range(1, 10)), 5.5), "median of an even count");
  check(near(median({3, 1, 2}), 2), "median of an odd count");
  std::array<double, 3> Q = quartiles(range(1, 10));
  check(near(Q[0], 2.75) && near(Q[1], 5.5) && near(Q[2], 8.25),
        "quartiles of 1..10");
  Q = quartiles({4, 1, 3, 2});
  check(near(Q[0], 1.25) && near(Q[1], 2.5) && near(Q[2], 3.75),
        "quartiles of 1..4");

  // Golden normalization rewrites exactly the two run-dependent fields.
  std::string Raw = "{\n  \"file\": \"/tmp/x/quickstart.cpp\",\n"
                    "  \"analysis_seconds\": 0.001234,\n"
                    "  \"has_main_loop\": true\n}\n";
  check(normalizeReport(Raw) == "{\n  \"file\": \"<input>\",\n"
                                "  \"analysis_seconds\": \"<time>\",\n"
                                "  \"has_main_loop\": true\n}\n",
        "golden normalization");
  check(normalizeReport(normalizeReport(Raw)) == normalizeReport(Raw),
        "normalization is idempotent");
  check(near(reportAnalysisSeconds(Raw), 0.001234), "analysis_seconds read");

  // Family oracles on synthetic reports: line 12 holds the injected bug.
  std::string Source = "int a;\n"
                       "static void buggy(void) {\n"
                       "  q = 7 / d; /* real division by zero */\n"
                       "}\n";
  check(injectedBugLines(Source) == std::vector<unsigned>{3},
        "injected-bug line found");
  std::vector<unsigned> Bugs{12};
  const std::string Caught =
      "    {\"kind\": \"division-by-zero\", \"line\": 12, \"definite\": "
      "false, \"message\": \"divisor may be zero\"}";
  FamilyVerdict Good = checkFamilyReport(familyReport(Caught), Bugs);
  check(Good.ok(), "a caught bug passes");
  FamilyVerdict Dropped = checkFamilyReport(familyReport(""), Bugs);
  check(!Dropped.ok() && Dropped.MissedBugs == 1 && Dropped.FalseAlarms == 0,
        "a dropped bug alarm is caught");
  const std::string Stray =
      Caught + ",\n    {\"kind\": \"integer-overflow\", \"line\": 40, "
               "\"definite\": false, \"message\": \"may overflow\"}";
  FamilyVerdict Extra = checkFamilyReport(familyReport(Stray), Bugs);
  check(!Extra.ok() && Extra.FalseAlarms == 1 && Extra.MissedBugs == 0,
        "a stray alarm is caught");
  const std::string WrongKind =
      "    {\"kind\": \"integer-overflow\", \"line\": 12, \"definite\": "
      "false, \"message\": \"may overflow\"}";
  FamilyVerdict Kind = checkFamilyReport(familyReport(WrongKind), Bugs);
  check(!Kind.ok() && Kind.MissedBugs == 1,
        "a bug line needs a division-by-zero alarm");
  check(!checkFamilyReport("not json", Bugs).ok(), "garbage is rejected");

  // The --dump-stats block on stderr, among other stderr lines.
  std::map<std::string, double> Stats = parseStatsDump(
      "astral-cli: note: something\n=== stats: m.c ===\n"
      "fixpoint.iterations = 91\nparallel.partitions.dispatched = 3290\n"
      "a line = with spaces\n");
  check(Stats.size() == 2 && near(Stats["fixpoint.iterations"], 91) &&
            near(Stats["parallel.partitions.dispatched"], 3290),
        "statistics dump parsed");

  // Self time: duration minus the union of direct children, clipped to
  // the parent. request [0,100] has children a [10,40], b [30,60] (overlap
  // counted once) and c [90,120] (clipped to 90..100): 100 - 60 = 40.
  std::vector<Span> Spans = {{"request", 0, 100, -1},
                             {"a", 10, 40, 0},
                             {"b", 30, 60, 0},
                             {"c", 90, 120, 0},
                             {"a.inner", 15, 25, 1}};
  std::vector<int64_t> Self = selfTimesNs(Spans);
  check(Self[0] == 40, "self time with overlapping and clipped children");
  check(Self[1] == 20 && Self[2] == 30 && Self[3] == 30 && Self[4] == 10,
        "self time of the children");
  // A well-nested tree, as the traced child produces: self times add up
  // to the root's duration.
  Self = selfTimesNs({{"request", 0, 100, -1},
                      {"x", 10, 50, 0},
                      {"y", 50, 80, 0},
                      {"x.1", 20, 30, 1}});
  check(Self == std::vector<int64_t>{30, 30, 30, 10} &&
            Self[0] + Self[1] + Self[2] + Self[3] == 100,
        "self times of a nested tree sum to the root");

  std::printf("self-test: %u/%u checks passed\n", Checks - Failures, Checks);
  return Failures ? 1 : 0;
}
