//===- analyzer/SpecDirectives.cpp - In-source environment specs -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "analyzer/SpecDirectives.h"

#include "analyzer/Scheduler.h"

#include <cctype>
#include <optional>
#include <sstream>

using namespace astral;

/// True when the stream sits at end-of-line or whitespace — i.e. the last
/// extraction consumed a whole token. Rejects half-parsed numbers like the
/// "3" of "3,6e6" while tolerating a trailing "*/" after a space.
static bool cleanBreak(std::istringstream &S) {
  int C = S.peek();
  return C == EOF || std::isspace(static_cast<unsigned char>(C));
}

std::vector<std::string>
astral::applySpecDirectives(const std::string &Source, AnalyzerOptions &Opts) {
  std::vector<std::string> Warnings;
  std::istringstream In(Source);
  std::string Line;
  unsigned LineNo = 0;
  auto Malformed = [&](const char *Kind, const char *Expect) {
    Warnings.push_back("line " + std::to_string(LineNo) +
                       ": malformed @astral " + std::string(Kind) +
                       " directive (expected '@astral " + std::string(Kind) +
                       " " + std::string(Expect) + "')");
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    // A line may carry several directives; each one's arguments run to the
    // next `@astral` marker (or end of line).
    for (size_t At = Line.find("@astral "); At != std::string::npos;) {
      size_t Next = Line.find("@astral ", At + 8);
      std::istringstream Dir(Line.substr(
          At + 8, Next == std::string::npos ? std::string::npos
                                            : Next - (At + 8)));
      At = Next;
      std::string Kind;
      Dir >> Kind;
      if (Kind == "volatile") {
        std::string Name;
        double Lo = 0, Hi = 0;
        if (Dir >> Name >> Lo >> Hi && cleanBreak(Dir) && Lo <= Hi)
          Opts.VolatileRanges[Name] = Interval(Lo, Hi);
        else
          Malformed("volatile", "<name> <lo> <hi>");
      } else if (Kind == "clock-max") {
        double T = 0;
        if (Dir >> T && cleanBreak(Dir) && T > 0)
          Opts.ClockMax = T;
        else
          Malformed("clock-max", "<ticks>");
      } else if (Kind == "partition") {
        std::string Fn;
        if (Dir >> Fn)
          Opts.PartitionFunctions.insert(Fn);
        else
          Malformed("partition", "<function>");
      } else if (Kind == "threshold") {
        double V = 0;
        if (Dir >> V && cleanBreak(Dir))
          Opts.ExtraThresholds.push_back(V);
        else
          Malformed("threshold", "<value>");
      } else if (Kind == "domains") {
        std::string List, Extra;
        std::string Err;
        std::optional<DomainSet> DS;
        if (Dir >> List)
          DS = DomainSet::parse(List, Err);
        // The list must be one comma-separated token: a stray space after a
        // comma would otherwise silently drop the rest of the domains.
        if (DS && Dir >> Extra && Extra != "*/")
          DS.reset();
        if (DS)
          Opts.Domains = *DS;
        else
          Malformed("domains", "<interval,clocked,octagon,tree,ellipsoid>");
      } else if (Kind == "thread") {
        std::string Name, Fn;
        if (Dir >> Name >> Fn)
          Opts.Threads.emplace_back(Name, Fn);
        else
          Malformed("thread", "<name> <entry>");
      } else if (Kind == "entry") {
        std::string Fn;
        if (Dir >> Fn)
          Opts.EntryFunction = Fn;
        else
          Malformed("entry", "<function>");
      } else if (Kind == "unroll") {
        unsigned N = 0;
        if (Dir >> N && cleanBreak(Dir))
          Opts.DefaultUnroll = N;
        else
          Malformed("unroll", "<n>");
      } else if (Kind == "jobs") {
        // Execution policy travels with the input (0 = one worker per
        // hardware thread). Reports stay byte-identical for any value, so a
        // checked-in spec cannot make a golden run diverge. Parsed signed:
        // istream happily wraps "-1" into an unsigned, which would request
        // four billion workers.
        long long N = 0;
        if (Dir >> N && cleanBreak(Dir) && N >= 0 &&
            N <= static_cast<long long>(Scheduler::MaxThreads))
          Opts.Jobs = static_cast<unsigned>(N);
        else
          Malformed("jobs", "<n>");
      } else {
        Warnings.push_back("line " + std::to_string(LineNo) +
                           ": unknown @astral directive '" + Kind + "'");
      }
    }
  }
  return Warnings;
}
